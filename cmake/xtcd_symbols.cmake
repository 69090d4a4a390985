# Fails if the xtcd binary links any symbol whose name contains one of the
# forbidden names below, or if it lacks the symbol that proves the nm output
# is real.
#
# Usage: cmake -DNM=<nm> -DBINARY=<path to xtcd> -P xtcd_symbols.cmake

set(forbidden
  # The in-request parallel lazy emptiness engine and its concurrency stack.
  ParallelLazyEmptiness
  ConcurrentInterner
  ConcurrentLog
  SharedAntichainIndex
  TombstoneLog
  Budget::ChargeSteps
  # Antichain subsumption pruning, the dense/sparse subset masks and the
  # unused engine-agnostic emptiness wrapper.
  AntichainIndex
  AdaptiveStateSet
  SparseStateSet
  EmptinessOracle
  # Reference engines and generators that the request path never reaches.
  # TypecheckRePlus, the Section 5 grammar engine, is min/vast's test oracle.
  TypecheckRePlus
  # The sound-but-incomplete checker is the Introduction's contrast
  # (bench_approximate); the service answers exactly or sheds.
  TypecheckApproximate
  # Moore DFA minimization is a test oracle (tests/moore_oracle.h); rule
  # DFAs are minimized by Dfa::Minimize.
  Dfa::Minimized
  # Each rule DFA is stored once; engines read its complete view
  # (Dfa::StepComplete), not a second, completed copy.
  Dtd::RuleDfaComplete
  # Eager DTAc completion: the Theorem 20 engine complements on the fly.
  CompletedDeterministic
  IsBottomUpDeterministic
  BuildCounterexampleNta
  MakeTheorem18Instance
  MakeTheorem28Instance
  MakeExample6
  FilterFamily
  NfaSchemaFamily
)
set(required xtc::LazyEmptiness)

if(NOT NM OR NOT BINARY)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DBINARY=<xtcd> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
execute_process(COMMAND ${NM} -C ${BINARY}
                OUTPUT_VARIABLE symbols
                ERROR_VARIABLE nm_error
                RESULT_VARIABLE nm_result)
if(NOT nm_result EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${BINARY} failed (${nm_result}): ${nm_error}")
endif()

string(FIND "${symbols}" "${required}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BINARY} has no ${required} symbol; nm output is unusable")
endif()

set(found 0)
foreach(name IN LISTS forbidden)
  string(REGEX MATCHALL "[^\n]*${name}[^\n]*" lines "${symbols}")
  list(LENGTH lines count)
  if(count GREATER 0)
    math(EXPR found "${found} + ${count}")
    message("${name}: ${count} symbol(s)")
    foreach(line IN LISTS lines)
      message("  ${line}")
    endforeach()
  endif()
endforeach()
if(found GREATER 0)
  message(FATAL_ERROR "${BINARY} links ${found} forbidden symbol(s)")
endif()
message("${BINARY}: no forbidden symbols")
