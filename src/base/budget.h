#ifndef XTC_BASE_BUDGET_H_
#define XTC_BASE_BUDGET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/base/status.h"

namespace xtc {

/// Why a governed computation ran out of resources.
enum class ExhaustionCause {
  kNone = 0,
  kDeadline,  ///< the wall-clock deadline passed
  kSteps,     ///< the step fuel was spent
  kBytes,     ///< the byte ceiling was crossed
  kInjected,  ///< a deterministic injected fault fired
};

const char* ExhaustionCauseName(ExhaustionCause cause);

/// A resource governor shared by one typechecking run. Every potentially
/// super-linear loop in the engines calls Check() ("checkpoint"); the first
/// checkpoint past a limit returns kResourceExhausted and every later one
/// repeats it, so governed loops unwind softly — no aborts, no partial
/// state escaping. The paper's hard instances (Theorems 18/28) make this
/// mandatory for a service: exponential blowup must degrade into a clean
/// error within a bounded delay, not thrash CPU and memory.
///
/// Three independent limits, each optional:
///  - a wall-clock deadline (steady clock, re-read every kClockStride
///    checkpoints to keep Check() cheap),
///  - step fuel: a hard cap on the number of checkpoints passed,
///  - a byte ceiling fed by Arena allocation accounting (ChargeBytes).
///
/// The same checkpoints double as a deterministic fault-injection
/// mechanism: set_fail_at_checkpoint(n) makes the n-th checkpoint fail with
/// an injected kResourceExhausted, which lets tests sweep every failure
/// point of an engine and assert each path is clean (fault_injection_test).
///
/// Thread-compatibility: single-thread only. One Budget governs one run on
/// one thread; the service layer creates a fresh Budget per request on the
/// worker thread that executes it (see src/base/README.md).
class Budget {
 public:
  Budget() = default;

  /// Convenience factories for the common single-limit cases.
  static Budget WithDeadline(std::chrono::milliseconds deadline);
  static Budget WithMaxSteps(std::uint64_t steps);
  static Budget WithMaxBytes(std::uint64_t bytes);

  /// Starts the wall-clock countdown now. Re-arming resets the clock.
  void set_deadline(std::chrono::milliseconds deadline);
  /// Anchors the deadline at an absolute steady-clock instant. This is the
  /// deadline-propagation form: the service anchors at request *admission*,
  /// so time spent queued counts against the client's deadline and
  /// server-side work never outlives the client's patience. An instant
  /// already in the past trips the very first Check().
  void set_deadline_until(std::chrono::steady_clock::time_point at);
  /// Milliseconds of deadline left (never negative); nullopt when no
  /// deadline is armed. Used to cap subordinate work (e.g. artifact
  /// compiles) at the caller's remaining patience.
  std::optional<double> remaining_ms() const;
  /// Caps the total number of checkpoints (0 disables).
  void set_max_steps(std::uint64_t steps) { max_steps_ = steps; }
  /// Caps the bytes charged via ChargeBytes (0 disables).
  void set_max_bytes(std::uint64_t bytes) { max_bytes_ = bytes; }
  /// Fault injection: the n-th checkpoint (1-based) fails; 0 disables.
  void set_fail_at_checkpoint(std::uint64_t n) { fail_at_ = n; }

  /// The checkpoint. `where` names the governed loop for the error message.
  /// Exhaustion is sticky: once a limit trips, every later Check() fails
  /// with the same cause.
  Status Check(const char* where);

  /// Account allocated bytes (never fails; exceeding the ceiling is
  /// reported by the next Check()). Hooked into Arena::Allocate.
  void ChargeBytes(std::size_t bytes) {
    bytes_charged_ += static_cast<std::uint64_t>(bytes);
  }

  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t bytes_charged() const { return bytes_charged_; }
  /// Milliseconds since construction / the last set_deadline().
  double elapsed_ms() const;
  bool exhausted() const { return cause_ != ExhaustionCause::kNone; }
  ExhaustionCause cause() const { return cause_; }

 private:
  // Deadline re-read stride: a power of two so the test is a mask.
  static constexpr std::uint64_t kClockStride = 32;

  Status Exhaust(ExhaustionCause cause, const char* where);

  std::uint64_t checkpoints_ = 0;
  std::uint64_t bytes_charged_ = 0;
  std::uint64_t max_steps_ = 0;
  std::uint64_t max_bytes_ = 0;
  std::uint64_t fail_at_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_at_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  ExhaustionCause cause_ = ExhaustionCause::kNone;
  Status exhausted_status_;
};

/// Wall-clock stopwatch for ungoverned runs: engines stamp
/// TypecheckStats::elapsed_ms from the governing Budget when there is one
/// and from a WallTimer started at entry otherwise, so latency telemetry
/// (read by the service layer) is populated either way.
class WallTimer {
 public:
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Null-tolerant checkpoint: ungoverned runs pass a nullptr budget and
/// every checkpoint is free.
inline Status BudgetCheck(Budget* budget, const char* where) {
  if (budget == nullptr) return Status::Ok();
  return budget->Check(where);
}

/// Amortized checkpointing for the tightest inner loops. A full Check()
/// per iteration would dominate the word-parallel kernels it governs, so a
/// gate forwards only every `stride`-th Poll() to the Budget (one local
/// countdown decrement otherwise) and answers from the latched status in
/// between. Exhaustion is therefore detected at most `stride` iterations
/// late — bounded staleness, same soft-unwind semantics. Note the step-fuel
/// unit changes accordingly: one Budget checkpoint ≈ `stride` gated steps.
class BudgetGate {
 public:
  static constexpr std::uint32_t kDefaultStride = 1024;

  explicit BudgetGate(Budget* budget, std::uint32_t stride = kDefaultStride)
      : budget_(budget), stride_(stride), countdown_(stride) {}

  Status Poll(const char* where) {
    if (budget_ == nullptr) return Status::Ok();
    if (tripped_) return budget_->Check(where);  // sticky, repeats the cause
    if (--countdown_ != 0) return Status::Ok();
    countdown_ = stride_;
    Status s = budget_->Check(where);
    if (!s.ok()) tripped_ = true;
    return s;
  }

 private:
  Budget* budget_;
  std::uint32_t stride_;
  std::uint32_t countdown_;
  bool tripped_ = false;
};

}  // namespace xtc

#endif  // XTC_BASE_BUDGET_H_
