// xtc_request_bench: the repository's end-to-end request benchmark.
//
//   xtc_request_bench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <file>]
//
// Prints '#'-prefixed report lines (host, traffic digest, latency modes),
// then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits non-zero on any wrong answer or unusable measurement.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "alloc_count.h"
#include "drive.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop padding NULs
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void PrintNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    std::printf("%.0f", value);
  } else {
    std::printf("%.17g", std::isfinite(value) ? value : 0.0);
  }
}

void PrintResult(const xbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const xbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i > 0 ? ", " : "", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: xtc_request_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap in the process: without this, glibc hands the engines'
  // multi-megabyte working sets back to the kernel after each request and
  // the next request re-faults them, a cost set by the host's page-fault
  // latency rather than by the program (it moved engine_heavy's p50 by up
  // to 30% between identical runs). Setting M_TRIM_THRESHOLD also freezes
  // glibc's dynamic mmap threshold, so M_MMAP_THRESHOLD is set explicitly:
  // 32 MiB is the largest value glibc accepts on 64-bit hosts, and blocks
  // below it come from the retained heap.
  if (mallopt(M_TRIM_THRESHOLD, 1 << 30) == 0 ||
      mallopt(M_TOP_PAD, 64 << 20) == 0 ||
      mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0) {
    std::fprintf(stderr, "mallopt refused the benchmark's heap settings\n");
    return 2;
  }

  std::string workload_name;
  std::uint64_t seed = 1;
  xbench::RunConfig config;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  std::printf("# xtc_request_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              config.seconds, trace ? 1 : 0);
  std::printf("# host nproc=%u cpu=\"%s\" build=%s compiler=\"%s %s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              XTC_BENCH_BUILD_TYPE,
#if defined(__clang__)
              "clang",
#elif defined(__GNUC__)
              "gcc",
#else
              "c++",
#endif
              __VERSION__);

  xtc::StatusOr<xbench::Workload> workload = [&] {
    xbench::Untracked untracked;
    return xbench::MakeWorkload(workload_name, seed);
  }();
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::printf("# traffic seed=%llu pool_lines=%zu keys=%zu prewarm=%zu "
              "digest=%016llx\n",
              static_cast<unsigned long long>(seed), workload->pool.size(),
              workload->keys.size(), workload->prewarm.size(),
              static_cast<unsigned long long>(xbench::PoolDigest(*workload)));
  std::fflush(stdout);

  xtc::StatusOr<xbench::RunResult> result =
      trace ? xbench::RunTraced(*workload, config)
            : xbench::RunUntraced(*workload, config);
  if (!result.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  PrintResult(*result);
  std::fflush(stdout);
  return result->correct ? 0 : 1;
}
