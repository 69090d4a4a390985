// xtc_loadgen: open-loop load harness for the typechecking service.
//
// Replays a mixed warm/cold/hostile schedule at a target offered rate and
// reports throughput, latency percentiles (p50/p99/p999), and per-class
// shed and failure counts as one JSON document.
//
//   gate mode (default) — calibrate the sustainable warm-cache rate, then
//     run the mix unloaded (0.5x) and overloaded (2x); the CI overload
//     smoke (ci/overload_gate.py) checks the invariants on the output:
//       ./xtc_loadgen --threads=2 --duration-s=2
//   run mode — one run at an explicit rate:
//       ./xtc_loadgen --mode=run --qps=200 --duration-s=5 --threads=4

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/service/loadgen.h"

namespace {

struct Flags {
  std::string mode = "gate";
  std::string mix = "standard";  // standard | warm (95% warm repeats)
  double qps = 100;        // run mode only; gate mode calibrates
  double duration_s = 2.0;
  int threads = 2;
  std::size_t queue = 64;
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 250;  // warm/cold patience in the mix
  std::uint64_t hostile_deadline_ms = 100;
};

bool ParseNum(const char* arg, const char* name, double* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  double v = std::strtod(arg + len + 1, &end);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode=gate|run] [--mix=standard|warm] [--qps=N] "
               "[--duration-s=N]\n"
               "          [--threads=N] [--queue=N] [--seed=N] "
               "[--deadline-ms=N] [--hostile-deadline-ms=N]\n",
               argv0);
  return 2;
}

// The canonical overload mix (DESIGN.md section 4): mostly warm repeats of
// one hot key, a cold tail of distinct compiles, and a hostile slice of
// NfaSchemaFamily instances — the Theorem 18 EXPTIME inclusion shape whose
// determinization cost dwarfs its deadline, so it must be shed or fail
// softly within its deadline, never allowed to starve the warm traffic.
std::vector<xtc::LoadClass> MixClasses(const Flags& flags) {
  xtc::LoadClass warm;
  warm.name = "warm";
  warm.family = "filter";
  warm.n = 6;
  warm.distinct = 1;
  warm.weight = 0.8;
  warm.deadline_ms = flags.deadline_ms;
  warm.prewarm = true;

  if (flags.mix == "warm") {
    // Warm-heavy mix: ~95% warm repeats over a small prewarmed key set,
    // with a thin cold tail. This is the sharded cache's target workload —
    // nearly every request should resolve on the lock-free snapshot path,
    // so cache_lock_waits should stay near zero and cache_snapshot_hits
    // should track cache_hits.
    warm.distinct = 4;
    warm.weight = 0.95;

    xtc::LoadClass trickle;
    trickle.name = "cold";
    trickle.family = "xpath";
    trickle.n = 2;
    trickle.distinct = 6;
    trickle.weight = 0.05;
    trickle.deadline_ms = flags.deadline_ms;
    return {warm, trickle};
  }

  xtc::LoadClass cold;
  cold.name = "cold";
  cold.family = "xpath";
  cold.n = 2;
  cold.distinct = 6;
  cold.weight = 0.1;
  cold.deadline_ms = flags.deadline_ms;

  xtc::LoadClass hostile;
  hostile.name = "hostile";
  hostile.family = "nfa";
  hostile.n = 10;
  hostile.distinct = 4;
  hostile.weight = 0.1;
  hostile.deadline_ms = flags.hostile_deadline_ms;

  return {warm, cold, hostile};
}

void PrintReport(const char* key, const xtc::LoadgenReport& report,
                 bool trailing_comma) {
  std::printf("  \"%s\": {\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
              "\"wall_s\": %.3f, \"offered\": %llu, \"ok\": %llu, "
              "\"shed\": %llu, \"failed\": %llu, \"classes\": {",
              key, report.offered_qps, report.achieved_qps, report.wall_s,
              static_cast<unsigned long long>(report.offered),
              static_cast<unsigned long long>(report.ok),
              static_cast<unsigned long long>(report.shed),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, cls] : report.classes) {
    std::printf("%s\"%s\": {\"offered\": %llu, \"ok\": %llu, "
                "\"shed\": %llu, \"failed\": %llu, \"failed_other\": %llu, "
                "\"failed_max_ms\": %.3f, \"deadline_ms\": %llu, "
                "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
                "\"max_ms\": %.3f}",
                first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(cls.offered),
                static_cast<unsigned long long>(cls.ok),
                static_cast<unsigned long long>(cls.shed),
                static_cast<unsigned long long>(cls.failed),
                static_cast<unsigned long long>(cls.failed_other),
                cls.failed_max_ms,
                static_cast<unsigned long long>(cls.deadline_ms), cls.p50_ms,
                cls.p99_ms, cls.p999_ms, cls.max_ms);
    first = false;
  }
  const xtc::ServiceStats& stats = report.service;
  std::printf("}, \"service\": {\"shed_queue_full\": %llu, "
              "\"shed_overload\": %llu, \"shed_deadline\": %llu, "
              "\"shed_stream_limit\": %llu, "
              "\"expired_in_queue\": %llu, \"cost_ewma_ms\": %.3f, "
              "\"cache_hits\": %llu, \"cache_misses\": %llu, "
              "\"cache_snapshot_hits\": %llu, \"cache_lock_waits\": %llu, "
              "\"cache_shards\": [",
              static_cast<unsigned long long>(stats.shed_queue_full),
              static_cast<unsigned long long>(stats.shed_overload),
              static_cast<unsigned long long>(stats.shed_deadline),
              static_cast<unsigned long long>(stats.shed_stream_limit),
              static_cast<unsigned long long>(stats.expired_in_queue),
              stats.cost_ewma_ms,
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.snapshot_hits),
              static_cast<unsigned long long>(stats.cache.lock_waits));
  // Per-shard convoy telemetry: a single hot shard (skewed key space) or a
  // high lock_waits column is visible here before it shows up as latency.
  first = true;
  for (const xtc::CompileCache::ShardStats& shard : stats.cache.per_shard) {
    std::printf("%s{\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
                "\"snapshot_hits\": %llu, \"lock_waits\": %llu}",
                first ? "" : ", ",
                static_cast<unsigned long long>(shard.hits),
                static_cast<unsigned long long>(shard.misses),
                static_cast<unsigned long long>(shard.evictions),
                static_cast<unsigned long long>(shard.snapshot_hits),
                static_cast<unsigned long long>(shard.lock_waits));
    first = false;
  }
  std::printf("]}}%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    double v = 0;
    std::size_t len = std::strlen("--mode");
    if (std::strncmp(argv[i], "--mode", len) == 0 && argv[i][len] == '=') {
      flags.mode = argv[i] + len + 1;
    } else if (std::strncmp(argv[i], "--mix", 5) == 0 && argv[i][5] == '=') {
      flags.mix = argv[i] + 6;
    } else if (ParseNum(argv[i], "--qps", &v)) {
      flags.qps = v;
    } else if (ParseNum(argv[i], "--duration-s", &v)) {
      flags.duration_s = v;
    } else if (ParseNum(argv[i], "--threads", &v)) {
      flags.threads = static_cast<int>(v);
    } else if (ParseNum(argv[i], "--queue", &v)) {
      flags.queue = static_cast<std::size_t>(v);
    } else if (ParseNum(argv[i], "--seed", &v)) {
      flags.seed = static_cast<std::uint64_t>(v);
    } else if (ParseNum(argv[i], "--deadline-ms", &v)) {
      flags.deadline_ms = static_cast<std::uint64_t>(v);
    } else if (ParseNum(argv[i], "--hostile-deadline-ms", &v)) {
      flags.hostile_deadline_ms = static_cast<std::uint64_t>(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.threads < 1 || flags.queue < 1 || flags.duration_s <= 0) {
    return Usage(argv[0]);
  }
  if (flags.mix != "standard" && flags.mix != "warm") return Usage(argv[0]);

  xtc::LoadgenOptions options;
  options.duration_s = flags.duration_s;
  options.seed = flags.seed;
  options.service.num_threads = flags.threads;
  options.service.queue_capacity = flags.queue;
  options.classes = MixClasses(flags);

  if (flags.mode == "run") {
    options.offered_qps = flags.qps;
    xtc::StatusOr<xtc::LoadgenReport> report = xtc::RunLoadgen(options);
    if (!report.ok()) {
      std::fprintf(stderr, "xtc_loadgen: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("{\"format\": \"xtc-loadgen-v1\",\n");
    PrintReport("run", *report, /*trailing_comma=*/false);
    std::printf("}\n");
    return 0;
  }
  if (flags.mode != "gate") return Usage(argv[0]);

  // Gate mode: measure the warm-cache sustainable rate, then bracket it.
  xtc::StatusOr<double> sustainable =
      xtc::EstimateSustainableQps(options, options.classes[0]);
  if (!sustainable.ok()) {
    std::fprintf(stderr, "xtc_loadgen: calibration failed: %s\n",
                 sustainable.status().ToString().c_str());
    return 1;
  }
  // Clamp: a fast machine's warm filter requests can calibrate to hundreds
  // of thousands of qps, where the dispatcher itself becomes the
  // bottleneck; the gate's invariants are about ratios, not absolute rate.
  double base = std::min(std::max(*sustainable, 50.0), 2000.0);

  // Unloaded baseline: warm traffic only, at half the sustainable rate —
  // the reference point for "p99 under overload within 5x unloaded".
  xtc::LoadgenOptions baseline = options;
  baseline.classes = {options.classes[0]};
  baseline.offered_qps = base * 0.5;
  xtc::StatusOr<xtc::LoadgenReport> unloaded = xtc::RunLoadgen(baseline);
  if (!unloaded.ok()) {
    std::fprintf(stderr, "xtc_loadgen: unloaded run failed: %s\n",
                 unloaded.status().ToString().c_str());
    return 1;
  }
  double warm_p99_unloaded = unloaded->classes.at("warm").p99_ms;

  // Overload run at 2x: the warm class's deadline becomes its latency SLO
  // (5x the unloaded p99, floored against timer noise). This is deadline
  // propagation doing its job: admission turns the SLO into shed decisions
  // (predicted misses shed up front), the in-queue expiry check fails
  // anything that slipped through, so an *admitted* warm request can never
  // be served arbitrarily late — the ok-response p99 stays near the SLO no
  // matter how hard the hostile slice pounds the queue.
  double warm_slo_ms = 5.0 * std::max(warm_p99_unloaded, 2.0);
  options.classes[0].deadline_ms =
      static_cast<std::uint64_t>(warm_slo_ms) + 1;
  options.offered_qps = base * 2.0;
  options.seed = flags.seed + 1;
  xtc::StatusOr<xtc::LoadgenReport> overload = xtc::RunLoadgen(options);
  if (!overload.ok()) {
    std::fprintf(stderr, "xtc_loadgen: overload run failed: %s\n",
                 overload.status().ToString().c_str());
    return 1;
  }

  std::printf("{\"format\": \"xtc-loadgen-v1\", \"sustainable_qps\": %.1f, "
              "\"warm_slo_ms\": %.3f,\n",
              *sustainable, warm_slo_ms);
  PrintReport("unloaded", *unloaded, /*trailing_comma=*/true);
  PrintReport("overload", *overload, /*trailing_comma=*/false);
  std::printf("}\n");
  return 0;
}
