#include "drive.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "alloc_count.h"
#include "oracle.h"
#include "src/base/arena.h"
#include "src/base/hash.h"
#include "src/core/nfa_dtd.h"
#include "src/core/relab.h"
#include "src/core/typecheck.h"
#include "src/schema/canonical.h"
#include "src/service/compile_cache.h"
#include "src/stream/event_reader.h"
#include "src/stream/transform.h"
#include "src/stream/validate.h"
#include "src/td/canonical.h"
#include "src/td/compile_selectors.h"
#include "src/td/exec.h"
#include "src/td/widths.h"
#include "src/tree/codec.h"
#include "trace.h"

namespace xbench {
namespace {

using xtc::CompiledSchema;
using xtc::CompiledTransducer;
using xtc::ServiceOp;
using xtc::ServiceRequest;
using xtc::ServiceResponse;
using xtc::Status;
using xtc::StatusOr;
using xtc::TypecheckService;

// ---------------------------------------------------------------------------
// Exact-sample statistics.

struct Sample {
  std::int64_t ns;
  int cls;
};

// Nearest-rank percentile of sorted values: the smallest value with at
// least p% of the samples at or below it.
std::size_t Rank(std::size_t n, double p) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return std::clamp<std::size_t>(rank, 1, n);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string FormatMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4fms", ns / 1e6);
  return buf;
}

// The mode report: per class, its share of the samples, its own p50/p95,
// and a coarse log2 histogram with the bins holding the workload's p50 (*)
// and p95 (^) marked, so one can see whether either sits in a gap between
// two cost modes.
void PrintModes(const Workload& w, const std::vector<Sample>& samples,
                std::int64_t p50, std::int64_t p95) {
  auto bin_of = [](std::int64_t ns) {
    int b = 0;
    for (std::int64_t us = std::max<std::int64_t>(ns / 1000, 1); us > 1;
         us >>= 1) {
      ++b;
    }
    return b;  // [2^b, 2^(b+1)) us
  };
  const int p50_bin = bin_of(p50);
  const int p95_bin = bin_of(p95);
  for (int c = 0; c < static_cast<int>(w.classes.size()); ++c) {
    std::vector<std::int64_t> mine;
    for (const Sample& s : samples) {
      if (s.cls == c) mine.push_back(s.ns);
    }
    if (mine.empty()) continue;
    std::sort(mine.begin(), mine.end());
    std::vector<std::size_t> bins(64, 0);
    for (std::int64_t ns : mine) ++bins[bin_of(ns)];
    std::string histogram;
    for (int b = 0; b < 64; ++b) {
      if (bins[b] == 0) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " [%lld,%lld)us:%zu%s%s",
                    1ll << b, 1ll << (b + 1), bins[b], b == p50_bin ? "*" : "",
                    b == p95_bin ? "^" : "");
      histogram += buf;
    }
    std::printf("# class %-16s n=%zu share=%.3f p50=%s p95=%s |%s\n",
                w.classes[c].c_str(), mine.size(),
                static_cast<double>(mine.size()) / samples.size(),
                FormatMs(mine[Rank(mine.size(), 50) - 1]).c_str(),
                FormatMs(mine[Rank(mine.size(), 95) - 1]).c_str(),
                histogram.c_str());
  }
}

// ---------------------------------------------------------------------------
// Set-up and the untraced path.

// The vCPUs of one host need not run at one speed: on the shared 4-vCPU
// host this benchmark was built on, one vCPU ran the hot workload 50% faster
// than the other three, so a run's numbers depended on where the scheduler
// happened to place it. Every run therefore moves its client thread through
// the same fixed sequence of allowed CPUs (at most 8), giving each run equal
// exposure to each. Pinning is best effort: where it is refused, the run
// simply stays where it is.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    original_ = set;
    for (int c = 0; c < CPU_SETSIZE && cpus_.size() < 8; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  int size() const { return cpus_.empty() ? 1 : static_cast<int>(cpus_.size()); }
  /// Pins the calling thread to the k-th CPU of the rotation; returns it.
  int Pin(int k) {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[k % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return cpu;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// One NDJSON line as xtcd serves it, minus the worker pool.
ServiceResponse Serve(TypecheckService& service, std::string_view line,
                      std::string* out) {
  StatusOr<ServiceRequest> request = xtc::ParseServiceRequest(line);
  ServiceResponse response;
  if (request.ok()) {
    response = service.Process(*request);
  } else {
    response.status = request.status();
  }
  *out = response.ToJsonLine();
  return response;
}

// Builds a fresh service (and so a fresh compile cache) and runs every
// prewarm line through it once. Salted lines get a salt of their own, which
// no timed request uses. The responses are checked afterwards, so the
// oracle's cost stays out of the timed set-up.
std::unique_ptr<TypecheckService> SetUp(const Workload& w,
                                        const TypecheckService::Options& options,
                                        Oracle* oracle, double* seconds,
                                        std::string* error) {
  std::vector<ServiceResponse> responses;
  std::vector<PoolLine> lines;
  {
    Untracked untracked;
    responses.reserve(w.prewarm.size());
    for (std::size_t index : w.prewarm) {
      lines.push_back(w.pool[index]);
      StampSalt(&lines.back(), w.seed, kSetUpRequest);
    }
  }
  const std::int64_t start = ThreadCpuNs();
  auto service = std::make_unique<TypecheckService>(options);
  std::string out;
  for (const PoolLine& line : lines) {
    responses.push_back(Serve(*service, line.line, &out));
  }
  *seconds = static_cast<double>(ThreadCpuNs() - start) / 1e9;
  Untracked untracked;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    std::string wrong =
        oracle->Check(w.pool[w.prewarm[i]].key, responses[i]);
    if (!wrong.empty() && error->empty()) {
      *error = "set-up line " + std::to_string(w.prewarm[i]) + ": " + wrong;
    }
  }
  return service;
}

void PrintFailure(const Workload& w, std::size_t index,
                  const std::string& wrong, std::uint64_t* failed) {
  if (++*failed <= 5) {
    std::printf("# WRONG line %zu (key %d, class %s): %s\n", index,
                w.pool[index].key,
                w.classes[w.keys[w.pool[index].key].cls].c_str(),
                wrong.c_str());
  }
}

// The pool as one run serves it: the run's own copy, whose salted lines
// are restamped for each request (see PoolLine::salt_at).
class Pool {
 public:
  explicit Pool(const Workload& w) : seed_(w.seed) {
    Untracked untracked;
    lines_ = w.pool;
  }
  std::size_t size() const { return lines_.size(); }
  /// The line that the run's `request`-th request (0-based) serves.
  const PoolLine& Next(std::size_t request) {
    PoolLine& line = lines_[request % lines_.size()];
    StampSalt(&line, seed_, request);
    return line;
  }

 private:
  std::uint64_t seed_;
  std::vector<PoolLine> lines_;
};

// Fresh set-ups, each pinned to the next CPU of the rotation, until at
// least one pass over the rotation and kSetUpPhaseNs of set-up time are
// done, rounded up to whole passes. Each run makes two such phases, one
// before and one after its timed loop, and reports the median of both.
constexpr std::int64_t kSetUpPhaseNs = 1'000'000'000;

Status SetUpPhase(const Workload& w, Oracle* oracle, CpuRotation* rotation,
                  std::vector<double>* setup_seconds,
                  std::unique_ptr<TypecheckService>* service) {
  double phase_seconds = 0;
  int s = 0;
  do {
    service->reset();
    rotation->Pin(s++);
    double seconds = 0;
    std::string error;
    *service = SetUp(w, w.service, oracle, &seconds, &error);
    if (!error.empty()) return xtc::FailedPreconditionError(error);
    phase_seconds += seconds;
    setup_seconds->push_back(seconds);
  } while (s % rotation->size() != 0 || phase_seconds * 1e9 < kSetUpPhaseNs);
  return Status::Ok();
}

}  // namespace

StatusOr<RunResult> RunUntraced(const Workload& w, const RunConfig& config) {
  Oracle oracle(w);
  CpuRotation rotation;
  Pool pool(w);
  std::vector<double> setup_seconds;
  std::unique_ptr<TypecheckService> service;
  XTC_RETURN_IF_ERROR(
      SetUpPhase(w, &oracle, &rotation, &setup_seconds, &service));

  std::vector<Sample> samples;
  {
    Untracked untracked;
    samples.reserve(static_cast<std::size_t>(config.seconds * 50000) + 1024);
  }
  RunResult result;
  std::uint64_t correct = 0;
  // Requests are timed on the client thread's CPU clock, which does all of
  // a request's work here (the service has no worker threads) and, in a
  // guest, leaves out the time the hypervisor took the vCPU away; the wall
  // clock only paces the windows and the run's length.
  // The loop runs in equal windows, a whole number of passes over the
  // rotation (at least 10 windows), each pinned to the next CPU.
  const int windows = rotation.size() * ((9 + rotation.size()) / rotation.size());
  const auto window_ns =
      static_cast<std::int64_t>(config.seconds * 1e9 / windows);
  std::string window_report;
  std::uint64_t window_correct = 0;
  int window = 0;
  int cpu = rotation.Pin(0);
  const std::uint64_t allocs_before = AllocCount();
  ResetPeakBytes();
  const std::int64_t cpu_start = ThreadCpuNs();
  const std::int64_t start = NowNs();
  std::int64_t window_start = start;
  std::int64_t end = start;
  std::int64_t busy_ns = 0;
  for (std::size_t i = 0; window < windows; ++i) {
    const PoolLine& item = pool.Next(i);
    const std::int64_t a = ThreadCpuNs();
    std::string out;
    ServiceResponse response = Serve(*service, item.line, &out);
    const std::int64_t b = ThreadCpuNs();
    end = NowNs();
    Untracked untracked;
    ++result.attempted;
    busy_ns += b - a;
    samples.push_back({b - a, w.keys[item.key].cls});
    std::string wrong = oracle.Check(item.key, response);
    if (wrong.empty()) {
      ++correct;
      ++window_correct;
    } else {
      PrintFailure(w, i % w.pool.size(), wrong, &result.failed);
    }
    if (end - window_start >= window_ns) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " cpu%d:%.0f", cpu,
                    static_cast<double>(window_correct) /
                        (static_cast<double>(end - window_start) / 1e9));
      window_report += buf;
      window_correct = 0;
      cpu = rotation.Pin(++window);
      window_start = NowNs();
    }
  }
  // Host-noise diagnostic: the share of the loop's wall time the client
  // thread was actually on a CPU (below ~0.97, it was being preempted).
  const double on_cpu = static_cast<double>(ThreadCpuNs() - cpu_start) /
                        static_cast<double>(end - start);
  const double wall = static_cast<double>(end - start) / 1e9;
  const double busy = static_cast<double>(busy_ns) / 1e9;
  const double peak_mb = static_cast<double>(PeakBytes()) / (1 << 20);
  const double allocs = static_cast<double>(AllocCount() - allocs_before);
  XTC_RETURN_IF_ERROR(
      SetUpPhase(w, &oracle, &rotation, &setup_seconds, &service));

  Untracked untracked;
  const std::size_t n = samples.size();
  std::vector<std::int64_t> sorted;
  sorted.reserve(n);
  for (const Sample& s : samples) sorted.push_back(s.ns);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t r50 = Rank(n, 50);
  const std::size_t r95 = Rank(n, 95);
  const std::size_t beyond95 = n - r95;
  std::printf("# latency samples=%zu p50=%s p95=%s beyond_p95=%zu max=%s\n", n,
              FormatMs(static_cast<double>(sorted[r50 - 1])).c_str(),
              FormatMs(static_cast<double>(sorted[r95 - 1])).c_str(), beyond95,
              FormatMs(static_cast<double>(sorted.back())).c_str());
  PrintModes(w, samples, sorted[r50 - 1], sorted[r95 - 1]);
  std::string setup_report;
  for (double s : setup_seconds) setup_report += " " + std::to_string(s);
  std::printf("# setup_s samples:%s\n# window rates (req/wall s):%s\n"
              "# client thread on-cpu share of the timed loop: %.4f\n"
              "# wall-clock throughput: %.2f req/s\n",
              setup_report.c_str(), window_report.c_str(), on_cpu,
              static_cast<double>(correct) / wall);
  if (beyond95 < 10) {
    return xtc::FailedPreconditionError(
        "too few samples for a p95 (" + std::to_string(beyond95) +
        " beyond it; need 10): run longer");
  }

  result.correct = result.failed == 0;
  result.metrics = {
      {"setup_s", Median(setup_seconds), "s"},
      {"throughput_rps", static_cast<double>(correct) / busy, "req/s"},
      {"latency_p50_ms", static_cast<double>(sorted[r50 - 1]) / 1e6, "ms"},
      {"latency_p95_ms", static_cast<double>(sorted[r95 - 1]) / 1e6, "ms"},
      {"correct_frac",
       static_cast<double>(correct) / static_cast<double>(result.attempted),
       "ratio"},
      {"peak_live_mb", peak_mb, "MiB"},
      {"allocs_per_req", allocs / static_cast<double>(result.attempted),
       "allocs"},
  };
  return result;
}

// ---------------------------------------------------------------------------
// The traced path.

namespace {

// Span names, interned once.
struct Names {
  explicit Names(Tracer* t)
      : request(t->Name("request")),
        parse(t->Name("service.wire.parse")),
        emit(t->Name("service.wire.emit")),
        universe(t->Name("service.universe")),
        alphabet(t->Name("service.cache.alphabet")),
        hit(t->Name("service.cache.hit")),
        miss(t->Name("service.cache.miss")),
        lazy(t->Name("service.cache.lazy")),
        trac(t->Name("core.typecheck.trac")),
        replus(t->Name("core.typecheck.replus")),
        nfa_dtd(t->Name("core.typecheck.nfa_dtd")),
        relab(t->Name("core.typecheck.relab")),
        render(t->Name("tree.render")),
        tree_parse(t->Name("tree.parse")),
        validate(t->Name("schema.validate")),
        apply(t->Name("td.apply")),
        to_xml(t->Name("tree.to_xml")),
        stream_validate(t->Name("stream.validate")),
        stream_transform(t->Name("stream.transform")),
        schema_skeleton(t->Name("schema.skeleton")),
        td_skeleton(t->Name("td.skeleton")),
        schema_canonical(t->Name("schema.canonical")),
        td_canonical(t->Name("td.canonical")),
        hash(t->Name("base.hash")),
        schema_compile(t->Name("schema.compile")),
        determinize(t->Name("core.determinize")),
        compile_selectors(t->Name("td.compile_selectors")),
        widths(t->Name("td.widths")),
        witness_verify(t->Name("core.witness_verify")) {}
  int request, parse, emit, universe, alphabet, hit, miss, lazy;
  int trac, replus, nfa_dtd, relab, render;
  int tree_parse, validate, apply, to_xml, stream_validate, stream_transform;
  int schema_skeleton, td_skeleton, schema_canonical, td_canonical, hash;
  int schema_compile, determinize, compile_selectors, widths, witness_verify;
};

struct Lookup {
  const xtc::SchemaSpec* schema = nullptr;
  const xtc::TransducerSpec* transducer = nullptr;
  bool hit = false;
};

// What one traced request produced, kept for the probes that follow it.
struct Traced {
  ServiceResponse response;
  std::shared_ptr<xtc::Alphabet> alphabet;
  std::vector<Lookup> lookups;
  std::shared_ptr<const CompiledSchema> din, dout;
  std::shared_ptr<const CompiledTransducer> td;
  std::optional<xtc::TypecheckResult> result;
  std::size_t doc_bytes = 0;
  std::size_t spill_bytes = 0;
};

// Counts over the pool's first cycle: deterministic for a given seed.
struct CycleCounts {
  std::uint64_t typechecks = 0;
  std::uint64_t configs = 0, evaluations = 0, product_states = 0;
  std::uint64_t nta_states = 0, pruned = 0;
  std::uint64_t determinized = 0, dfa_states = 0;
  std::uint64_t stream_transforms = 0, spill_bytes = 0;
  xtc::CompileCache::Stats cache_start, cache_end;
};

volatile std::uint64_t g_hash_sink = 0;

class TracedDriver {
 public:
  TracedDriver(Tracer* tracer, const Names& names, TypecheckService* service,
               const TypecheckService::Options& options)
      : tracer_(tracer), n_(names), service_(service), options_(options) {}

  Traced Execute(const ServiceRequest& request, std::uint32_t id);
  // Re-runs the cache's internal steps and the witness check on the same
  // inputs, as separate spans: these are not callable through the cache.
  void Probe(const Traced& traced, std::uint32_t id, CycleCounts* counts);

 private:
  StatusOr<std::shared_ptr<const CompiledSchema>> Schema(
      const xtc::SchemaSpec& spec, Traced* t, std::uint32_t id);
  StatusOr<std::shared_ptr<const CompiledTransducer>> Transducer(
      const xtc::TransducerSpec& spec, Traced* t, std::uint32_t id);
  void Typecheck(const ServiceRequest& request, Traced* t, std::uint32_t id);
  void Document(const ServiceRequest& request, Traced* t, std::uint32_t id);

  Tracer* tracer_;
  const Names& n_;
  TypecheckService* service_;
  const TypecheckService::Options& options_;
};

StatusOr<std::shared_ptr<const CompiledSchema>> TracedDriver::Schema(
    const xtc::SchemaSpec& spec, Traced* t, std::uint32_t id) {
  ScopedSpan span(tracer_, n_.hit, id);
  bool hit = false;
  auto compiled =
      service_->cache().GetOrCompileSchema(spec, t->alphabet, &hit, 0);
  tracer_->Rename(span.id(), hit ? n_.hit : n_.miss);
  {
    Untracked untracked;
    t->lookups.push_back({&spec, nullptr, hit});
  }
  (hit ? t->response.cache_hits : t->response.cache_misses) += 1;
  return compiled;
}

StatusOr<std::shared_ptr<const CompiledTransducer>> TracedDriver::Transducer(
    const xtc::TransducerSpec& spec, Traced* t, std::uint32_t id) {
  ScopedSpan span(tracer_, n_.hit, id);
  bool hit = false;
  auto compiled =
      service_->cache().GetOrCompileTransducer(spec, t->alphabet, &hit, 0);
  tracer_->Rename(span.id(), hit ? n_.hit : n_.miss);
  {
    Untracked untracked;
    t->lookups.push_back({nullptr, &spec, hit});
  }
  (hit ? t->response.cache_hits : t->response.cache_misses) += 1;
  return compiled;
}

Traced TracedDriver::Execute(const ServiceRequest& request, std::uint32_t id) {
  Traced t;
  t.response.id = request.id;
  t.response.op = request.op;
  t.response.attempt = request.attempt;
  StatusOr<std::vector<std::string>> universe = xtc::FailedPreconditionError("unset");
  {
    ScopedSpan span(tracer_, n_.universe, id);
    universe = xtc::CollectUniverse(request);
  }
  if (!universe.ok()) {
    t.response.status = universe.status();
    return t;
  }
  {
    ScopedSpan span(tracer_, n_.alphabet, id);
    t.alphabet = service_->cache().GetOrCreateAlphabet(*universe);
  }
  if (request.op == ServiceOp::kTypecheck) {
    Typecheck(request, &t, id);
  } else {
    Document(request, &t, id);
  }
  return t;
}

// Mirrors the typecheck arm of TypecheckService::Execute for a request with
// no deadline (so no Budget) at the exact tier.
void TracedDriver::Typecheck(const ServiceRequest& request, Traced* t,
                             std::uint32_t id) {
  auto din = Schema(request.din, t, id);
  if (!din.ok()) return void(t->response.status = din.status());
  auto dout = Schema(request.dout, t, id);
  if (!dout.ok()) return void(t->response.status = dout.status());
  auto td = Transducer(request.transducer, t, id);
  if (!td.ok()) return void(t->response.status = td.status());
  t->din = *din;
  t->dout = *dout;
  t->td = *td;

  xtc::TypecheckOptions options;
  options.want_counterexample = request.want_counterexample;
  options.approximate_fallback = request.approximate_fallback;
  const int max_threads =
      options_.max_request_threads > 0 ? options_.max_request_threads : 1;
  options.emptiness_threads = request.threads > max_threads ? max_threads
                              : request.threads > 1         ? request.threads
                                                            : 1;
  options.antichain = request.antichain >= 0 ? request.antichain != 0
                                             : options_.antichain;
  options.dense_threshold = request.dense_threshold > 0
                                ? request.dense_threshold
                                : options_.dense_threshold;
  options.widths = &t->td->widths;
  options.din_determinized = t->din->determinized.get();
  options.dout_determinized = t->dout->determinized.get();

  const bool delrelab = request.engine == xtc::TypecheckEngine::kDelRelab;
  std::string lazy_key;
  std::shared_ptr<const xtc::LazySnapshot> lazy_resume;
  xtc::LazySnapshot lazy_export;
  if (delrelab) {
    ScopedSpan span(tracer_, n_.lazy, id);
    lazy_key = t->din->key + '\x1f' + t->dout->key + '\x1f' + t->td->key +
               '\x1f' + (options.antichain ? '1' : '0');
    lazy_resume = service_->cache().GetLazySnapshot(lazy_key);
    options.lazy_resume = lazy_resume.get();
    options.lazy_export = &lazy_export;
  }
  // The Table 1 cell: DTD(NFA) schemas, whichever engine decides them (the
  // Theorem 20 engine on engine_heavy, trac on the cached determinization
  // on cold_compile); otherwise the engine that runs.
  const int engine = !t->din->dtd->IsDfaDtd() || !t->dout->dtd->IsDfaDtd()
                         ? n_.nfa_dtd
                     : delrelab                  ? n_.relab
                     : t->td->widths.dpw_bounded ? n_.trac
                                                 : n_.replus;
  StatusOr<xtc::TypecheckResult> result = xtc::FailedPreconditionError("unset");
  {
    ScopedSpan span(tracer_, engine, id);
    const xtc::Transducer& tt = *t->td->selector_free;
    result = delrelab ? xtc::TypecheckDelRelab(tt, *t->din->dtd,
                                               *t->dout->dtd, options)
                      : xtc::Typecheck(tt, *t->din->dtd, *t->dout->dtd,
                                       options);
  }
  if (!result.ok()) return void(t->response.status = result.status());
  if (lazy_export.complete) {
    ScopedSpan span(tracer_, n_.lazy, id);
    service_->cache().PutLazySnapshot(
        lazy_key, std::make_shared<xtc::LazySnapshot>(std::move(lazy_export)));
  }
  t->response.typechecks = result->typechecks;
  t->response.approximate = result->approximate;
  t->response.engine_ms = result->stats.elapsed_ms;
  if (result->counterexample != nullptr) {
    ScopedSpan span(tracer_, n_.render, id);
    t->response.counterexample =
        xtc::ToTermString(result->counterexample, *t->alphabet);
  }
  t->result = *std::move(result);
}

// Mirrors the validate/transform arms of Execute and the StreamSession an
// inline-document stream request runs.
void TracedDriver::Document(const ServiceRequest& request, Traced* t,
                            std::uint32_t id) {
  const bool schema_op = request.op == ServiceOp::kValidate ||
                         request.op == ServiceOp::kValidateStream;
  std::shared_ptr<const CompiledSchema> schema;
  std::shared_ptr<const CompiledTransducer> td;
  if (schema_op) {
    auto compiled = Schema(request.schema, t, id);
    if (!compiled.ok()) return void(t->response.status = compiled.status());
    schema = *compiled;
  } else {
    auto compiled = Transducer(request.transducer, t, id);
    if (!compiled.ok()) return void(t->response.status = compiled.status());
    td = *compiled;
  }
  xtc::Alphabet local;
  for (int i = 0; i < t->alphabet->size(); ++i) {
    local.Intern(t->alphabet->Name(i));
  }

  if (request.op == ServiceOp::kValidate ||
      request.op == ServiceOp::kTransform) {
    xtc::Arena arena;
    xtc::TreeBuilder builder(&arena);
    StatusOr<xtc::Node*> tree = xtc::FailedPreconditionError("unset");
    {
      ScopedSpan span(tracer_, n_.tree_parse, id);
      tree = request.format == xtc::DocFormat::kXml
                 ? xtc::ParseXml(request.tree, &local, &builder)
                 : xtc::ParseTerm(request.tree, &local, &builder);
    }
    if (!tree.ok()) return void(t->response.status = tree.status());
    t->doc_bytes = request.tree.size();
    if (request.op == ServiceOp::kValidate) {
      ScopedSpan span(tracer_, n_.validate, id);
      t->response.valid = schema->dtd->Valid(*tree);
      return;
    }
    xtc::Node* output = nullptr;
    {
      ScopedSpan span(tracer_, n_.apply, id);
      output = xtc::Apply(*td->original, *tree, &builder);
    }
    if (output == nullptr) {
      t->response.status = xtc::FailedPreconditionError(
          "transducer output at the root is not a single tree");
      return;
    }
    ScopedSpan span(tracer_, n_.to_xml, id);
    t->response.output = request.format == xtc::DocFormat::kXml
                             ? xtc::ToXml(output, local)
                             : xtc::ToTermString(output, local);
    return;
  }

  // Stream ops: the whole inline document is one chunk.
  t->doc_bytes = request.doc.size();
  ScopedSpan span(tracer_, schema_op ? n_.stream_validate : n_.stream_transform,
                  id);
  xtc::XmlEventReader reader(&local);
  std::optional<xtc::StreamValidator> validator;
  std::string output;
  xtc::StringSink sink(&output);
  std::unique_ptr<xtc::StreamTransducer> transducer;
  if (schema_op) {
    validator.emplace(schema->dtd.get());
  } else {
    auto created = xtc::StreamTransducer::Create(td->selector_free.get(), &sink);
    if (!created.ok()) return void(t->response.status = created.status());
    transducer = *std::move(created);
  }
  auto pump = [&]() -> Status {
    xtc::XmlEvent event;
    while (true) {
      XTC_ASSIGN_OR_RETURN(xtc::XmlEventReader::ReadResult r,
                           reader.Next(&event));
      if (r != xtc::XmlEventReader::ReadResult::kEvent) return Status::Ok();
      XTC_RETURN_IF_ERROR(validator.has_value() ? validator->OnEvent(event)
                                                : transducer->OnEvent(event));
    }
  };
  reader.Push(request.doc);
  Status status = pump();
  if (status.ok()) {
    reader.FinishInput();
    status = pump();
  }
  if (status.ok() && validator.has_value()) {
    t->response.valid = validator->AtEndOfDocument();
  }
  if (status.ok() && transducer != nullptr) {
    status = transducer->Finish();
    t->spill_bytes = transducer->peak_spill_bytes();
    if (status.ok()) t->response.output = std::move(output);
  }
  t->response.status = status;
}

void TracedDriver::Probe(const Traced& t, std::uint32_t id,
                         CycleCounts* counts) {
  for (const Lookup& lookup : t.lookups) {
    std::string key;
    if (lookup.schema != nullptr) {
      StatusOr<xtc::Dtd> skeleton = xtc::FailedPreconditionError("unset");
      {
        ScopedSpan span(tracer_, n_.schema_skeleton, id);
        skeleton = xtc::BuildSchemaSkeleton(*lookup.schema, t.alphabet.get());
      }
      if (!skeleton.ok()) continue;
      {
        ScopedSpan span(tracer_, n_.schema_canonical, id);
        key = xtc::CanonicalDtdText(*skeleton);
      }
      {
        ScopedSpan span(tracer_, n_.hash, id);
        g_hash_sink = g_hash_sink + xtc::HashBytes(key);
      }
      if (lookup.hit) continue;
      {
        ScopedSpan span(tracer_, n_.schema_compile, id);
        (void)skeleton->Compile();
      }
      if (skeleton->IsDfaDtd()) continue;
      ScopedSpan span(tracer_, n_.determinize, id);
      StatusOr<xtc::Dtd> det =
          xtc::DeterminizeDtd(*skeleton, options_.cache.max_dfa_states);
      if (!det.ok()) continue;
      (void)det->Compile();
      if (counts != nullptr) {
        ++counts->determinized;
        for (int s = 0; s < det->num_symbols(); ++s) {
          if (det->HasRule(s)) counts->dfa_states += det->RuleDfa(s).num_states();
        }
      }
      continue;
    }
    StatusOr<xtc::Transducer> skeleton = xtc::FailedPreconditionError("unset");
    {
      ScopedSpan span(tracer_, n_.td_skeleton, id);
      skeleton =
          xtc::BuildTransducerSkeleton(*lookup.transducer, t.alphabet.get());
    }
    if (!skeleton.ok()) continue;
    {
      ScopedSpan span(tracer_, n_.td_canonical, id);
      key = xtc::CanonicalTransducerText(*skeleton);
    }
    {
      ScopedSpan span(tracer_, n_.hash, id);
      g_hash_sink = g_hash_sink + xtc::HashBytes(key);
    }
    if (lookup.hit) continue;
    const xtc::Transducer* selector_free = &*skeleton;
    StatusOr<xtc::Transducer> compiled = xtc::FailedPreconditionError("unset");
    if (skeleton->HasSelectors()) {
      ScopedSpan span(tracer_, n_.compile_selectors, id);
      compiled = xtc::CompileSelectors(*skeleton);
      if (!compiled.ok()) continue;
      selector_free = &*compiled;
    }
    ScopedSpan span(tracer_, n_.widths, id);
    xtc::WidthAnalysis widths = xtc::AnalyzeWidths(*selector_free);
    g_hash_sink = g_hash_sink + widths.deletion_path_width;
  }
  if (t.result.has_value() && t.result->counterexample != nullptr) {
    ScopedSpan span(tracer_, n_.witness_verify, id);
    if (!xtc::VerifyCounterexample(*t.td->selector_free, *t.din->dtd,
                                   *t.dout->dtd, t.result->counterexample)) {
      g_hash_sink = g_hash_sink + 1;
    }
  }
  if (counts == nullptr) return;
  if (t.result.has_value()) {
    const xtc::TypecheckStats& s = t.result->stats;
    ++counts->typechecks;
    counts->configs += s.configs;
    counts->evaluations += s.evaluations;
    counts->product_states += s.product_states;
    counts->nta_states += s.nta_states;
    counts->pruned += s.pruned_configs;
  }
  if (t.response.op == ServiceOp::kTransformStream) {
    ++counts->stream_transforms;
    counts->spill_bytes += t.spill_bytes;
  }
}

double PerCall(const SpanTotals& t, double unit_ns) {
  return t.count == 0 ? 0.0 : t.total_ns / static_cast<double>(t.count) / unit_ns;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

StatusOr<RunResult> RunTraced(const Workload& w, const RunConfig& config) {
  Oracle oracle(w);
  double seconds = 0;
  std::string error;
  // Three services, set up alike and fed the same lines in the same order,
  // so their caches evolve identically:
  //  - `service` serves the traced re-execution;
  //  - `twin` runs the real Process() on the same thread, right before or
  //    after it (alternating), so Process time minus the traced child spans
  //    is what Process does beyond the calls the trace sees;
  //  - `shadow` serves through the worker queue (Submit -> future, one
  //    worker): the round trip minus the response's own elapsed time is the
  //    thread handoff.
  std::unique_ptr<TypecheckService> service =
      SetUp(w, w.service, &oracle, &seconds, &error);
  std::unique_ptr<TypecheckService> twin =
      SetUp(w, w.service, &oracle, &seconds, &error);
  TypecheckService::Options shadow_options = w.service;
  shadow_options.num_threads = 1;
  std::unique_ptr<TypecheckService> shadow =
      SetUp(w, shadow_options, &oracle, &seconds, &error);
  if (!error.empty()) return xtc::FailedPreconditionError(error);

  // The client thread moves to the next CPU of the rotation every 250 ms,
  // as in the untraced run.
  CpuRotation rotation;
  constexpr std::int64_t kTurnNs = 250'000'000;
  int turn = 0;
  rotation.Pin(turn);
  std::int64_t next_turn = NowNs() + kTurnNs;
  auto maybe_turn = [&] {
    if (NowNs() < next_turn) return;
    rotation.Pin(++turn);
    next_turn = NowNs() + kTurnNs;
  };

  Pool pool(w);
  Tracer tracer;
  const Names names(&tracer);
  TracedDriver driver(&tracer, names, service.get(), w.service);
  CycleCounts counts;
  counts.cache_start = service->cache().stats();
  const std::size_t cycle = w.pool.size();

  RunResult result;
  double busy_ns = 0;  // traced requests plus their oracle checks
  double handoff_ns = 0, unattributed_ns = 0;
  double dom_bytes = 0, stream_validate_bytes = 0, stream_transform_bytes = 0;
  std::uint64_t shadowed = 0;
  const std::int64_t traced_deadline =
      NowNs() + static_cast<std::int64_t>(config.seconds * 0.6e9);
  std::size_t i = 0;
  // At least one full cycle, so the cycle counts are complete.
  for (; i < cycle || NowNs() < traced_deadline; ++i) {
    maybe_turn();
    const std::size_t index = i % cycle;
    const PoolLine& item = pool.Next(i);
    const auto id = static_cast<std::uint32_t>(i);
    double process_ns = 0;
    std::string twin_wrong;
    auto run_twin = [&] {
      std::optional<ServiceRequest> request;
      {
        Untracked untracked;
        StatusOr<ServiceRequest> parsed = xtc::ParseServiceRequest(item.line);
        if (!parsed.ok()) return;
        request.emplace(*std::move(parsed));
      }
      const std::int64_t start = ThreadCpuNs();
      ServiceResponse response = twin->Process(*request);
      process_ns = static_cast<double>(ThreadCpuNs() - start);
      Untracked untracked;
      twin_wrong = oracle.Check(item.key, response);
    };
    if (i % 2 == 0) run_twin();
    const std::int64_t a = ThreadCpuNs();
    StatusOr<ServiceRequest> request = xtc::FailedPreconditionError("unset");
    Traced t;
    int root;
    {
      ScopedSpan span(&tracer, names.request, id);
      root = span.id();
      {
        ScopedSpan parse(&tracer, names.parse, id);
        request = xtc::ParseServiceRequest(item.line);
      }
      if (request.ok()) {
        t = driver.Execute(*request, id);
      } else {
        t.response.status = request.status();
      }
      ScopedSpan emit(&tracer, names.emit, id);
      std::string out = t.response.ToJsonLine();
    }
    std::string wrong;
    {
      Untracked untracked;
      ++result.attempted;
      wrong = oracle.Check(item.key, t.response);
    }
    busy_ns += static_cast<double>(ThreadCpuNs() - a);
    if (i % 2 == 1) run_twin();
    if (wrong.empty()) wrong = twin_wrong;
    if (!request.ok()) {
      PrintFailure(w, index, wrong, &result.failed);
      continue;
    }

    // Everything below is outside the traced request's clock. The calls
    // Process itself makes are the request's child spans other than the
    // wire parse and emit.
    double children_ns = 0;
    for (int s = root + 1; s < tracer.size(); ++s) {
      const Span& child = tracer.span(s);
      if (child.parent == root && child.name != names.parse &&
          child.name != names.emit) {
        children_ns += static_cast<double>(child.end_ns - child.start_ns);
      }
    }
    (t.response.op == ServiceOp::kValidateStream ? stream_validate_bytes
     : t.response.op == ServiceOp::kTransformStream
         ? stream_transform_bytes
         : dom_bytes) += static_cast<double>(t.doc_bytes);
    std::optional<ServiceRequest> copy;
    {
      Untracked untracked;
      copy.emplace(*request);
    }
    const std::int64_t submit = NowNs();
    ServiceResponse shadowed_response = shadow->Submit(std::move(*copy)).get();
    const double round_trip = static_cast<double>(NowNs() - submit);
    {
      Untracked untracked;
      if (wrong.empty()) wrong = oracle.Check(item.key, shadowed_response);
    }
    if (!wrong.empty()) PrintFailure(w, index, wrong, &result.failed);
    handoff_ns += round_trip - shadowed_response.elapsed_ms * 1e6;
    unattributed_ns += process_ns - children_ns;
    ++shadowed;
    driver.Probe(t, id, i < cycle ? &counts : nullptr);
    if (i + 1 == cycle) counts.cache_end = service->cache().stats();
  }
  const std::size_t traced = i;
  const std::vector<SpanTotals> totals = tracer.Summarize();
  auto total = [&](int name) { return totals[name]; };

  // Untraced calibration on the same service, continuing the cycle: the
  // overhead is the traced rate against this one.
  std::uint64_t plain = 0;
  const std::int64_t plain_cpu_start = ThreadCpuNs();
  const std::int64_t plain_start = NowNs();
  const std::int64_t plain_deadline =
      plain_start + static_cast<std::int64_t>(config.seconds * 0.4e9);
  std::int64_t plain_end = plain_start;
  for (std::size_t j = traced; plain_end < plain_deadline; ++j) {
    maybe_turn();
    const PoolLine& item = pool.Next(j);
    std::string out;
    ServiceResponse response = Serve(*service, item.line, &out);
    Untracked untracked;
    if (oracle.Check(item.key, response).empty()) ++plain;
    plain_end = NowNs();
  }
  const double traced_rps =
      static_cast<double>(traced - result.failed) / (busy_ns / 1e9);
  const double plain_rps =
      static_cast<double>(plain) /
      (static_cast<double>(ThreadCpuNs() - plain_cpu_start) / 1e9);

  if (!config.trace_out.empty() && !tracer.Write(config.trace_out)) {
    std::printf("# could not write spans to %s\n", config.trace_out.c_str());
  }
  std::printf("# traced requests=%zu spans written to %s\n", traced,
              config.trace_out.c_str());

  const double requests = static_cast<double>(traced);
  const double us = 1e3, ms = 1e6;
  auto sum_allocs = [&](std::initializer_list<int> ids) {
    std::uint64_t n = 0;
    for (int id : ids) n += totals[id].allocs;
    return static_cast<double>(n) / requests;
  };
  auto mean_of = [&](std::initializer_list<int> ids, double unit) {
    double ns = 0;
    std::uint64_t n = 0;
    for (int id : ids) {
      ns += totals[id].total_ns;
      n += totals[id].count;
    }
    return n == 0 ? 0.0 : ns / static_cast<double>(n) / unit;
  };
  auto rate_mb_s = [&](int name, double bytes) {
    return Ratio(bytes / (1 << 20), total(name).total_ns / 1e9);
  };
  const auto& c0 = counts.cache_start;
  const auto& c1 = counts.cache_end;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  const double tc = static_cast<double>(counts.typechecks);
  result.correct = result.failed == 0;
  result.metrics = {
      {"trace.overhead_frac", Ratio(traced_rps, plain_rps) - 1, "ratio"},
      {"service.wire.parse_us", PerCall(total(names.parse), us), "us"},
      {"service.wire.emit_us", PerCall(total(names.emit), us), "us"},
      {"service.universe_us", PerCall(total(names.universe), us), "us"},
      {"service.cache.alphabet_us", PerCall(total(names.alphabet), us), "us"},
      {"service.cache.hit_us", PerCall(total(names.hit), us), "us"},
      {"service.cache.miss_ms", PerCall(total(names.miss), ms), "ms"},
      {"schema.skeleton_us",
       mean_of({names.schema_skeleton, names.td_skeleton}, us), "us"},
      {"schema.canonical_us", PerCall(total(names.schema_canonical), us), "us"},
      {"td.canonical_us", PerCall(total(names.td_canonical), us), "us"},
      {"base.hash_us", PerCall(total(names.hash), us), "us"},
      {"service.cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      // Entries dropped, by byte-budget LRU or by a universe eviction's
      // cascade: every artifact miss inserts one entry, and so does every
      // lazy-table miss (each run it follows completes and is kept).
      {"service.cache.evictions",
       Ratio(misses + static_cast<double>(c1.lazy_misses - c0.lazy_misses) -
                 (static_cast<double>(c1.entries) -
                  static_cast<double>(c0.entries)),
             static_cast<double>(cycle)),
       "count/req"},
      {"service.cache.bytes", static_cast<double>(c1.bytes), "B"},
      {"service.unattributed_us", Ratio(unattributed_ns, shadowed) / us, "us"},
      {"service.handoff_us", Ratio(handoff_ns, shadowed) / us, "us"},
      {"schema.compile_ms", PerCall(total(names.schema_compile), ms), "ms"},
      {"core.determinize_ms", PerCall(total(names.determinize), ms), "ms"},
      {"core.determinize_dfa_states",
       Ratio(static_cast<double>(counts.dfa_states),
             static_cast<double>(counts.determinized)),
       "count"},
      {"td.compile_selectors_ms", PerCall(total(names.compile_selectors), ms),
       "ms"},
      {"td.widths_ms", PerCall(total(names.widths), ms), "ms"},
      {"core.typecheck.trac_ms", PerCall(total(names.trac), ms), "ms"},
      {"core.typecheck.replus_ms", PerCall(total(names.replus), ms), "ms"},
      {"core.typecheck.nfa_dtd_ms", PerCall(total(names.nfa_dtd), ms), "ms"},
      {"core.typecheck.relab_ms", PerCall(total(names.relab), ms), "ms"},
      {"core.configs", Ratio(static_cast<double>(counts.configs), tc),
       "count/req"},
      {"core.evaluations", Ratio(static_cast<double>(counts.evaluations), tc),
       "count/req"},
      {"core.product_states",
       Ratio(static_cast<double>(counts.product_states), tc), "count/req"},
      {"core.nta_states", Ratio(static_cast<double>(counts.nta_states), tc),
       "count/req"},
      {"nta.pruned_ratio",
       Ratio(static_cast<double>(counts.pruned),
             static_cast<double>(counts.configs + counts.pruned)),
       "ratio"},
      {"core.witness_verify_us", PerCall(total(names.witness_verify), us),
       "us"},
      {"tree.render_us", PerCall(total(names.render), us), "us"},
      {"tree.parse_mb_s", rate_mb_s(names.tree_parse, dom_bytes), "MiB/s"},
      {"schema.validate_ms", PerCall(total(names.validate), ms), "ms"},
      {"td.apply_ms", PerCall(total(names.apply), ms), "ms"},
      {"tree.to_xml_ms", PerCall(total(names.to_xml), ms), "ms"},
      {"stream.validate_mb_s",
       rate_mb_s(names.stream_validate, stream_validate_bytes), "MiB/s"},
      {"stream.transform_mb_s",
       rate_mb_s(names.stream_transform, stream_transform_bytes), "MiB/s"},
      {"stream.spill_bytes",
       Ratio(static_cast<double>(counts.spill_bytes),
             static_cast<double>(counts.stream_transforms)),
       "B"},
      {"service.wire.allocs", sum_allocs({names.parse, names.emit}), "allocs/req"},
      {"service.universe.allocs", sum_allocs({names.universe}), "allocs/req"},
      {"service.cache.allocs",
       sum_allocs({names.alphabet, names.hit, names.miss, names.lazy}),
       "allocs/req"},
      {"service.envelope.allocs", sum_allocs({names.request}), "allocs/req"},
      {"compile.allocs",
       sum_allocs({names.schema_compile, names.determinize,
                   names.compile_selectors, names.widths}),
       "allocs/req"},
      {"core.allocs",
       sum_allocs({names.trac, names.replus, names.nfa_dtd, names.relab}),
       "allocs/req"},
      {"witness.allocs", sum_allocs({names.render, names.witness_verify}),
       "allocs/req"},
      {"documents.allocs",
       sum_allocs({names.tree_parse, names.validate, names.apply, names.to_xml,
                   names.stream_validate, names.stream_transform}),
       "allocs/req"},
  };
  return result;
}

}  // namespace xbench
