// In-memory spans for the traced run. A span records a name, start and end
// (the client thread's CPU clock, ns), its parent span and the request it
// belongs to, plus the tracked heap allocations made while it was the
// innermost open span.
// Spans are kept in memory and written out once, when the run ends.
#ifndef XTCBENCH_TRACE_H_
#define XTCBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace xbench {

std::int64_t NowNs();
/// CPU time the calling thread has consumed.
std::int64_t ThreadCpuNs();

struct Span {
  int name = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  std::uint32_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
};

/// Per-name totals over every closed span of that name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< sum of durations
  std::uint64_t allocs = 0;
};

/// Single-thread span recorder (the benchmark drives the service from one
/// client thread). Its own storage is allocated untracked.
class Tracer {
 public:
  int Name(const std::string& name);

  int Open(int name, std::uint32_t request);
  void Close(int span);
  void Rename(int span, int name) { spans_[span].name = name; }
  const Span& span(int id) const { return spans_[id]; }
  int size() const { return static_cast<int>(spans_.size()); }

  /// Totals per name id, over all spans recorded so far.
  std::vector<SpanTotals> Summarize() const;
  /// Writes one tab-separated line per span: request, name, start_ns,
  /// end_ns, parent, allocs. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::deque<Span> spans_;  ///< stable addresses: the alloc sink points in
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name, std::uint32_t request)
      : tracer_(tracer), span_(tracer->Open(name, request)) {}
  ~ScopedSpan() { tracer_->Close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace xbench

#endif  // XTCBENCH_TRACE_H_
