#include "trace.h"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "alloc_count.h"

namespace xbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Tracer::Name(const std::string& name) {
  Untracked untracked;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int Tracer::Open(int name, std::uint32_t request) {
  Span* span;
  int id;
  {
    Untracked untracked;
    id = static_cast<int>(spans_.size());
    span = &spans_.emplace_back();
    span->name = name;
    span->request = request;
    span->parent = open_.empty() ? -1 : open_.back();
    open_.push_back(id);
  }
  SetAllocSink(&span->allocs);
  span->start_ns = ThreadCpuNs();
  return id;
}

void Tracer::Close(int id) {
  Span& span = spans_[id];
  span.end_ns = ThreadCpuNs();
  open_.pop_back();
  SetAllocSink(open_.empty() ? nullptr : &spans_[open_.back()].allocs);
}

std::vector<SpanTotals> Tracer::Summarize() const {
  Untracked untracked;
  std::vector<SpanTotals> totals(names_.size());
  for (const Span& span : spans_) {
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += static_cast<double>(span.end_ns - span.start_ns);
    t.allocs += span.allocs;
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("request\tname\tstart_ns\tend_ns\tparent\tallocs\n", f);
  for (const Span& span : spans_) {
    std::fprintf(f, "%u\t%s\t%lld\t%lld\t%d\t%llu\n", span.request,
                 names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.allocs));
  }
  return std::fclose(f) == 0;
}

}  // namespace xbench
