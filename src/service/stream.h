#ifndef XTC_SERVICE_STREAM_H_
#define XTC_SERVICE_STREAM_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/fa/alphabet.h"
#include "src/service/compile_cache.h"
#include "src/service/request.h"
#include "src/service/service.h"
#include "src/stream/event_reader.h"
#include "src/stream/transform.h"
#include "src/stream/validate.h"

namespace xtc {

/// One open streaming request (validate_stream / transform_stream): wire
/// chunks in, one ServiceResponse out, O(depth) working memory end to end.
///
/// Sessions are created by TypecheckService::OpenStream (the xtcd chunk
/// transport) or internally by Execute for inline-doc stream requests; both
/// run on the *caller's* thread — a stream cannot sit in the worker queue
/// because its bytes arrive interactively. Compilation still goes through
/// the shared CompileCache and the per-request Budget is anchored at open,
/// so a slow client burns its own deadline, not a worker.
///
/// Setup errors (shed, bad schema, budget) latch: Push becomes a no-op and
/// Finish returns the well-formed error response — the transport can always
/// pump remaining chunk lines without special-casing, keeping the NDJSON
/// framing intact. Finish is idempotent; an abandoned session records its
/// response at destruction so service stats never lose a request. The
/// session borrows the service and must not outlive it.
///
/// Thread-compatibility: single-thread, like the Budget it owns.
class StreamSession {
 public:
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Feeds the next slice of the document's XML text. Events are parsed
  /// and executed as they complete; errors latch into the final response.
  void Push(std::string_view chunk);

  /// Ends the document and returns the response (idempotent; later Push
  /// calls are ignored).
  ServiceResponse Finish();

  /// The error the session has latched so far (ok while healthy). Lets a
  /// transport stop reading chunks early if it wants to; not required.
  const Status& stream_status() const { return latched_; }

  bool finished() const { return finished_; }

 private:
  friend class TypecheckService;

  StreamSession(TypecheckService* service, const ServiceRequest& request,
                std::chrono::steady_clock::time_point admit_time);
  /// A session that was shed (or otherwise failed) before setup: Push is a
  /// no-op, Finish returns `response` as-is. `record` controls whether
  /// Finish counts completion stats (sheds were already counted).
  StreamSession(TypecheckService* service, ServiceResponse response,
                bool record);

  void Pump();
  void Latch(Status status);
  bool Injected(const char* checkpoint);

  TypecheckService* service_;
  ServiceResponse response_;
  WallTimer timer_;
  Budget budget_;
  Budget* budget_ptr_ = nullptr;
  std::shared_ptr<Alphabet> universe_;
  std::shared_ptr<const CompiledSchema> schema_;
  std::shared_ptr<const CompiledTransducer> compiled_transducer_;
  Alphabet local_;  ///< request-private, seeded with the universe
  std::optional<XmlEventReader> reader_;
  std::optional<StreamValidator> validator_;
  std::string output_;
  std::optional<StringSink> sink_;
  std::unique_ptr<StreamTransducer> transducer_;
  Status latched_ = Status::Ok();
  bool finished_ = false;
  bool record_ = true;  ///< count completed/failed + latency at Finish
  bool holds_stream_slot_ = false;  ///< counted against max_open_streams
};

}  // namespace xtc

#endif  // XTC_SERVICE_STREAM_H_
