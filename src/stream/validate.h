#ifndef XTC_STREAM_VALIDATE_H_
#define XTC_STREAM_VALIDATE_H_

#include <cstdint>
#include <vector>

#include "src/base/budget.h"
#include "src/base/status.h"
#include "src/schema/dtd.h"
#include "src/stream/event_reader.h"

namespace xtc {

/// Streaming DTD validation (Definition 1) over an XML event stream: one
/// content-model DFA state per open element (on the rule DFA's complete
/// view, so a violation parks in the sink), advanced by each
/// child's label at kStartElement and required to be accepting at
/// kEndElement. Working memory is the frame stack — O(depth), independent
/// of document size — which is the whole point: the DOM path's ceiling is
/// the document, this engine's is the schema.
///
/// Verdict semantics mirror Dtd::Valid byte for byte: the root label must
/// equal the start symbol, every node's child string must match its rule,
/// and labels outside [0, num_symbols) (i.e. document labels past the
/// request universe) invalidate. Schema violations latch `valid() == false`
/// and stop all DFA work, but feeding may continue so the surrounding
/// reader still enforces well-formedness; only budget exhaustion surfaces
/// as a non-ok Status.
///
/// The Dtd must be Compile()d (RuleDfa is a pure read only then);
/// cached service artifacts always are. Thread-compatibility:
/// single-thread, like the Budget.
class StreamValidator {
 public:
  struct Options {
    /// Optional governor, checkpointed per event (gated). Borrowed.
    Budget* budget = nullptr;
  };

  explicit StreamValidator(const Dtd* dtd);
  StreamValidator(const Dtd* dtd, const Options& options);

  /// Feeds one event. Returns non-ok only on budget exhaustion (sticky).
  Status OnEvent(const XmlEvent& event);

  /// Whether everything fed so far still satisfies the DTD. The final
  /// verdict additionally requires the root to have closed: call
  /// AtEndOfDocument() once the reader reports kEndOfDocument.
  bool valid() const { return !invalid_; }

  /// The document-complete verdict (root seen, root closed, all matched).
  bool AtEndOfDocument() const {
    return !invalid_ && root_completed_;
  }

  /// Frames currently held (== open elements); peak is the O(depth) bound.
  int depth() const { return static_cast<int>(frames_.size()); }
  int peak_depth() const { return peak_depth_; }
  std::uint64_t events() const { return events_; }

 private:
  struct Frame {
    const Dfa* dfa;  ///< content-model DFA of this element, run complete
    int state;       ///< after the children seen so far; may be the sink
  };

  const Dtd* dtd_;
  BudgetGate gate_;
  std::vector<Frame> frames_;
  bool invalid_ = false;
  bool root_seen_ = false;
  bool root_completed_ = false;
  int skip_depth_ = 0;  ///< open elements below an invalidating frame
  int peak_depth_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace xtc

#endif  // XTC_STREAM_VALIDATE_H_
