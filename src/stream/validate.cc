#include "src/stream/validate.h"

namespace xtc {

StreamValidator::StreamValidator(const Dtd* dtd)
    : StreamValidator(dtd, Options()) {}

StreamValidator::StreamValidator(const Dtd* dtd, const Options& options)
    : dtd_(dtd), gate_(options.budget) {}

Status StreamValidator::OnEvent(const XmlEvent& event) {
  ++events_;
  XTC_RETURN_IF_ERROR(gate_.Poll("StreamValidator"));
  if (invalid_) {
    // Keep the depth bookkeeping honest so a caller can still observe
    // document structure, but never touch another DFA.
    if (event.kind == XmlEventKind::kStartElement) {
      ++skip_depth_;
    } else if (skip_depth_ > 0) {
      --skip_depth_;
    } else if (!frames_.empty()) {
      frames_.pop_back();
    }
    return Status::Ok();
  }
  if (event.kind == XmlEventKind::kStartElement) {
    if (event.label < 0 || event.label >= dtd_->num_symbols()) {
      invalid_ = true;
      ++skip_depth_;
      return Status::Ok();
    }
    if (frames_.empty()) {
      if (root_seen_ || event.label != dtd_->start()) {
        // A second root never arrives from a well-formed reader, but a
        // caller driving events by hand gets the same verdict Valid gives.
        invalid_ = true;
        ++skip_depth_;
        return Status::Ok();
      }
      root_seen_ = true;
    } else {
      // Advance the parent's content model by this child's label on the
      // rule DFA's complete view: a violated rule parks in the non-final
      // sink that the parent's kEndElement check rejects.
      Frame& parent = frames_.back();
      parent.state = parent.dfa->StepComplete(parent.state, event.label);
    }
    const Dfa& rule = dtd_->RuleDfa(event.label);
    frames_.push_back(Frame{&rule, rule.initial()});
    if (static_cast<int>(frames_.size()) > peak_depth_) {
      peak_depth_ = static_cast<int>(frames_.size());
    }
  } else {
    if (frames_.empty()) {
      invalid_ = true;  // unbalanced end from a hand-driven caller
      return Status::Ok();
    }
    Frame& top = frames_.back();
    if (!top.dfa->final(top.state)) {
      invalid_ = true;
    }
    frames_.pop_back();
    if (frames_.empty() && !invalid_) root_completed_ = true;
  }
  return Status::Ok();
}

}  // namespace xtc
