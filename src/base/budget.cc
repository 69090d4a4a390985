#include "src/base/budget.h"

#include <string>

namespace xtc {

const char* ExhaustionCauseName(ExhaustionCause cause) {
  switch (cause) {
    case ExhaustionCause::kNone:
      return "none";
    case ExhaustionCause::kDeadline:
      return "deadline";
    case ExhaustionCause::kSteps:
      return "steps";
    case ExhaustionCause::kBytes:
      return "bytes";
    case ExhaustionCause::kInjected:
      return "injected";
  }
  return "unknown";
}

Budget Budget::WithDeadline(std::chrono::milliseconds deadline) {
  Budget b;
  b.set_deadline(deadline);
  return b;
}

Budget Budget::WithMaxSteps(std::uint64_t steps) {
  Budget b;
  b.set_max_steps(steps);
  return b;
}

Budget Budget::WithMaxBytes(std::uint64_t bytes) {
  Budget b;
  b.set_max_bytes(bytes);
  return b;
}

void Budget::set_deadline(std::chrono::milliseconds deadline) {
  start_ = std::chrono::steady_clock::now();
  deadline_at_ = start_ + deadline;
}

void Budget::set_deadline_until(std::chrono::steady_clock::time_point at) {
  start_ = std::chrono::steady_clock::now();
  deadline_at_ = at;
}

std::optional<double> Budget::remaining_ms() const {
  if (!deadline_at_.has_value()) return std::nullopt;
  double left = std::chrono::duration<double, std::milli>(
                    *deadline_at_ - std::chrono::steady_clock::now())
                    .count();
  return left > 0 ? left : 0;
}

double Budget::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

Status Budget::Exhaust(ExhaustionCause cause, const char* where) {
  cause_ = cause;
  exhausted_status_ = ResourceExhaustedError(
      std::string("budget exhausted (") + ExhaustionCauseName(cause) +
      ") in " + where + " after " + std::to_string(checkpoints_) +
      " checkpoints, " + std::to_string(bytes_charged_) + " bytes");
  return exhausted_status_;
}

Status Budget::Check(const char* where) {
  if (cause_ != ExhaustionCause::kNone) return exhausted_status_;
  ++checkpoints_;
  if (fail_at_ != 0 && checkpoints_ == fail_at_) {
    return Exhaust(ExhaustionCause::kInjected, where);
  }
  if (max_steps_ != 0 && checkpoints_ > max_steps_) {
    return Exhaust(ExhaustionCause::kSteps, where);
  }
  if (max_bytes_ != 0 && bytes_charged_ > max_bytes_) {
    return Exhaust(ExhaustionCause::kBytes, where);
  }
  if (deadline_at_.has_value() && (checkpoints_ % kClockStride) == 0 &&
      std::chrono::steady_clock::now() > *deadline_at_) {
    return Exhaust(ExhaustionCause::kDeadline, where);
  }
  return Status::Ok();
}

}  // namespace xtc
