#ifndef XTC_BASE_STATUS_H_
#define XTC_BASE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/base/logging.h"

namespace xtc {

/// Error category for recoverable failures (parsing, ill-formed inputs,
/// out-of-scope requests). Library code never throws; fallible operations
/// return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kUnimplemented,
  kFailedPrecondition,
  kNotFound,
  kResourceExhausted,
  kInternal,  ///< a broken internal invariant (a bug), not a bad input
};

/// A success-or-error value in the style of absl::Status.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "INVALID_ARGUMENT: unbalanced ')'".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

Status InvalidArgumentError(std::string message);
Status OutOfRangeError(std::string message);
Status UnimplementedError(std::string message);
Status FailedPreconditionError(std::string message);
Status NotFoundError(std::string message);
Status ResourceExhaustedError(std::string message);
Status InternalError(std::string message);

/// Either a value of type T or an error Status. Minimal analogue of
/// absl::StatusOr for this project.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    XTC_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    XTC_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    XTC_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    XTC_CHECK_MSG(ok(), status_.ToString().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Evaluates an expression returning Status and propagates any error to the
// caller. Replaces hand-rolled `Status s = ...; if (!s.ok()) return s;`
// chains.
#define XTC_RETURN_IF_ERROR(expr)                        \
  do {                                                   \
    ::xtc::Status xtc_status_macro_tmp_ = (expr);        \
    if (!xtc_status_macro_tmp_.ok()) {                   \
      return xtc_status_macro_tmp_;                      \
    }                                                    \
  } while (0)

// Evaluates an expression returning StatusOr<T>; on success moves the value
// into `lhs` (a declaration or an existing lvalue), on error propagates the
// Status. Usage: XTC_ASSIGN_OR_RETURN(Dfa det, Dfa::FromNfa(nfa, budget));
#define XTC_STATUS_MACROS_CONCAT_INNER_(x, y) x##y
#define XTC_STATUS_MACROS_CONCAT_(x, y) \
  XTC_STATUS_MACROS_CONCAT_INNER_(x, y)

#define XTC_ASSIGN_OR_RETURN(lhs, rexpr)                                     \
  XTC_ASSIGN_OR_RETURN_IMPL_(                                                \
      XTC_STATUS_MACROS_CONCAT_(xtc_status_or_tmp_, __LINE__), lhs, rexpr)

#define XTC_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                               \
  if (!statusor.ok()) {                                  \
    return statusor.status();                            \
  }                                                      \
  lhs = *std::move(statusor)

}  // namespace xtc

#endif  // XTC_BASE_STATUS_H_
