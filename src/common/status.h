// Minimal Status / StatusOr for public-API validation errors.
//
// Internal invariants use RTQ_CHECK (check.h); Status is reserved for
// errors a caller can plausibly cause (bad configuration, out-of-range
// parameters) and is returned from constructors' factory functions.

#ifndef RTQ_COMMON_STATUS_H_
#define RTQ_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace rtq {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kInternal,
};

/// Value-semantic error carrier. Cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: num_disks must be > 0".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value or an error. Accessing value() on an error aborts.
/// T need not be default-constructible.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {      // NOLINT
    RTQ_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    RTQ_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    RTQ_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    RTQ_CHECK_MSG(ok(), status_.ToString().c_str());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

#define RTQ_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::rtq::Status _rtq_status = (expr);      \
    if (!_rtq_status.ok()) return _rtq_status; \
  } while (0)

}  // namespace rtq

#endif  // RTQ_COMMON_STATUS_H_
