/**
 * @file
 * Non-throwing error channel for the compile pipeline: `Status` carries
 * an error code + message, `StatusOr<T>` carries either a value or the
 * `Status` explaining why there is none.
 *
 * The library's logging layer (`fatal`/`panic`) still handles internal
 * invariant violations; `Status` is for *reportable* stage outcomes --
 * an infeasible allocation or an unroutable netlist is data the caller
 * may want to sweep past, not a reason to kill the process.
 */

#ifndef FPSA_COMMON_STATUS_HH
#define FPSA_COMMON_STATUS_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace fpsa
{

/** Machine-readable failure category. */
enum class StatusCode
{
    Ok,
    InvalidArgument, //!< the request can never succeed (bad graph/option)
    Infeasible,      //!< resources cannot satisfy the request
    Unroutable,      //!< PnR congestion was not negotiated away
    Internal,        //!< a stage produced an inconsistent artifact
    Unavailable,     //!< the serving runtime rejected the request
                     //!< (engine shut down / queue closed); retryable
                     //!< against another engine, unlike InvalidArgument
    DeadlineExceeded, //!< the request's time budget ran out before it
                      //!< could be (re)served; retrying it would only
                      //!< serve an answer nobody is waiting for
    ResourceExhausted, //!< transient backpressure (a full queue): the
                       //!< target is healthy but busy, so wait and
                       //!< resubmit rather than fail over elsewhere
};

const char *statusCodeName(StatusCode code);

/** An error code plus human-readable context; default is OK. */
class Status
{
  public:
    Status() = default;

    static Status
    error(StatusCode code, std::string message)
    {
        Status s;
        s.code_ = code;
        s.message_ = std::move(message);
        return s;
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "OK" or "<code>: <message>". */
    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

    bool
    operator==(const Status &other) const
    {
        return code_ == other.code_ && message_ == other.message_;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** One option's value and its inclusive legal range. */
struct OptionBound
{
    const char *name;
    std::int64_t value, lo, hi;
};

/** `InvalidArgument` naming the first value outside its bound. */
Status checkOptionBounds(std::initializer_list<OptionBound> bounds);

/** Either a T or the Status explaining its absence. */
template <typename T>
class StatusOr
{
  public:
    /** Implicit from a value: an OK result. */
    StatusOr(T value) : value_(std::move(value)) {}

    /** Implicit from a non-OK status (panics on an OK one). */
    StatusOr(Status status) : status_(std::move(status))
    {
        fpsa_assert(!status_.ok(),
                    "StatusOr constructed from an OK status without a "
                    "value");
    }

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        fpsa_assert(ok(), "value() on error status: %s",
                    status_.toString().c_str());
        return *value_;
    }

    T &
    value() &
    {
        fpsa_assert(ok(), "value() on error status: %s",
                    status_.toString().c_str());
        return *value_;
    }

    T &&
    value() &&
    {
        fpsa_assert(ok(), "value() on error status: %s",
                    status_.toString().c_str());
        return *std::move(value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace fpsa

#endif // FPSA_COMMON_STATUS_HH
