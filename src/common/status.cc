#include "common/status.hh"

namespace fpsa
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::Infeasible: return "INFEASIBLE";
      case StatusCode::Unroutable: return "UNROUTABLE";
      case StatusCode::Internal: return "INTERNAL";
      case StatusCode::Unavailable: return "UNAVAILABLE";
      case StatusCode::DeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::ResourceExhausted: return "RESOURCE_EXHAUSTED";
    }
    return "UNKNOWN";
}

Status
checkOptionBounds(std::initializer_list<OptionBound> bounds)
{
    for (const OptionBound &b : bounds) {
        if (b.value < b.lo || b.value > b.hi) {
            return Status::error(
                StatusCode::InvalidArgument,
                std::string("option ") + b.name + " must be in [" +
                    std::to_string(b.lo) + ", " + std::to_string(b.hi) +
                    "], got " + std::to_string(b.value));
        }
    }
    return Status();
}

} // namespace fpsa
