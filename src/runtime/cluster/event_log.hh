/**
 * @file
 * `fpsa::EventLog<T>`: a fixed-capacity ring of control-loop events.
 *
 * The cluster's control loop (`ClusterController`) records every
 * event of its ticks.  The loop runs for the life of the process, so
 * an unbounded history is a slow leak; the log instead
 * keeps the most recent `capacity` events and counts the total ever
 * recorded.  `snapshot()` returns the retained events oldest-first --
 * the same order an unbounded vector would have -- so existing
 * history-inspection code is unaffected until it scrolls.
 *
 * Not internally synchronized: callers guard it with the same mutex
 * that serializes their control loop.
 */

#ifndef FPSA_RUNTIME_CLUSTER_EVENT_LOG_HH
#define FPSA_RUNTIME_CLUSTER_EVENT_LOG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fpsa
{

/** Bounded, oldest-first event history for a control loop. */
template <typename EventT>
class EventLog
{
  public:
    explicit EventLog(std::size_t capacity)
        : capacity_(capacity > 0 ? capacity : 1)
    {
    }

    std::size_t capacity() const { return capacity_; }

    /** Events currently retained (<= capacity). */
    std::size_t size() const { return ring_.size(); }

    /** Events ever recorded, including evicted ones. */
    std::int64_t totalRecorded() const { return total_; }

    void
    push(EventT event)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(std::move(event));
        } else {
            ring_[next_] = std::move(event);
            next_ = (next_ + 1) % capacity_;
        }
        ++total_;
    }

    /** Retained events, oldest first. */
    std::vector<EventT>
    snapshot() const
    {
        std::vector<EventT> out;
        out.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(ring_[(next_ + i) % ring_.size()]);
        return out;
    }

  private:
    std::size_t capacity_;
    std::vector<EventT> ring_; //!< grows to capacity, then wraps
    std::size_t next_ = 0;     //!< oldest slot once the ring is full
    std::int64_t total_ = 0;
};

} // namespace fpsa

#endif // FPSA_RUNTIME_CLUSTER_EVENT_LOG_HH
