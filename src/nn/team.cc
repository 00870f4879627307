#include "nn/team.hh"

#include "common/logging.hh"

namespace fpsa
{

HelperPool::HelperPool(int lanes)
    : laneCount_(std::max(1, lanes)),
      lanes_(new Lane[static_cast<std::size_t>(laneCount_)])
{
    for (int i = 0; i < laneCount_; ++i)
        lanes_[i].pool_ = this;
    helpers_.reserve(static_cast<std::size_t>(laneCount_ - 1));
    for (int i = 1; i < laneCount_; ++i)
        helpers_.emplace_back([this] { helperLoop(); });
}

HelperPool::~HelperPool()
{
    stop();
}

void
HelperPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &helper : helpers_)
        helper.join();
}

void
HelperPool::Lane::enter()
{
    fpsa_assert(!entered_, "HelperPool: lane entered twice");
    entered_ = true;
    std::lock_guard<std::mutex> lock(pool_->mu_);
    ++pool_->busy_;
}

void
HelperPool::Lane::leave()
{
    fpsa_assert(entered_, "HelperPool: lane left without entering");
    entered_ = false;
    std::lock_guard<std::mutex> lock(pool_->mu_);
    --pool_->busy_;
}

void
HelperPool::Lane::run(SplitJob &job)
{
    fpsa_assert(entered_, "HelperPool: run outside enter/leave");
    HelperPool &pool = *pool_;
    int want = 0;
    {
        std::lock_guard<std::mutex> lock(pool.mu_);
        if (!pool.stopping_) {
            want = std::min(job.maxChunks() - 1,
                            pool.laneCount_ - pool.busy_ - pool.lent_);
            want = std::max(0, want);
        }
        job.partition(1 + want);
        if (want > 0) {
            job_ = &job;
            wanted_ = want;
            pool.lent_ += want;
            pool.pending_ += want;
        }
    }
    for (int i = 0; i < want; ++i)
        pool.wake_.notify_one();

    job.drain();
    if (want == 0)
        return;

    // Every chunk is claimed.  Withdraw the recruits no helper took, so
    // that a late helper finds nothing to join, then wait for the
    // helpers still inside the job: each is finishing a chunk it
    // claimed, which is never longer than one chunk.  The wait blocks
    // (after a short spin) instead of burning this core.
    {
        std::lock_guard<std::mutex> lock(pool.mu_);
        pool.lent_ -= wanted_;
        pool.pending_ -= wanted_;
        wanted_ = 0;
        job_ = nullptr;
    }
    for (int joined = joined_.load(std::memory_order_acquire); joined > 0;
         joined = joined_.load(std::memory_order_acquire))
        joined_.wait(joined, std::memory_order_acquire);
}

void
HelperPool::helperLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wake_.wait(lock, [this] { return stopping_ || pending_ > 0; });
        if (pending_ == 0)
            return; // stopping, and nothing posted
        Lane *lane = nullptr;
        for (int i = 0; i < laneCount_ && lane == nullptr; ++i) {
            if (lanes_[i].wanted_ > 0)
                lane = &lanes_[i];
        }
        --lane->wanted_;
        --pending_;
        // Joined under the lock: the lane's withdrawal (also under the
        // lock) either precedes this and left nothing to take, or
        // follows it and then waits for this helper.
        lane->joined_.fetch_add(1, std::memory_order_relaxed);
        SplitJob *job = lane->job_;
        lock.unlock();
        helperChunks_.fetch_add(job->drain(), std::memory_order_relaxed);
        lane->joined_.fetch_sub(1, std::memory_order_release);
        lane->joined_.notify_one();
        lock.lock();
        --lent_;
    }
}

} // namespace fpsa
