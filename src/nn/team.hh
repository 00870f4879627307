/**
 * @file
 * Fork-join teams for the planned data path: how an executing plan
 * borrows idle threads to split one layer across them, the way FPSA's
 * mapper duplicates a slow layer so that its columns run on parallel
 * PEs.
 *
 * A `SplitJob` is one layer's work cut into independent chunks: GEMM
 * output columns, after a first phase of im2col (or quantize) channel
 * blocks.  The caller and every helper that joins claim chunks from
 * one atomic counter, so a helper that is slow to wake costs nothing:
 * the caller runs the chunks nobody claimed and waits only for chunks
 * a helper already claimed.  A chunk writes only its own slice of the output,
 * and the kernels' determinism contract (tensor/kernels.hh) makes a
 * column's bits independent of the call width, so a split layer is
 * bit-identical to the unsplit one.
 *
 * A `PlanTeam` runs jobs.  `HelperPool` is the one implementation: a
 * fixed set of parked helper threads shared by up to `lanes` callers
 * (an `Engine`'s workers), each caller owning one `Lane`.  A lane
 * recruits only helpers no other lane holds, and only as many as
 * leave the busy callers plus the lent helpers within `lanes`
 * threads, so splitting never oversubscribes the pool's share of
 * cores.  Task slots are preallocated and nothing on the run path
 * allocates or goes through `std::function`.
 */

#ifndef FPSA_NN_TEAM_HH
#define FPSA_NN_TEAM_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fpsa
{

/**
 * An index range a job cuts into chunks: runs of whole `grain`-index
 * units, each at least `minUnits` units long, the last also taking
 * the `size % grain` remainder.  GEMM columns use grain 16 and 4
 * units (chunks of 64+ columns, 16-aligned so that every chunk but
 * the last fills whole register tiles); channel ranges use grain 1.
 */
struct SplitRange
{
    std::int64_t size = 0;
    std::int64_t grain = 1;
    std::int64_t minUnits = 1;

    /** Most chunks the range allows; 0 for an empty range. */
    int
    maxChunks() const
    {
        if (size <= 0)
            return 0;
        return static_cast<int>(std::clamp<std::int64_t>(
            size / grain / minUnits, 1, std::numeric_limits<int>::max()));
    }

    /** First index of chunk `chunk` of `chunks` (`size` past the end). */
    std::int64_t
    bound(int chunk, int chunks) const
    {
        return chunk == chunks ? size
                               : grain * (size / grain * chunk / chunks);
    }
};

/**
 * One fork-join job of one or two phases: each phase is a range of
 * independent chunks, and every chunk of the first phase finishes
 * before any chunk of the second starts (a conv's im2col, then its
 * GEMM).  All chunks are claimed in order from one atomic counter, so
 * a thread that claims a second-phase chunk waits only for
 * first-phase chunks that are already claimed and running.  A helper
 * that joins late simply starts further along.
 */
class SplitJob
{
  public:
    SplitJob(int maxFirst, int maxSecond) : max_{maxFirst, maxSecond} {}

    /** Most threads the job can use; 1 means "do not split". */
    int maxChunks() const { return std::max(max_[0], max_[1]); }

    /**
     * Cut each phase for `participants` threads: one chunk for a lone
     * caller, else two chunks each, as the phase allows, rounded down
     * to a multiple of `participants` so that the shares stay even.
     * Call once, before `drain`.
     */
    void
    partition(int participants)
    {
        for (int p = 0; p < 2; ++p) {
            int chunks = std::min(max_[p], 2 * participants);
            if (participants == 1)
                chunks = std::min(chunks, 1);
            else if (chunks > participants)
                chunks -= chunks % participants;
            chunks_[p] = chunks;
        }
    }

    /**
     * Claim and run chunks until none is left unclaimed; returns how
     * many this thread ran.
     */
    int
    drain()
    {
        const int total = chunks_[0] + chunks_[1];
        int ran = 0;
        for (int c = next_.fetch_add(1, std::memory_order_relaxed);
             c < total; c = next_.fetch_add(1, std::memory_order_relaxed)) {
            ++ran;
            if (c < chunks_[0]) {
                runChunk(0, c, chunks_[0]);
                if (firstDone_.fetch_add(1, std::memory_order_release) + 1 ==
                    chunks_[0])
                    firstDone_.notify_all();
                continue;
            }
            // Blocks (after a short spin) rather than burning the core.
            for (int done = firstDone_.load(std::memory_order_acquire);
                 done < chunks_[0];
                 done = firstDone_.load(std::memory_order_acquire))
                firstDone_.wait(done, std::memory_order_acquire);
            runChunk(1, c - chunks_[0], chunks_[1]);
        }
        return ran;
    }

  protected:
    ~SplitJob() = default;

    /**
     * Run chunk `chunk` of `chunks` of `phase`; the result must not
     * depend on the thread that runs it.
     */
    virtual void runChunk(int phase, int chunk, int chunks) = 0;

  private:
    const int max_[2];
    int chunks_[2] = {0, 0};
    std::atomic<int> next_{0};
    std::atomic<int> firstDone_{0};
};

/** Runs split jobs on the calling thread plus whatever helpers join. */
class PlanTeam
{
  public:
    /**
     * Partition `job` for the caller plus the helpers this team can
     * lend right now, run it, and return once every chunk has run
     * and no helper still refers to `job`.
     */
    virtual void run(SplitJob &job) = 0;

  protected:
    ~PlanTeam() = default;
};

/**
 * `first(begin, end)` over chunks of `firstRange`, then
 * `second(begin, end)` over chunks of `secondRange` (when
 * non-empty).  The whole ranges run on the caller when `team` is null
 * or neither range can be cut; otherwise `team` runs the job.
 */
template <typename First, typename Second>
void
forkJoin(PlanTeam *team, SplitRange firstRange, First &&first,
         SplitRange secondRange, Second &&second)
{
    class Job final : public SplitJob
    {
      public:
        Job(const SplitRange &r0, First &f0, const SplitRange &r1,
            Second &f1)
            : SplitJob(r0.maxChunks(), r1.maxChunks()), r0_(r0), r1_(r1),
              f0_(f0), f1_(f1)
        {
        }

      private:
        void
        runChunk(int phase, int chunk, int chunks) override
        {
            const SplitRange &r = phase == 0 ? r0_ : r1_;
            const std::int64_t begin = r.bound(chunk, chunks);
            const std::int64_t end = r.bound(chunk + 1, chunks);
            if (phase == 0)
                f0_(begin, end);
            else
                f1_(begin, end);
        }

        const SplitRange r0_, r1_;
        First &f0_;
        Second &f1_;
    };

    Job job(firstRange, first, secondRange, second);
    if (team != nullptr && job.maxChunks() >= 2) {
        team->run(job);
        return;
    }
    if (firstRange.size > 0)
        first(std::int64_t{0}, firstRange.size);
    if (secondRange.size > 0)
        second(std::int64_t{0}, secondRange.size);
}

/** One-phase `forkJoin`: `fn(begin, end)` over chunks of `range`. */
template <typename Fn>
void
forkJoin(PlanTeam *team, SplitRange range, Fn &&fn)
{
    forkJoin(team, range, fn, SplitRange{},
             [](std::int64_t, std::int64_t) {});
}

/**
 * `lanes - 1` parked helper threads shared by `lanes` callers.  Each
 * caller owns one `Lane` and brackets its executing work with
 * `enter`/`leave`; a lane's `run` recruits at most
 * `lanes - busy lanes - helpers lent elsewhere` helpers, so busy
 * callers plus lent helpers never exceed `lanes` threads.  Helpers
 * wait on a condition variable and never spin; the caller waits (by
 * yielding) only for chunks a helper has already claimed.
 */
class HelperPool
{
  public:
    /** One caller's seat; its `run` is the caller's `PlanTeam`. */
    class Lane final : public PlanTeam
    {
      public:
        /** This lane's caller starts executing (counts as busy). */
        void enter();

        /** This lane's caller stops executing. */
        void leave();

        void run(SplitJob &job) override;

      private:
        friend class HelperPool;
        HelperPool *pool_ = nullptr;
        bool entered_ = false;     //!< caller-thread only
        SplitJob *job_ = nullptr;  //!< posted job; guarded by pool mu_
        int wanted_ = 0;           //!< recruits not yet taken; mu_
        std::atomic<int> joined_{0}; //!< helpers inside job_
    };

    /** Start `lanes - 1` helper threads (none for one lane). */
    explicit HelperPool(int lanes);
    ~HelperPool();

    HelperPool(const HelperPool &) = delete;
    HelperPool &operator=(const HelperPool &) = delete;

    int lanes() const { return laneCount_; }

    /** Lane `index` in [0, lanes); one caller thread per lane. */
    Lane &lane(int index) { return lanes_[index]; }

    /**
     * Chunks the helpers (not the lanes' callers) have run so far: 0
     * means nobody was ever lent.  A lane's `run` returns after the
     * chunks its helpers ran are counted here.
     */
    std::int64_t
    helperChunks() const
    {
        return helperChunks_.load(std::memory_order_relaxed);
    }

    /**
     * Join the helpers; idempotent.  Later `run` calls execute on
     * the caller alone.
     */
    void stop();

  private:
    void helperLoop();

    const int laneCount_;
    std::unique_ptr<Lane[]> lanes_;

    std::mutex mu_;
    std::condition_variable wake_; //!< helpers park here
    int busy_ = 0;    //!< lanes between enter and leave
    int lent_ = 0;    //!< helpers recruited and not yet returned
    int pending_ = 0; //!< recruits no helper has taken yet
    bool stopping_ = false;
    std::atomic<std::int64_t> helperChunks_{0};
    std::vector<std::thread> helpers_;
};

} // namespace fpsa

#endif // FPSA_NN_TEAM_HH
