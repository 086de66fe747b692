/**
 * @file
 * Process-wide work-stealing thread pool: the parallel runtime under
 * every hot kernel.
 *
 * Outside device/multi_gpu the repo historically ran every kernel
 * (SpMM, scatter/gather, edge softmax, segment reduce, dense GEMM) on
 * one thread, so the roofline engine attributed "bandwidth-bound"
 * shares no single core can actually saturate. This subsystem supplies
 * one leaked singleton pool (alongside DeviceManager) of persistent
 * workers and a barrier-synchronised `parallelFor(begin, end, grain,
 * fn)` primitive, in the spirit of ggml's row-sliced op parallelism:
 *
 *  - The index range is split into one contiguous *partition* per
 *    participating thread (static chunking, good locality).
 *  - Each partition is drained in `grain`-sized chunks through an
 *    atomic cursor; a thread that exhausts its own partition *steals*
 *    chunks from the other partitions, so power-law-skewed row costs
 *    (one mega-degree node) cannot serialise the launch.
 *  - The caller participates as slot 0 and blocks until every chunk
 *    has run, so kernel code before/after the launch needs no fences.
 *
 * Determinism contract: every chunk [b, e) is executed exactly once,
 * and the callback receives the *runner's* slot index (for per-thread
 * scratch slices), so a kernel whose chunks write disjoint output rows
 * in unchanged per-row order produces byte-identical results at every
 * thread count — and `threads == 1` short-circuits to a plain inline
 * call, the exact historical serial path.
 *
 * Observability: each parallel launch bumps `parallel.launches`,
 * `parallel.tasks` (chunks run) and `parallel.steals` (chunks run off
 * their home partition) in the stats registry, sets the
 * `parallel.threads` gauge, counts `parallel.barrier_waits` when the
 * caller had to block for stragglers, and opens a wall-clock HostSpan
 * named after the kernel so pool activity shows up in the merged
 * Chrome trace (obs/exec_trace.hh).
 *
 * Thread count: `GNNPERF_THREADS` (env) else hardware_concurrency;
 * `--threads=N` on `gnnperf run` overrides per run; ThreadScope
 * overrides per scope (tests, benches).
 *
 * Checked builds (common/checks.hh): every pooled launch additionally
 * logs the chunk ranges it executes into the parallel write-set
 * checker (parallel/write_check.hh) and verifies disjointness and
 * exact-once coverage after the barrier, so a partitioning bug aborts
 * deterministically instead of corrupting a reduction.
 */

#ifndef GNNPERF_PARALLEL_THREAD_POOL_HH
#define GNNPERF_PARALLEL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gnnperf {
namespace par {

/** Chunk callback: fn(context, chunk_begin, chunk_end, runner_slot). */
using ChunkFn = void (*)(void *, int64_t, int64_t, int);

/**
 * The process-wide pool. Workers are spawned lazily on first demand
 * and persist for the process lifetime (the instance is intentionally
 * leaked, like DeviceManager, so late static destructors can still
 * launch work).
 */
class ThreadPool
{
  public:
    /** Hard cap on pool width (worker slots, including the caller). */
    static constexpr int kMaxThreads = 64;

    /** The process-wide instance. */
    static ThreadPool &instance();

    /**
     * Configured width: GNNPERF_THREADS when set, else
     * hardware_concurrency (min 1), until setNumThreads overrides it.
     */
    int numThreads() const { return numThreads_; }

    /**
     * Set the pool width (clamped to [1, kMaxThreads]). Spawns missing
     * workers immediately; surplus workers stay parked. Must not be
     * called from inside a parallel region.
     */
    void setNumThreads(int n);

    /** GNNPERF_THREADS else hardware_concurrency, clamped. */
    static int defaultThreads();

    /** True on a pool worker thread (used to refuse nested launches). */
    static bool onWorkerThread();

    /**
     * True while a parallel launch is executing on this thread —
     * either a worker running chunks or the caller inside run().
     * Allocator-touching code (Workspace::ensure) asserts this is
     * false.
     */
    static bool inParallelRegion();

    /**
     * Run fn over [begin, end) in grain-sized chunks across the pool.
     * Blocks until complete. Falls back to one inline serial call
     * (begin, end, slot 0) when the pool width is 1, the range fits in
     * a single chunk, or the caller is already inside a parallel
     * region — the exact historical path, no atomics touched.
     *
     * `name` labels the launch's HostSpan in the execution trace and
     * should be a string literal (names are interned by the tracer).
     */
    template <typename Fn>
    void
    forRange(const char *name, int64_t begin, int64_t end, int64_t grain,
             Fn &&fn)
    {
        if (end <= begin)
            return;
        if (grain < 1)
            grain = 1;
        if (numThreads_ <= 1 || end - begin <= grain ||
            inParallelRegion()) {
            fn(begin, end, 0);
            return;
        }
        run(name, begin, end, grain, &trampoline<Fn>,
            const_cast<void *>(static_cast<const void *>(&fn)));
    }

    /**
     * Test hook: corrupt the *next* pooled launch by rewinding one
     * partition cursor so a chunk is claimed twice — the seeded
     * partition race that proves the write-set checker fires (it
     * aborts the process in checked builds). One-shot; ignored when
     * the next launch takes the serial fallback.
     */
    void testCorruptNextLaunch() { corruptNextLaunch_ = true; }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

  private:
    ThreadPool();
    ~ThreadPool() = default;  // leaked; workers never joined

    template <typename Fn>
    static void
    trampoline(void *ctx, int64_t b, int64_t e, int slot)
    {
        (*static_cast<Fn *>(ctx))(b, e, slot);
    }

    /** One per-slot work partition, padded against false sharing. */
    struct alignas(64) Partition
    {
        std::atomic<int64_t> cursor{0};
        int64_t end = 0;
    };

    void run(const char *name, int64_t begin, int64_t end, int64_t grain,
             ChunkFn fn, void *ctx);
    void workOn(int slot, int width, uint64_t &tasks, uint64_t &steals);
    void drainPartition(int part, int slot, uint64_t &tasks,
                        uint64_t &steals);
    void spawnWorkersLocked(int target);
    void workerMain(int worker_index);

    int numThreads_ = 1;
    bool corruptNextLaunch_ = false;

    std::mutex mu_;
    std::condition_variable jobCv_;   ///< workers wait for a launch
    std::condition_variable doneCv_;  ///< caller waits for the barrier
    uint64_t generation_ = 0;         ///< bumped per launch

    // Current launch (published under mu_, read by woken workers).
    ChunkFn fn_ = nullptr;
    void *ctx_ = nullptr;
    int64_t grain_ = 1;
    int width_ = 1;                   ///< participating slots
    Partition parts_[kMaxThreads];
    std::atomic<int> pending_{0};     ///< workers not yet at the barrier
    std::atomic<uint64_t> jobTasks_{0};
    std::atomic<uint64_t> jobSteals_{0};

    std::vector<std::thread> workers_;
};

/**
 * Convenience free function; see ThreadPool::forRange. The callback is
 * fn(chunk_begin, chunk_end, runner_slot) with runner_slot in
 * [0, numThreads()).
 */
template <typename Fn>
inline void
parallelFor(const char *name, int64_t begin, int64_t end, int64_t grain,
            Fn &&fn)
{
    ThreadPool::instance().forRange(name, begin, end, grain,
                                    std::forward<Fn>(fn));
}

/**
 * A grain that yields ~chunks_per_slot chunks per participating
 * thread. chunks_per_slot == 1 gives pure static partitioning (use
 * when every extra chunk re-reads shared input, e.g. column-split
 * reductions); larger values leave room for stealing on skewed costs.
 */
int64_t grainFor(int64_t total, int chunks_per_slot);

/**
 * RAII thread-count override for tests and benches: sets the pool
 * width on construction, restores the previous width on destruction.
 */
class ThreadScope
{
  public:
    explicit ThreadScope(int n)
        : prev_(ThreadPool::instance().numThreads())
    {
        ThreadPool::instance().setNumThreads(n);
    }

    ~ThreadScope() { ThreadPool::instance().setNumThreads(prev_); }

    ThreadScope(const ThreadScope &) = delete;
    ThreadScope &operator=(const ThreadScope &) = delete;

  private:
    int prev_;
};

} // namespace par
} // namespace gnnperf

#endif // GNNPERF_PARALLEL_THREAD_POOL_HH
