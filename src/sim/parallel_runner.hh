/**
 * @file
 * Parallel experiment execution: fans independent Runner::run jobs out
 * over a fixed-size thread pool, and plans how every job's reference
 * stream is delivered.
 *
 * Every paper figure is a grid of independent simulations over
 * (L2 organization x workload x seed); a full sweep is embarrassingly
 * parallel. The ParallelRunner exploits that without perturbing the
 * science: each job is a pure function of its (SystemConfig,
 * WorkloadSpec, RunConfig) triple -- the per-job seeding scheme is
 * exactly the serial path's -- so the RunResults are bit-identical
 * regardless of worker count or completion order, and they are always
 * returned in submission order.
 *
 * Every job sees the canonical round-robin stream of its (workload,
 * seed) (trace/replay.hh), whether it runs alone, in a grid, or on
 * any worker count. planStreams() only picks
 * how that stream is delivered -- regenerated inline or materialized
 * once and shared -- which is a cost choice that never changes a
 * result.
 *
 * Thread-safety contract: a job must not touch process-global mutable
 * state. The simulator's only globals are the logging quiet flag /
 * stderr stream, which common/logging.cc makes thread-safe, and the
 * TraceCache, which planStreams() consults serially before any worker
 * starts; System, CanonicalWorkload (with its stream producer thread),
 * EventQueue, Rng, and StatGroup are all per-job instances.
 */

#ifndef CNSIM_SIM_PARALLEL_RUNNER_HH
#define CNSIM_SIM_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace cnsim
{

/** One independent simulation: the arguments of a Runner::run call. */
struct ParallelJob
{
    SystemConfig sys_cfg;
    WorkloadSpec workload;
    RunConfig run_cfg;
};

/** Per-job completion report, delivered to the progress callback. */
struct JobReport
{
    /** Submission-order index of the finished job. */
    std::size_t index = 0;
    /** Jobs finished so far, including this one. */
    std::size_t completed = 0;
    /** Total jobs in this batch. */
    std::size_t total = 0;
    /** Wall-clock seconds this job took. */
    double seconds = 0.0;
    /** The finished job's parameters (valid during the callback). */
    const ParallelJob *job = nullptr;
    /** The finished job's result (valid during the callback). */
    const RunResult *result = nullptr;
};

/**
 * A fixed-size thread pool executing batches of independent
 * Runner::run jobs.
 *
 * Usage: submit() jobs (ids are submission-order indices), then run()
 * to execute the batch and collect results in submission order. The
 * runner is reusable: after run() returns, the pending list is empty
 * and new jobs can be submitted.
 */
class ParallelRunner
{
  public:
    /**
     * Called under an internal lock whenever a job completes, so
     * callbacks may print without interleaving. Completion order is
     * nondeterministic; JobReport::index identifies the job.
     */
    using ProgressFn = std::function<void(const JobReport &)>;

    /**
     * Called on the worker thread as soon as job @p index has its
     * @p result, before its progress report and *outside* the internal
     * lock, so calls for different jobs may overlap.
     */
    using FinishFn =
        std::function<void(std::size_t index, const RunResult &result)>;

    /** @param workers thread count; 0 means defaultWorkers(). */
    explicit ParallelRunner(unsigned workers = 0);

    /** Queue one job; @return its submission-order index. */
    std::size_t submit(ParallelJob job);

    /** Queue one job from Runner::run's argument triple. */
    std::size_t submit(const SystemConfig &sys_cfg,
                       const WorkloadSpec &workload,
                       const RunConfig &run_cfg = RunConfig{});

    /** Install a per-job completion callback (may be empty). */
    void onProgress(ProgressFn fn) { progress = std::move(fn); }

    /** Install a per-job hook that runs outside the lock (may be
     *  empty); farm::runFarm publishes cache entries from it. */
    void onFinish(FinishFn fn) { finish_hook = std::move(fn); }

    /**
     * No-op kept for existing callers: run() now plans every batch
     * through planStreams(), so stream sharing is always on.
     */
    // cnlint: allow(CNL-T002 cnbench/workload.cc still calls it)
    void enableSharedTraceCache(bool = true) {}

    /**
     * Fewest jobs sharing one stream for which planStreams()
     * materializes it instead of regenerating it inline per job. Both
     * deliveries draw the stream with the same loop, on a producer
     * thread ahead of the run, and read it as packed chunks; they
     * differ in what they keep. Materializing pays the generator once
     * and keeps every chunk for the other sharers; inline
     * regeneration (CanonicalWorkload) pays the generator once per
     * sharer and recycles each chunk as soon as it is read. From two
     * sharers up materializing wins (perf_gate's sweep scenario
     * prices both at seven sharers, floored at 1.0 by perfcmp); a
     * lone job has no one to keep the chunks for, so it regenerates
     * in a fraction of the memory.
     */
    static constexpr unsigned min_stream_sharers = 2;

    /**
     * True when @p run_cfg repositions its trace stream -- sampling's
     * O(1) chunk hops, checkpoint save/load (file or in-memory blob)
     * -- and is therefore served a materialized RecordedTrace however
     * few jobs share it. Part of planStreams()'s policy.
     */
    static bool needsMaterializedTrace(const RunConfig &run_cfg);

    /**
     * Execute every pending job and @return their results in
     * submission order (results[i] belongs to the job submit()
     * returned i for), bit-identical to a serial Runner::run loop.
     * fatal()s before any job runs when two jobs name the same
     * binlog_out: both would stream into it and only one log would
     * survive, in a file the reader still accepts.
     */
    std::vector<RunResult> run();

    /** Configured worker-thread count. */
    unsigned workers() const { return num_workers; }

    /** Number of jobs currently queued. */
    std::size_t pending() const { return jobs.size(); }

    /** std::thread::hardware_concurrency, clamped to at least 1. */
    static unsigned defaultWorkers();

    /** One-shot convenience: submit @p batch, run, return results. */
    static std::vector<RunResult> runAll(std::vector<ParallelJob> batch,
                                         unsigned workers = 0,
                                         ProgressFn fn = nullptr);

  private:
    unsigned num_workers;
    std::vector<ParallelJob> jobs;
    ProgressFn progress;
    FinishFn finish_hook;
};

/**
 * Choose each job's stream delivery. Jobs that already name a stream
 * (RunConfig::replay or canonical_live) are left alone. Every other
 * job gets the shared materialized trace of its (workload, seed) from
 * TraceCache::global() when it needsMaterializedTrace() or when at
 * least ParallelRunner::min_stream_sharers jobs of @p jobs share that
 * stream, and canonical-live generation otherwise. Both deliveries
 * emit the same records, so the plan never changes a result.
 *
 * ParallelRunner::run() plans each batch, and Runner::run() plans a
 * lone job that names no stream; the caller keeps the acquired traces
 * alive for as long as it holds the jobs.
 */
void planStreams(std::vector<ParallelJob> &jobs);

} // namespace cnsim

#endif // CNSIM_SIM_PARALLEL_RUNNER_HH
