#include "farm/worker.hh"

#include <cstdlib>
#include <memory>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/frame.hh"
#include "sample/checkpoint.hh"
#include "sim/parallel_runner.hh"

namespace cnsim
{
namespace farm
{

namespace
{

/** Honor CNSIM_FARM_TEST_CRASH_CELL (see worker.hh). */
void
maybeCrash(const CellSpec &spec)
{
    const char *hook = std::getenv("CNSIM_FARM_TEST_CRASH_CELL");
    if (!hook)
        return;
    std::string want(hook);
    bool always = false;
    const std::string suffix = ":always";
    if (want.size() > suffix.size() &&
        want.compare(want.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        always = true;
        want.resize(want.size() - suffix.size());
    }
    if (want != spec.label())
        return;
    if (spec.attempt == 0 || always) {
        std::fprintf(stderr,
                     "synthetic crash (CNSIM_FARM_TEST_CRASH_CELL) on "
                     "%s attempt %u\n",
                     spec.label().c_str(), spec.attempt);
        std::fflush(stderr);
        _exit(97);
    }
}

} // namespace

RunResult
computeCell(const CellSpec &spec, const Cache &cache)
{
    std::vector<ParallelJob> lone{buildJob(spec)};
    RunConfig &rc = lone.front().run_cfg;
    // Warmed-state sharing through the checkpoint cache: resume when a
    // valid blob exists, capture-and-publish when it does not.
    const bool share = cache.enabled() && spec.use_ckpt_cache != 0;
    if (share)
        rc.ckpt_blob_in = cache.loadCkpt(ckptKey(spec));
    // Plan before attaching the capture buffer: a resumed cell hops its
    // cursor past the whole warm-up, so it is served a materialized
    // stream, while a capturing cell only records its cursor and keeps
    // the inline regeneration any lone cell gets. Same records either
    // way, so the cache never changes a result.
    planStreams(lone);
    std::shared_ptr<std::string> fresh;
    if (share && !rc.ckpt_blob_in) {
        fresh = std::make_shared<std::string>();
        rc.ckpt_blob_out = fresh;
    }
    const ParallelJob &job = lone.front();
    RunResult result =
        Runner::run(job.sys_cfg, job.workload, job.run_cfg);
    if (fresh && !fresh->empty())
        cache.storeCkpt(ckptKey(spec), *fresh);
    return result;
}

int
workerMain(const std::string &cache_dir, int job_fd, int result_fd)
{
    Cache cache(cache_dir);
    for (;;) {
        obs::Frame frame;
        obs::FrameStatus st = obs::readFrame(job_fd, frame);
        if (st == obs::FrameStatus::Eof)
            return 0;
        if (st != obs::FrameStatus::Ok)
            fatal("worker: torn job frame on fd %d", job_fd);
        if (frame.type != frame_job)
            fatal("worker: unexpected frame type %u", frame.type);
        CellSpec spec = deserializeCell(frame.payload, "<job frame>");
        maybeCrash(spec);
        RunResult result = computeCell(spec, cache);
        sample::Writer w;
        w.u64(cellKey(spec));
        std::string body = serializeResult(result);
        w.raw(body.data(), body.size());
        if (!obs::writeFrame(result_fd, frame_result, w.bytes()))
            fatal("worker: cannot write result frame for %s",
                  spec.label().c_str());
    }
}

} // namespace farm
} // namespace cnsim
