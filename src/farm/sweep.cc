#include "farm/sweep.hh"

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "farm/cache.hh"

namespace cnsim
{
namespace farm
{

std::vector<RunResult>
runFarm(const std::vector<CellSpec> &cells, const FarmOptions &opts)
{
    std::vector<ParallelJob> jobs;
    jobs.reserve(cells.size());
    for (const CellSpec &spec : cells)
        jobs.push_back(buildJob(spec));
    return runFarm(cells, std::move(jobs), opts);
}

std::vector<RunResult>
runFarm(const std::vector<CellSpec> &cells, std::vector<ParallelJob> jobs,
        const FarmOptions &opts)
{
    cnsim_assert(jobs.size() == cells.size(),
                 "%zu jobs for %zu cells", jobs.size(), cells.size());
    const std::size_t total = cells.size();
    std::vector<RunResult> results(total);
    const Cache cache(opts.cache_dir);
    std::size_t done = 0;

    // Serve the hits; every miss joins one batch. A cacheable miss
    // carries its warmed checkpoint: resumed from the cache when a blob
    // exists, captured for publication when none does.
    ParallelRunner pool(opts.workers);
    std::vector<std::size_t> cell_of;  // batch index -> cell index
    std::vector<std::shared_ptr<std::string>> captured;
    for (std::size_t i = 0; i < total; ++i) {
        const CellSpec &spec = cells[i];
        std::shared_ptr<std::string> capture;
        // Only cacheable cells touch the cache: a cell writing a binlog
        // must run, and in full, since resuming from a checkpoint would
        // drop the warm-up metrics snapshots from its log.
        if (cache.enabled() && spec.cacheable()) {
            if (cache.loadResult(cellKey(spec), results[i])) {
                ++done;
                if (opts.progress)
                    inform("[%zu/%zu] %s: cache hit", done, total,
                           spec.label().c_str());
                continue;
            }
            RunConfig &rc = jobs[i].run_cfg;
            cnsim_assert(!rc.replay && rc.ckpt_save.empty() &&
                             rc.ckpt_load.empty(),
                         "cell %s names a stream or checkpoint file its "
                         "cache key does not cover",
                         spec.label().c_str());
            rc.ckpt_blob_in = cache.loadCkpt(ckptKey(spec));
            if (!rc.ckpt_blob_in) {
                capture = std::make_shared<std::string>();
                rc.ckpt_blob_out = capture;
            }
        }
        cell_of.push_back(i);
        captured.push_back(std::move(capture));
        pool.submit(std::move(jobs[i]));
    }

    // Publish each cell as it finishes, on its worker thread and
    // outside the runner's lock, so a sweep that dies part-way keeps
    // its finished cells and publishing never stalls another worker.
    if (cache.enabled())
        pool.onFinish([&](std::size_t b, const RunResult &result) {
            const CellSpec &spec = cells[cell_of[b]];
            if (!spec.cacheable())
                return;
            cache.storeResult(cellKey(spec), result);
            if (captured[b] && !captured[b]->empty()) {
                cache.storeCkpt(ckptKey(spec), *captured[b]);
                *captured[b] = std::string();  // on disk; free the memory
            }
        });
    pool.onProgress([&](const JobReport &rep) {
        ++done;
        if (opts.progress)
            inform("[%zu/%zu] %s: %.1fs%s", done, total,
                   cells[cell_of[rep.index]].label().c_str(), rep.seconds,
                   rep.job->run_cfg.ckpt_blob_in
                       ? " (resumed from a cached checkpoint)"
                       : "");
    });
    std::vector<RunResult> computed = pool.run();
    for (std::size_t b = 0; b < computed.size(); ++b)
        results[cell_of[b]] = std::move(computed[b]);
    return results;
}

} // namespace farm
} // namespace cnsim
