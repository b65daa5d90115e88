/**
 * @file
 * Farm worker: the process-side execution loop (DESIGN.md 3l).
 *
 * A worker is the `cnsim` binary re-executed with `--worker`: it reads
 * CNFRM01 job frames (one serialized CellSpec each) from stdin,
 * executes each cell with Runner::run, and writes one result frame
 * (cell key + serialized RunResult) to stdout. A clean EOF on stdin is
 * the shutdown signal; a torn input frame is fatal (the coordinator
 * observes the nonzero exit and requeues the in-flight cell).
 *
 * The worker owns the checkpoint side of the content-addressed cache:
 * before warming a cell it probes ckptKey(spec) and resumes from a
 * cached warmed CNCKPT01 blob when one exists, otherwise it captures
 * the post-warm-up state and publishes it. Results are returned to the
 * coordinator, which owns the result side of the cache.
 *
 * CNSIM_FARM_TEST_CRASH_CELL ("<l2>/<workload>", optionally suffixed
 * ":always") makes the worker exit uncleanly when it receives the
 * named cell -- on its first delivery attempt only, unless ":always"
 * -- which is how the crash-requeue path stays tested without any
 * test-only branches in the coordinator.
 */

#ifndef CNSIM_FARM_WORKER_HH
#define CNSIM_FARM_WORKER_HH

#include <string>

#include "farm/cache.hh"
#include "farm/cell.hh"

namespace cnsim
{
namespace farm
{

/**
 * Execute @p spec, sharing warmed checkpoints through @p cache (the
 * worker loop's core). Probes the checkpoint cache before warming and
 * publishes the warmed state on a miss; disabled for cells that opted
 * out (use_ckpt_cache == 0).
 */
RunResult computeCell(const CellSpec &spec, const Cache &cache);

/**
 * The `--worker` entry point: serve job frames from @p job_fd until
 * EOF, writing result frames to @p result_fd. @return the process
 * exit code.
 */
int workerMain(const std::string &cache_dir, int job_fd = 0,
               int result_fd = 1);

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_WORKER_HH
