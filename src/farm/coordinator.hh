/**
 * @file
 * Farm coordinator: multi-process sweep scheduling (DESIGN.md 3l).
 *
 * The coordinator decomposes a sweep into CellSpecs, satisfies what it
 * can from the result cache, and dispatches the rest to worker
 * *processes* -- fork/exec of the running binary in `--worker` mode --
 * over pipe pairs carrying CNFRM01 frames. Each worker holds one cell
 * at a time; completion order is whatever the host schedules, but
 * results land in submission-order slots keyed by cell index, so the
 * merged output is byte-identical to an in-process run for any worker
 * count (the canonical-trace guarantee makes every placement replay
 * the same streams).
 *
 * Robustness: a worker that exits nonzero, dies on a signal, or
 * writes a torn frame forfeits its in-flight cell; the cell is
 * requeued exactly once onto a fresh worker, and a second failure
 * fails the sweep with the cell key and the worker's captured stderr.
 * Worker stderr is captured (not interleaved) and replayed to our
 * stderr only on failure.
 *
 * This file is the reason `src/farm/` exists as a layer: cnlint
 * CNL-C004 confines process-control primitives (fork/exec/waitpid) to
 * this directory, the way CNL-C002 confines raw threads to the
 * ParallelRunner.
 */

#ifndef CNSIM_FARM_COORDINATOR_HH
#define CNSIM_FARM_COORDINATOR_HH

#include <string>
#include <vector>

#include "farm/cell.hh"

namespace cnsim
{
namespace farm
{

/** Scheduling parameters of one farm run. */
struct FarmOptions
{
    /** Worker processes; 0 means hardware concurrency. */
    unsigned workers = 0;
    /** Cache directory; "" disables both cache sides. */
    std::string cache_dir;
    /** Worker executable; "" re-executes the running binary
     *  (/proc/self/exe). The binary must implement `--worker`
     *  [--cache-dir <dir>] as its first arguments. */
    std::string worker_exe;
    /** Print per-cell progress lines to stderr. */
    bool progress = true;
};

/**
 * Execute @p cells and return their results in submission order,
 * byte-identical to running each cell in-process. Fatal on a cell
 * that fails twice (see the file comment), and before any cell runs
 * when two cells share a binlog_out (requireDistinctBinlogs).
 */
std::vector<RunResult> runFarm(const std::vector<CellSpec> &cells,
                               const FarmOptions &opts);

/** Absolute path of the running executable (/proc/self/exe). */
std::string selfExePath();

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_COORDINATOR_HH
