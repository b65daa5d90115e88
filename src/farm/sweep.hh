/**
 * @file
 * The sweep executor: cached cells on the ParallelRunner's threads
 * (DESIGN.md 3l).
 *
 * runFarm() takes a sweep as CellSpecs. It serves every cacheable
 * cell whose result is already in the content-addressed cache
 * (farm/cache.hh), and runs the rest as one ParallelRunner batch. A
 * computed cacheable cell resumes from its cached warmed checkpoint
 * when one exists and otherwise captures the warmed state for the
 * cache; a cell writing a binlog always runs in full, so its log keeps
 * the warm-up metrics snapshots. Each
 * result and new checkpoint is published the moment its cell
 * finishes, so a sweep that dies part-way keeps every finished cell.
 *
 * Results come back in submission order and are byte-identical to
 * running each cell alone with Runner::run, at any worker count and
 * whether a cell was computed, resumed or served from the cache: the
 * canonical-trace guarantee makes every stream delivery the same, and
 * the restore-exactness contract makes a resumed cell equal a warmed
 * one.
 */

#ifndef CNSIM_FARM_SWEEP_HH
#define CNSIM_FARM_SWEEP_HH

#include <string>
#include <vector>

#include "farm/cell.hh"
#include "sim/parallel_runner.hh"

namespace cnsim
{
namespace farm
{

/** Execution parameters of one sweep. */
struct FarmOptions
{
    /** Worker threads; 0 means ParallelRunner::defaultWorkers(). */
    unsigned workers = 0;
    /** Cache directory; "" disables both cache sides. */
    std::string cache_dir;
    /** Print per-cell progress lines to stderr. */
    bool progress = true;
};

/**
 * Execute @p cells and return their results in submission order (see
 * the file comment). fatal()s before any cell runs when two cells
 * share a binlog_out, as ParallelRunner::run does.
 */
std::vector<RunResult> runFarm(const std::vector<CellSpec> &cells,
                               const FarmOptions &opts);

/**
 * runFarm over jobs the caller built: @p jobs[i] is buildJob(cells[i])
 * plus any stream or checkpoint-file fields the caller attaches (a
 * replayed trace, --ckpt-save/--ckpt-load paths). Such fields are not
 * part of the cell's content key, so they are only legal with the
 * cache disabled.
 */
std::vector<RunResult> runFarm(const std::vector<CellSpec> &cells,
                               std::vector<ParallelJob> jobs,
                               const FarmOptions &opts);

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_SWEEP_HH
