/**
 * @file
 * cnbench: the benchmark's workloads, the untraced batch runner and
 * the output checks shared by the untraced and traced runs.
 *
 * Every workload is a closed-loop batch with one client: a rep is one
 * ParallelRunner batch on one worker thread under the shared-trace
 * policy, and the next rep starts when the previous one returns.
 */

#ifndef CNBENCH_BENCH_HH
#define CNBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

namespace cnbench
{

/** One benchmark workload: the cells one rep runs, in batch order. */
struct Workload
{
    std::string name;
    std::vector<cnsim::ParallelJob> cells;
    /** Cells stream a CNBLG01 binlog plus metrics snapshots. */
    bool binlog = false;
};

/**
 * Build workload @p name with inputs drawn from @p seed. @p smoke
 * shrinks every budget to a few thousand instructions per core.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

/** The same cells with zero warm-up and a minimal measurement. */
Workload setupVariant(const Workload &w);

/**
 * @p cell with metrics snapshots on, as in solo-binlog; each rep gives
 * it a binlog file (assignBinlogPaths).
 */
cnsim::ParallelJob obsOnCell(cnsim::ParallelJob cell);

/** The cells with observability off (no binlog, no metrics). */
std::vector<cnsim::ParallelJob>
obsOffCells(const std::vector<cnsim::ParallelJob> &cells);

/** Give every cell of @p cells a binlog file under @p dir. */
void assignBinlogPaths(std::vector<cnsim::ParallelJob> &cells,
                       const std::string &dir, const std::string &tag);

/** Delete the binlog files of @p cells. */
void removeBinlogs(const std::vector<cnsim::ParallelJob> &cells);

/**
 * Run one rep: a ParallelRunner batch on one thread under the
 * shared-trace policy. Exits with an error unless the process-wide trace
 * cache is empty on entry, so every rep pays for its stream generation.
 */
std::vector<cnsim::RunResult>
runRep(const std::vector<cnsim::ParallelJob> &cells);

/** Fatal error unless TraceCache::global() holds no live stream. */
void requireNoLiveTraces();

/** The simulated statistics of one cell (no host or obs figures). */
struct CellStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_class[4] = {};
    std::uint64_t bus_transactions = 0;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writebacks = 0;
    /** Bit pattern of the aggregate IPC. */
    std::uint64_t ipc_bits = 0;

    bool operator==(const CellStats &o) const = default;
};

CellStats statsOf(const cnsim::RunResult &r);

/** FNV-1a digest of every cell's statistics, in cell order. */
std::uint64_t digest(const std::vector<CellStats> &cells);

/** "<l2>/<workload>@<cores><fabric>" label of a cell. */
std::string cellName(const cnsim::ParallelJob &cell);

/**
 * Read @p path back with the strict CNBLG01 reader in a child process
 * (so the decoded records never count toward this process's peak
 * memory) and check it holds @p records records and no drops.
 * @return an empty string on success, else what failed.
 */
std::string verifyBinlog(const std::string &path, std::uint64_t records);

/** Seconds on the steady clock. */
double nowSeconds();

/** Median of @p v (which must not be empty). */
double median(std::vector<double> v);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Print the JSON result line that ends every run's stdout. */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &metrics);

/** Options shared by the untraced and traced runs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    /** Directory for binlogs and span dumps (created if missing). */
    std::string scratch = ".bench_build/scratch";
};

/** The traced run: per-layer metrics (traced.cc). */
int tracedMain(const Workload &w, const Options &o);

/** Isolated per-call baselines for one workload (isolated.cc). */
struct IsolatedBaselines
{
    double l1_ns = 0.0;
    /** L2Org::access ns/call per organization, toString(L2Kind) order. */
    std::vector<std::pair<std::string, double>> l2_ns;
    double icn_ns = 0.0;
    double dram_ns = 0.0;
    double kernel_ns = 0.0;
    double replay_next_ns = 0.0;
    double live_next_ns = 0.0;
};

/**
 * Measure standalone ns/call for each layer with the workload's first
 * cell's configuration and stream; the interconnect is driven with
 * @p cmd_mix (transactions per BusCmd seen in the traced run).
 */
IsolatedBaselines measureIsolated(const Workload &w,
                                  const std::vector<double> &cmd_mix,
                                  std::uint64_t seed, bool smoke);

} // namespace cnbench

#endif // CNBENCH_BENCH_HH
