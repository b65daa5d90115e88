#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hh"
#include "common/logging.hh"
#include "obs/binlog.hh"
#include "trace/replay.hh"

namespace cnbench
{

using namespace cnsim;

namespace
{

/** Per-core instruction budgets of one workload. */
struct Budget
{
    std::uint64_t warmup;
    std::uint64_t measure;
};

/** Snapshot interval of the metrics registry on binlog cells (the
 *  CLI's default when a metrics sink is requested). */
constexpr Tick metrics_interval = 100'000;

ParallelJob
makeCell(L2Kind kind, int cores, InterconnectKind icn,
         const std::string &workload, std::uint64_t seed, Budget b)
{
    ParallelJob j{Runner::paperConfig(kind, cores, icn),
                  workloads::byName(workload, cores), RunConfig{}};
    j.run_cfg.seed = seed;
    j.run_cfg.warmup_instructions = b.warmup;
    j.run_cfg.measure_instructions = b.measure;
    return j;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    // Budgets give each rep about one to two host seconds, so a run of
    // ten or more seconds takes enough reps for a steady median.
    Workload w;
    w.name = name;
    if (name == "sweep-bus4") {
        Budget b = smoke ? Budget{20'000, 40'000}
                         : Budget{1'000'000, 3'000'000};
        // Fig. 10/12 order: workload-major, so each workload's stream
        // is shared by its 7 cells.
        for (const char *wl : {"oltp", "apache", "mix1"})
            for (L2Kind k : {L2Kind::Shared, L2Kind::Private,
                             L2Kind::Snuca, L2Kind::Ideal,
                             L2Kind::Nurapid, L2Kind::Update,
                             L2Kind::Dnuca})
                w.cells.push_back(
                    makeCell(k, 4, InterconnectKind::Bus, wl, seed, b));
    } else if (name == "mesh16") {
        Budget b = smoke ? Budget{10'000, 20'000}
                         : Budget{500'000, 1'500'000};
        for (L2Kind k : {L2Kind::Nurapid, L2Kind::Private})
            w.cells.push_back(
                makeCell(k, 16, InterconnectKind::Mesh, "oltp", seed, b));
    } else if (name == "solo-binlog") {
        Budget b = smoke ? Budget{20'000, 40'000}
                         : Budget{2'000'000, 6'000'000};
        w.binlog = true;
        w.cells.push_back(obsOnCell(makeCell(
            L2Kind::Nurapid, 4, InterconnectKind::Bus, "oltp", seed, b)));
    } else {
        fatal("unknown workload '%s' (sweep-bus4, mesh16, solo-binlog)",
              name.c_str());
    }
    return w;
}

Workload
setupVariant(const Workload &w)
{
    Workload s = w;
    for (ParallelJob &j : s.cells) {
        j.run_cfg.warmup_instructions = 0;
        j.run_cfg.measure_instructions = 1;
    }
    return s;
}

ParallelJob
obsOnCell(ParallelJob cell)
{
    cell.sys_cfg.obs.metrics_interval = metrics_interval;
    return cell;
}

std::vector<ParallelJob>
obsOffCells(const std::vector<ParallelJob> &cells)
{
    std::vector<ParallelJob> off = cells;
    for (ParallelJob &j : off) {
        j.run_cfg.binlog_out.clear();
        j.sys_cfg.obs = obs::ObsParams{};
    }
    return off;
}

void
assignBinlogPaths(std::vector<ParallelJob> &cells, const std::string &dir,
                  const std::string &tag)
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].run_cfg.binlog_out =
            strfmt("%s/%s-%zu.blg", dir.c_str(), tag.c_str(), i);
}

void
removeBinlogs(const std::vector<ParallelJob> &cells)
{
    for (const ParallelJob &j : cells)
        if (!j.run_cfg.binlog_out.empty())
            std::remove(j.run_cfg.binlog_out.c_str());
}

void
requireNoLiveTraces()
{
    std::size_t live = TraceCache::global().liveEntries();
    if (live != 0)
        fatal("%zu shared streams outlived their rep; every rep must "
              "generate its streams afresh",
              live);
}

std::vector<RunResult>
runRep(const std::vector<ParallelJob> &cells)
{
    requireNoLiveTraces();
    ParallelRunner pool(1);
    pool.enableSharedTraceCache();
    for (const ParallelJob &j : cells)
        pool.submit(j);
    return pool.run();
}

CellStats
statsOf(const RunResult &r)
{
    CellStats s;
    s.cycles = r.cycles;
    s.instructions = r.instructions;
    s.events = r.events_executed;
    s.l2_accesses = r.l2_accesses;
    const double fr[4] = {r.frac_hit, r.frac_ros, r.frac_rws, r.frac_cap};
    for (int c = 0; c < 4; ++c)
        s.l2_class[c] = static_cast<std::uint64_t>(
            std::llround(fr[c] * static_cast<double>(r.l2_accesses)));
    s.bus_transactions = r.bus_transactions;
    s.mem_reads = r.mem_reads;
    s.mem_writebacks = r.mem_writebacks;
    std::memcpy(&s.ipc_bits, &r.ipc, sizeof s.ipc_bits);
    return s;
}

std::uint64_t
digest(const std::vector<CellStats> &cells)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const CellStats &s : cells) {
        mix(s.cycles);
        mix(s.instructions);
        mix(s.events);
        mix(s.l2_accesses);
        for (std::uint64_t c : s.l2_class)
            mix(c);
        mix(s.bus_transactions);
        mix(s.mem_reads);
        mix(s.mem_writebacks);
        mix(s.ipc_bits);
    }
    return h;
}

std::string
cellName(const ParallelJob &cell)
{
    return strfmt("%s/%s@%d%s", toString(cell.sys_cfg.l2_kind),
                  cell.workload.name.c_str(), cell.sys_cfg.num_cores,
                  toString(cell.sys_cfg.interconnect));
}

std::string
verifyBinlog(const std::string &path, std::uint64_t records)
{
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        return strfmt("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        obs::BinlogData d;
        std::string err;
        int code = 0;
        if (!obs::readBinlog(path, d, &err)) {
            std::fprintf(stderr, "cnbench: %s: %s\n", path.c_str(),
                         err.c_str());
            code = 2;
        } else if (d.records.size() != records) {
            std::fprintf(stderr,
                         "cnbench: %s holds %zu records, the run "
                         "reported %" PRIu64 "\n",
                         path.c_str(), d.records.size(), records);
            code = 3;
        } else if (d.dropped != 0) {
            std::fprintf(stderr, "cnbench: %s: %" PRIu64 " dropped\n",
                         path.c_str(), d.dropped);
            code = 4;
        }
        std::fflush(stderr);
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return strfmt("waitpid failed: %s", std::strerror(errno));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return {};
    return strfmt("binlog check of %s failed (status %d)", path.c_str(),
                  status);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    cnsim_assert(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    // JSON has no NaN or infinity: such a value prints as 0 and makes
    // the result incorrect.
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "cnbench: metric %s is not finite\n",
                         m.name.c_str());
            correct = false;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace cnbench
