/**
 * @file
 * cnbench entry point.
 *
 *   cnbench --workload <sweep-bus4|mesh16|solo-binlog> --seed <n>
 *           --seconds <s> --trace <0|1> [--scratch <dir>]
 *           [--commit <id>] [--smoke]
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 re-drives the cells with per-layer spans (traced.cc).
 * Diagnostics go to stderr; stdout carries a host line, a digest line
 * and, last, the one-line JSON result.
 */

#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "common/logging.hh"

using namespace cnsim;
using namespace cnbench;

namespace
{

/** Fewest setup reps per run; setup_s is their median. */
constexpr std::size_t setup_reps = 21;
/** Fewest timed reps per run, whatever --seconds says. */
constexpr int min_reps = 3;

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
filesystemOf(const std::string &dir)
{
    struct statfs fs;
    if (statfs(dir.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0x01021994ul: return "tmpfs";
      case 0xEF53ul: return "ext4";
      case 0x794c7630ul: return "overlayfs";
      case 0x58465342ul: return "xfs";
      case 0x9123683Eul: return "btrfs";
      case 0x6969ul: return "nfs";
      case 0x65735546ul: return "fuse";
      default:
        return strfmt("0x%lx", static_cast<unsigned long>(fs.f_type));
    }
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

void
printHost(const Options &o, const std::string &commit)
{
    std::printf("host {\"nproc\": %ld, \"cpu\": \"%s\", "
                "\"compiler\": \"%s\", \"optimized\": %s, "
                "\"commit\": \"%s\", \"binlog_fs\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %" PRIu64 "}\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
#if defined(__VERSION__)
                __VERSION__,
#else
                "unknown",
#endif
                optimizedBuild() ? "true" : "false", commit.c_str(),
                filesystemOf(o.scratch).c_str(), o.workload.c_str(),
                o.seed);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "cnbench: %s\nusage: cnbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--commit <id>] [--smoke]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage(strfmt("%s needs a non-negative integer, got '%s'", flag, s)
                  .c_str());
    return v;
}

/**
 * The untraced run: setup reps, then timed reps until --seconds have
 * passed, every cell checked; prints the end-to-end metrics.
 */
int
untracedMain(const Workload &w, const Options &o)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const int cores = w.cells.front().sys_cfg.num_cores;

    // One setup rep precedes every timed rep, so setup_s samples the
    // same host conditions as wall_s; more follow if the run was short.
    const Workload setup = setupVariant(w);
    std::vector<double> setup_s;
    auto setupRep = [&]() {
        std::vector<ParallelJob> cells = setup.cells;
        if (w.binlog)
            assignBinlogPaths(cells, o.scratch, "setup");
        double t0 = nowSeconds();
        (void)runRep(cells);
        setup_s.push_back(nowSeconds() - t0);
        removeBinlogs(cells);
    };

    std::vector<double> wall_s;
    std::vector<CellStats> first;
    std::uint64_t instr_per_rep = 0;
    const double loop_start = nowSeconds();
    for (int rep = 0;
         rep < min_reps || nowSeconds() - loop_start < o.seconds; ++rep) {
        setupRep();
        std::vector<ParallelJob> cells = w.cells;
        if (w.binlog)
            assignBinlogPaths(cells, o.scratch, "rep");
        double t0 = nowSeconds();
        std::vector<RunResult> res = runRep(cells);
        wall_s.push_back(nowSeconds() - t0);

        std::uint64_t instr = 0;
        for (std::size_t i = 0; i < res.size(); ++i) {
            ++attempted;
            const RunResult &r = res[i];
            instr += r.instructions;
            CellStats s = statsOf(r);
            if (rep == 0)
                first.push_back(s);
            std::string bad;
            if (!(r.ipc > 0.0 && r.ipc <= cores))
                bad = strfmt("IPC %.6f outside (0, %d]", r.ipc, cores);
            else if (!(s == first[i]))
                bad = "statistics differ from the first rep";
            if (bad.empty() && !cells[i].run_cfg.binlog_out.empty())
                bad = verifyBinlog(cells[i].run_cfg.binlog_out,
                                   r.trace_events);
            if (!bad.empty()) {
                ++failed;
                std::fprintf(stderr, "cnbench: rep %d %s: %s\n", rep,
                             cellName(cells[i]).c_str(), bad.c_str());
            }
        }
        removeBinlogs(cells);
        instr_per_rep = instr;
        if (o.smoke && rep + 1 >= min_reps)
            break;
    }
    while (setup_s.size() < setup_reps)
        setupRep();
    const double rss_mb = peakRssMb();

    // Grid independence: the binlog cell's obs-off twin, alone and
    // inside a 2-cell grid, must match the binlog cell itself.
    if (w.binlog) {
        std::vector<ParallelJob> twin = obsOffCells(w.cells);
        std::vector<ParallelJob> grid = twin;
        grid.push_back(twin.front());
        grid.back().sys_cfg =
            Runner::paperConfig(L2Kind::Shared, cores,
                                twin.front().sys_cfg.interconnect);
        RunResult solo = runRep(twin).front();
        RunResult in_grid = runRep(grid).front();
        attempted += 2;
        if (!(statsOf(solo) == first.front())) {
            ++failed;
            std::fprintf(stderr, "cnbench: obs-off twin differs from the "
                                 "binlog cell\n");
        }
        if (!(statsOf(in_grid) == first.front())) {
            ++failed;
            std::fprintf(stderr, "cnbench: the cell inside a 2-cell grid "
                                 "differs from the cell alone\n");
        }
    }

    std::printf("digest %s %016" PRIx64 " cells=%zu\n", w.name.c_str(),
                digest(first), first.size());

    const double wall = median(wall_s);
    const double setup_med = median(setup_s);
    double busy = wall - setup_med;
    bool correct = failed == 0;
    if (busy <= 0.0) {
        std::fprintf(stderr, "cnbench: setup (%.6f s) is not below the "
                             "rep wall time (%.6f s)\n",
                     setup_med, wall);
        busy = wall;
        correct = correct && o.smoke;
    }
    std::fprintf(stderr,
                 "cnbench: %s: %zu reps, wall median %.4f s "
                 "[%.4f..%.4f], setup median %.4f s, %" PRIu64
                 " instr/rep\n",
                 w.name.c_str(), wall_s.size(), wall,
                 *std::min_element(wall_s.begin(), wall_s.end()),
                 *std::max_element(wall_s.begin(), wall_s.end()),
                 setup_med, instr_per_rep);
    std::fprintf(stderr, "cnbench: rep walls (s):");
    for (double t : wall_s)
        std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, "\ncnbench: setup walls (s):");
    for (double t : setup_s)
        std::fprintf(stderr, " %.5f", t);
    std::fprintf(stderr, "\n");

    std::vector<Metric> m = {
        {"sim_mips", "MIPS", static_cast<double>(instr_per_rep) / busy / 1e6},
        {"wall_s", "s", wall},
        {"setup_s", "s", setup_med},
        {"peak_rss_mb", "MiB", rss_mb},
    };
    printResult(correct, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string commit = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(strfmt("%s needs a value", a.c_str()).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = parseUnsigned("--seed", value());
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(
                parseUnsigned("--seconds", value()));
        } else if (a == "--trace") {
            std::uint64_t t = parseUnsigned("--trace", value());
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (a == "--scratch") {
            o.scratch = value();
        } else if (a == "--commit") {
            commit = value();
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            usage(strfmt("unknown option '%s'", a.c_str()).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");

    if (!optimizedBuild()) {
        std::fprintf(stderr, "cnbench: refusing to time an unoptimized "
                             "build (needs __OPTIMIZE__ and NDEBUG)\n");
        return 3;
    }
    if (mkdir(o.scratch.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create scratch directory '%s': %s",
              o.scratch.c_str(), std::strerror(errno));

    setQuiet(true);
    Workload w = makeWorkload(o.workload, o.seed, o.smoke);
    printHost(o, commit);
    return o.trace ? tracedMain(w, o) : untracedMain(w, o);
}
