/**
 * @file
 * cnsim command-line driver.
 *
 * Runs any workload from the paper's Tables 2/3 on any of the seven
 * L2 organizations and reports the RunResult, optionally with the
 * complete statistics dump. Examples:
 *
 *   cnsim --l2 nurapid --workload oltp
 *   cnsim --l2 all --workload mix3 --measure 20000000
 *   cnsim --l2 private --workload apache --stats
 *   cnsim --l2 all --workload all --jobs 8
 *   cnsim --list
 *
 * Grid sweeps (--l2 all / --workload all) fan the independent runs out
 * over --jobs worker threads (default: hardware concurrency). Results
 * are printed in grid order and are byte-identical for every --jobs
 * value; per-job progress and elapsed time go to stderr.
 *
 * Every cell reads the canonical reference stream of its (workload,
 * seed), so a cell prints the same row alone, in any grid, and at any
 * --jobs value.
 *
 * Each cell is one farm::CellSpec and runs through farm::runFarm.
 * --cache-dir <dir> turns on its content-addressed result/checkpoint
 * cache (src/farm/): cached cells print without running, and cells
 * sharing a warm-up resume from a cached checkpoint. The printed table
 * is byte-identical with or without the cache. Without --cache-dir
 * nothing is read or written outside the named output files.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "farm/sweep.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

using namespace cnsim;

namespace
{

const std::vector<std::pair<std::string, L2Kind>> kinds = {
    {"shared", L2Kind::Shared},   {"private", L2Kind::Private},
    {"snuca", L2Kind::Snuca},     {"ideal", L2Kind::Ideal},
    {"nurapid", L2Kind::Nurapid}, {"update", L2Kind::Update},
    {"dnuca", L2Kind::Dnuca},
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --l2 <kind>        shared|private|snuca|ideal|nurapid|update|"
        "dnuca|all (default nurapid)\n"
        "  --workload <name>  oltp|apache|specjbb|ocean|barnes|mix1..mix4"
        "|mt|mp|all (default oltp)\n"
        "  --cores <N>        core count, 1..64 (default 4; other "
        "counts scale\n"
        "                     capacity at 2 MB/core and re-derive "
        "latencies)\n"
        "  --interconnect <i> bus|mesh|ring (default bus; mesh/ring "
        "use a\n"
        "                     directory protocol over the NoC)\n"
        "  --warmup <N>       warm-up instructions per core\n"
        "  --measure <N>      measured instructions per core\n"
        "  --seed <N>         workload seed (default 1)\n"
        "  --jobs <N>         worker threads for grid sweeps (default: "
        "hardware\n"
        "                     concurrency; results identical for any N)\n"
        "  --cache-dir <dir>  content-addressed result/checkpoint cache: "
        "cached cells\n"
        "                     print without running, shared warm-ups "
        "resume from a\n"
        "                     cached checkpoint (default: no cache; "
        "results identical)\n"
        "  --sample-windows <K>  interval sampling: K detailed windows "
        "separated by\n"
        "                     decode-only fast-forward, functional "
        "(untimed) warm-up;\n"
        "                     IPC is reported as mean +/- Student-t 95%% "
        "CI over the\n"
        "                     windows\n"
        "  --sample-detail <N>   measured instructions per window "
        "(default\n"
        "                     measure / (K*16))\n"
        "  --sample-warmup <N>   functionally-warmed instructions before "
        "each\n"
        "                     window (default = sample-detail)\n"
        "  --ckpt-save <file> warm up, save the CNCKPT01 machine state, "
        "then measure\n"
        "                     (grid sweeps insert <l2>-<workload> before "
        "the\n"
        "                     extension)\n"
        "  --ckpt-load <file> resume from a saved checkpoint instead of "
        "warming up\n"
        "                     (config- and trace-strict)\n"
        "  --no-cr            disable controlled replication (nurapid)\n"
        "  --no-isc           disable in-situ communication (nurapid)\n"
        "  --promotion <p>    fastest|next-fastest|none (nurapid)\n"
        "  --tag-factor <N>   nurapid tag-capacity multiple (1/2/4)\n"
        "  --stats            dump the full statistics block per run\n"
        "  --stats-csv <file> write per-run statistics as CSV "
        "(l2,workload,name,value)\n"
        "  --binlog-out <file> stream the measurement epoch's events and "
        "every\n"
        "                     metrics snapshot to a CNBLG01 binary log; "
        "cntrace\n"
        "                     renders it (summary, dump, Chrome JSON, "
        "metrics CSV)\n"
        "                     (grid sweeps insert <l2>-<workload> "
        "before the\n"
        "                     extension)\n"
        "  --metrics-interval <N>  snapshot the metrics registry every N "
        "ticks,\n"
        "                     warm-up included, into the binlog (needs "
        "--binlog-out)\n"
        "  --audit            run the online coherence-protocol auditor\n"
        "  --list             list workloads and organizations\n",
        argv0);
}

/**
 * Insert @p tag before @p path's extension ("t.json" + "nurapid-oltp"
 * -> "t.nurapid-oltp.json") so grid sweeps write one file per run.
 */
std::string
tagPath(const std::string &path, const std::string &tag)
{
    auto dot = path.rfind('.');
    auto slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << text;
}

std::vector<L2Kind>
parseKinds(const std::string &s)
{
    if (s == "all") {
        std::vector<L2Kind> all;
        for (const auto &kv : kinds)
            all.push_back(kv.second);
        return all;
    }
    for (const auto &kv : kinds) {
        if (kv.first == s)
            return {kv.second};
    }
    fatal("unknown L2 kind '%s'", s.c_str());
}

InterconnectKind
parseInterconnect(const std::string &s)
{
    if (s == "bus")
        return InterconnectKind::Bus;
    if (s == "mesh")
        return InterconnectKind::Mesh;
    if (s == "ring")
        return InterconnectKind::Ring;
    fatal("--interconnect must be bus, mesh or ring, got '%s'",
          s.c_str());
}

std::vector<std::string>
parseWorkloads(const std::string &s)
{
    if (s == "mt")
        return workloads::multithreadedNames();
    if (s == "mp")
        return workloads::multiprogrammedNames();
    if (s == "all") {
        auto v = workloads::multithreadedNames();
        for (const auto &m : workloads::multiprogrammedNames())
            v.push_back(m);
        return v;
    }
    workloads::byName(s);  // validates (fatal on unknown)
    return {s};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string l2_arg = "nurapid";
    std::string wl_arg = "oltp";
    // Every cell of the grid is this spec with its own organization,
    // workload and binlog path.
    farm::CellSpec base;
    base.warmup = 6'000'000;
    base.measure = 10'000'000;
    unsigned jobs = ParallelRunner::defaultWorkers();
    std::string cache_dir;
    bool want_stats = false;
    std::string promotion = "fastest";
    std::string ckpt_save_path;
    std::string ckpt_load_path;
    std::string stats_csv_path;
    std::string binlog_out;

    constexpr std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t max_workers = 1024;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return parseCount(a, next(), lo, hi);
        };
        if (a == "--l2") {
            l2_arg = next();
        } else if (a == "--workload") {
            wl_arg = next();
        } else if (a == "--cores") {
            base.cores = static_cast<std::uint32_t>(count(1, 64));
        } else if (a == "--interconnect") {
            base.interconnect =
                static_cast<std::uint32_t>(parseInterconnect(next()));
        } else if (a == "--warmup") {
            base.warmup = count(0, any);
        } else if (a == "--measure") {
            base.measure = count(1, any);
        } else if (a == "--seed") {
            base.seed = count(0, any);
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(count(1, max_workers));
        } else if (a == "--cache-dir") {
            cache_dir = next();
        } else if (a == "--stats") {
            want_stats = true;
        } else if (a == "--stats-csv") {
            stats_csv_path = next();
        } else if (a == "--binlog-out") {
            binlog_out = next();
        } else if (a == "--metrics-interval") {
            base.metrics_interval = count(0, any);
        } else if (a == "--audit") {
            base.audit = 1;
        } else if (a == "--no-cr") {
            base.enable_cr = 0;
        } else if (a == "--no-isc") {
            base.enable_isc = 0;
        } else if (a == "--promotion") {
            promotion = next();
        } else if (a == "--tag-factor") {
            base.tag_factor = static_cast<std::uint32_t>(count(1, 4));
            if (base.tag_factor == 3)
                fatal("--tag-factor must be 1, 2 or 4, got '3'");
        } else if (a == "--sample-windows") {
            base.sample_windows = static_cast<std::uint32_t>(
                count(1, std::numeric_limits<std::uint32_t>::max()));
        } else if (a == "--sample-detail") {
            base.sample_detail = count(0, any);
        } else if (a == "--sample-warmup") {
            base.sample_warmup = count(0, any);
        } else if (a == "--ckpt-save") {
            ckpt_save_path = next();
        } else if (a == "--ckpt-load") {
            ckpt_load_path = next();
        } else if (a == "--list") {
            std::printf("workloads (Table 3): ");
            for (const auto &w : workloads::multithreadedNames())
                std::printf("%s ", w.c_str());
            std::printf("\nworkloads (Table 2): ");
            for (const auto &w : workloads::multiprogrammedNames())
                std::printf("%s ", w.c_str());
            std::printf("\nL2 organizations:    ");
            for (const auto &kv : kinds)
                std::printf("%s ", kv.first.c_str());
            std::printf("\n");
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", a.c_str());
        }
    }

    if (promotion == "next-fastest")
        base.promotion =
            static_cast<std::uint32_t>(PromotionPolicy::NextFastest);
    else if (promotion == "none")
        base.promotion = static_cast<std::uint32_t>(PromotionPolicy::None);
    else if (promotion != "fastest")
        fatal("unknown promotion policy '%s'", promotion.c_str());
    base.collect_stats_dump = want_stats ? 1 : 0;
    base.collect_stats_csv = stats_csv_path.empty() ? 0 : 1;
    // Metrics snapshots stream to the binlog and nowhere else.
    if (base.metrics_interval > 0 && binlog_out.empty())
        fatal("--metrics-interval needs --binlog-out: snapshots stream "
              "to the binlog (render them with `cntrace csv`)");

    if (!ckpt_save_path.empty() && !ckpt_load_path.empty())
        fatal("--ckpt-save and --ckpt-load are mutually exclusive");
    // A cell's cache key covers its spec, not a user-supplied
    // checkpoint file.
    if (!cache_dir.empty() &&
        (!ckpt_save_path.empty() || !ckpt_load_path.empty()))
        fatal("--cache-dir manages warmed state through its checkpoint "
              "cache; drop --ckpt-save/--ckpt-load");

    // Build the (L2 kind x workload) grid in print order.
    const std::vector<L2Kind> kind_list = parseKinds(l2_arg);
    const std::vector<std::string> wl_list = parseWorkloads(wl_arg);
    const bool multi = kind_list.size() * wl_list.size() > 1;

    std::vector<farm::CellSpec> cells;
    std::vector<ParallelJob> batch;
    for (L2Kind kind : kind_list) {
        for (const auto &w : wl_list) {
            // Grid sweeps write one file per run, tagged by cell.
            const std::string tag = std::string(toString(kind)) + "-" + w;
            auto per_cell = [&](const std::string &path) {
                return multi && !path.empty() ? tagPath(path, tag) : path;
            };
            farm::CellSpec spec = base;
            spec.l2_kind = static_cast<std::uint32_t>(kind);
            spec.workload = w;
            spec.binlog_out = per_cell(binlog_out);
            ParallelJob job = farm::buildJob(spec);
            // Checkpoints are config-strict, so grid sweeps keep one
            // file per cell.
            job.run_cfg.ckpt_save = per_cell(ckpt_save_path);
            job.run_cfg.ckpt_load = per_cell(ckpt_load_path);
            cells.push_back(std::move(spec));
            batch.push_back(std::move(job));
        }
    }

    farm::FarmOptions fo;
    fo.workers = jobs;
    fo.cache_dir = cache_dir;
    const std::vector<RunResult> results =
        farm::runFarm(cells, std::move(batch), fo);

    const bool any_sampled = base.sample_windows > 0;
    std::printf("%-8s %-10s %8s %s%8s %8s %8s %8s %9s\n", "l2",
                "workload", "IPC", any_sampled ? "  +/-ci95 " : "",
                "hit%", "ros%", "rws%", "cap%", "cycles");
    for (const RunResult &r : results) {
        std::printf("%-8s %-10s %8.3f ", r.l2_kind.c_str(),
                    r.workload.c_str(), r.ipc);
        if (any_sampled)
            std::printf("+/-%6.3f ", r.ipc_ci95);
        std::printf("%7.1f%% %7.1f%% %7.1f%% %7.1f%% %9llu\n",
                    100 * r.frac_hit, 100 * r.frac_ros,
                    100 * r.frac_rws, 100 * r.frac_cap,
                    static_cast<unsigned long long>(r.cycles));
        if (want_stats)
            std::printf("%s\n", r.stats_dump.c_str());
        if (base.audit || !binlog_out.empty())
            inform("%s/%s: %llu binlog records, %llu audited transitions",
                   r.l2_kind.c_str(), r.workload.c_str(),
                   static_cast<unsigned long long>(r.trace_events),
                   static_cast<unsigned long long>(
                       r.audited_transitions));
    }

    if (!stats_csv_path.empty()) {
        // Merge the per-run CSVs into one file keyed by grid cell.
        std::string csv = "l2,workload,name,value\n";
        for (const RunResult &r : results) {
            std::size_t pos = r.stats_csv.find('\n');  // skip header
            pos = pos == std::string::npos ? r.stats_csv.size() : pos + 1;
            while (pos < r.stats_csv.size()) {
                std::size_t end = r.stats_csv.find('\n', pos);
                if (end == std::string::npos)
                    end = r.stats_csv.size();
                csv += r.l2_kind + "," + r.workload + "," +
                       r.stats_csv.substr(pos, end - pos) + "\n";
                pos = end + 1;
            }
        }
        writeTextFile(stats_csv_path, csv);
    }
    return 0;
}
