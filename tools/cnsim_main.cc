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
 * --jobs or --farm-jobs value.
 *
 * --farm-jobs moves the fan-out from threads to worker *processes*
 * with a content-addressed result/checkpoint cache (src/farm/); the
 * printed table stays byte-identical to the in-process path. The same
 * binary is also the farm worker (`cnsim --worker`, spawned by the
 * coordinator).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "farm/cache.hh"
#include "farm/coordinator.hh"
#include "farm/worker.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"

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
        "  --farm-jobs <N>    run the sweep on N worker *processes* "
        "with a\n"
        "                     content-addressed result/checkpoint cache "
        "(0 =\n"
        "                     hardware concurrency; results identical "
        "to --jobs)\n"
        "  --cache-dir <dir>  farm cache directory (default "
        "$CNSIM_CACHE_DIR,\n"
        "                     else ~/.cache/cnsim; '' disables "
        "caching)\n"
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
        "  --trace-capture <file>  save the canonical stream(s) as "
        "CNTRF001 (grids\n"
        "                     with several workloads insert the "
        "workload name\n"
        "                     before the extension)\n"
        "  --trace-replay <file>   drive every cell from a captured "
        "CNTRF001 trace\n"
        "                     (single workload name for labeling only)"
        "\n"
        "  --list             list workloads and organizations\n"
        "subcommands:\n"
        "  --worker [--cache-dir <dir>]\n"
        "                     farm worker loop on stdin/stdout "
        "(spawned by the\n"
        "                     --farm-jobs coordinator; not for "
        "interactive use)\n",
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
    // Subcommand dispatch before regular flag parsing: the worker mode
    // is a protocol loop, not a sweep driver.
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
        std::string cache_dir;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc)
                cache_dir = argv[++i];
            else
                fatal("--worker accepts only --cache-dir <dir>, "
                      "got '%s'", argv[i]);
        }
        return farm::workerMain(cache_dir);
    }

    std::string l2_arg = "nurapid";
    std::string wl_arg = "oltp";
    int cores = 4;
    InterconnectKind icn = InterconnectKind::Bus;
    RunConfig rc;
    rc.warmup_instructions = 6'000'000;
    rc.measure_instructions = 10'000'000;
    unsigned jobs = ParallelRunner::defaultWorkers();
    int farm_jobs = -1;  // -1 off, 0 hardware concurrency, N workers
    std::string cache_dir = farm::Cache::defaultDir();
    bool want_stats = false;
    bool no_cr = false;
    bool no_isc = false;
    std::string promotion = "fastest";
    unsigned tag_factor = 2;
    std::string ckpt_save_path;
    std::string ckpt_load_path;
    std::string trace_capture_path;
    std::string trace_replay_path;
    std::string stats_csv_path;
    std::string binlog_out;
    std::uint64_t metrics_interval = 0;
    bool audit = false;

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
            cores = static_cast<int>(count(1, 64));
        } else if (a == "--interconnect") {
            icn = parseInterconnect(next());
        } else if (a == "--warmup") {
            rc.warmup_instructions = count(0, any);
        } else if (a == "--measure") {
            rc.measure_instructions = count(1, any);
        } else if (a == "--seed") {
            rc.seed = count(0, any);
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(count(1, max_workers));
        } else if (a == "--farm-jobs") {
            farm_jobs = static_cast<int>(count(0, max_workers));
        } else if (a == "--cache-dir") {
            cache_dir = next();
        } else if (a == "--stats") {
            want_stats = true;
        } else if (a == "--stats-csv") {
            stats_csv_path = next();
        } else if (a == "--binlog-out") {
            binlog_out = next();
        } else if (a == "--metrics-interval") {
            metrics_interval = count(0, any);
        } else if (a == "--audit") {
            audit = true;
        } else if (a == "--no-cr") {
            no_cr = true;
        } else if (a == "--no-isc") {
            no_isc = true;
        } else if (a == "--promotion") {
            promotion = next();
        } else if (a == "--tag-factor") {
            tag_factor = static_cast<unsigned>(count(1, 4));
            if (tag_factor == 3)
                fatal("--tag-factor must be 1, 2 or 4, got '3'");
        } else if (a == "--sample-windows") {
            rc.sample_windows = static_cast<unsigned>(
                count(1, std::numeric_limits<unsigned>::max()));
        } else if (a == "--sample-detail") {
            rc.sample_detail = count(0, any);
        } else if (a == "--sample-warmup") {
            rc.sample_warmup = count(0, any);
        } else if (a == "--ckpt-save") {
            ckpt_save_path = next();
        } else if (a == "--ckpt-load") {
            ckpt_load_path = next();
        } else if (a == "--trace-capture") {
            trace_capture_path = next();
        } else if (a == "--trace-replay") {
            trace_replay_path = next();
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

    rc.collect_stats_dump = want_stats;
    rc.collect_stats_csv = !stats_csv_path.empty();
    // Metrics snapshots stream to the binlog and nowhere else.
    if (metrics_interval > 0 && binlog_out.empty())
        fatal("--metrics-interval needs --binlog-out: snapshots stream "
              "to the binlog (render them with `cntrace csv`)");

    const bool ckpt =
        !ckpt_save_path.empty() || !ckpt_load_path.empty();
    if (!ckpt_save_path.empty() && !ckpt_load_path.empty())
        fatal("--ckpt-save and --ckpt-load are mutually exclusive");
    if (!trace_capture_path.empty() && !trace_replay_path.empty())
        fatal("--trace-capture and --trace-replay are mutually "
              "exclusive");

    const bool farm_mode = farm_jobs >= 0;
    if (farm_mode) {
        if (!trace_capture_path.empty() || !trace_replay_path.empty())
            fatal("--farm-jobs cannot capture or replay CNTRF001 "
                  "traces; cells rebuild their canonical streams from "
                  "parameters");
        if (ckpt)
            fatal("--farm-jobs manages warmed state through its "
                  "checkpoint cache; drop --ckpt-save/--ckpt-load");
    }

    // Build the (L2 kind x workload) grid in print order.
    const std::vector<L2Kind> kind_list = parseKinds(l2_arg);
    const std::vector<std::string> wl_list = parseWorkloads(wl_arg);
    const bool multi = kind_list.size() * wl_list.size() > 1;

    // A captured trace replays one workload's stream; a grid over
    // several workloads has no single stream to replay.
    if (!trace_replay_path.empty() && wl_list.size() > 1)
        fatal("--trace-replay drives a single workload (got %zu)",
              wl_list.size());

    // Stream delivery is planned per batch by the ParallelRunner
    // (planStreams) -- except here, where the stream is user input:
    // --trace-replay drives every cell from the captured file, and
    // --trace-capture attaches each workload's shared materialized
    // stream so it can be saved afterwards.
    std::shared_ptr<RecordedTrace> frozen;
    if (!trace_replay_path.empty()) {
        frozen = RecordedTrace::fromFile(trace_replay_path);
        inform("replaying '%s': %d cores, %llu records/core published",
               trace_replay_path.c_str(), frozen->cores(),
               static_cast<unsigned long long>(
                   frozen->recordsPublished(0)));
    }
    std::vector<std::pair<std::string, std::shared_ptr<RecordedTrace>>>
        captured;
    auto trace_for = [&](const std::string &w)
        -> std::shared_ptr<RecordedTrace> {
        if (frozen)
            return frozen;
        if (trace_capture_path.empty())
            return nullptr;
        for (const auto &ct : captured)
            if (ct.first == w)
                return ct.second;
        captured.emplace_back(w, Runner::acquireSharedTrace(
                                     workloads::byName(w, cores), rc));
        return captured.back().second;
    };

    ParallelRunner pool(jobs);
    std::vector<farm::CellSpec> farm_cells;
    std::vector<RunResult> results;
    for (L2Kind kind : kind_list) {
        SystemConfig cfg = Runner::paperConfig(kind, cores, icn);
        cfg.nurapid.enable_cr = !no_cr;
        cfg.nurapid.enable_isc = !no_isc;
        cfg.nurapid.tag_factor = tag_factor;
        if (promotion == "next-fastest")
            cfg.nurapid.promotion = PromotionPolicy::NextFastest;
        else if (promotion == "none")
            cfg.nurapid.promotion = PromotionPolicy::None;
        else if (promotion != "fastest")
            fatal("unknown promotion policy '%s'", promotion.c_str());
        cfg.obs.audit = audit;
        cfg.obs.metrics_interval = metrics_interval;

        for (const auto &w : wl_list) {
            RunConfig run = rc;
            run.replay = trace_for(w);
            if (run.replay && run.replay->cores() != cfg.num_cores) {
                fatal("trace '%s' has %d cores but the system has %d",
                      trace_replay_path.c_str(), run.replay->cores(),
                      cfg.num_cores);
            }
            // Grid sweeps write one binlog per run, tagged by cell.
            if (!binlog_out.empty())
                run.binlog_out =
                    multi ? tagPath(binlog_out,
                                    std::string(toString(kind)) + "-" + w)
                          : binlog_out;
            // Checkpoints are config-strict, so grid sweeps keep one
            // file per cell.
            if (!ckpt_save_path.empty())
                run.ckpt_save =
                    multi ? tagPath(ckpt_save_path,
                                    std::string(toString(kind)) + "-" + w)
                          : ckpt_save_path;
            if (!ckpt_load_path.empty())
                run.ckpt_load =
                    multi ? tagPath(ckpt_load_path,
                                    std::string(toString(kind)) + "-" + w)
                          : ckpt_load_path;
            if (farm_mode) {
                farm::CellSpec spec;
                spec.l2_kind = static_cast<std::uint32_t>(kind);
                spec.cores = static_cast<std::uint32_t>(cores);
                spec.interconnect = static_cast<std::uint32_t>(icn);
                spec.enable_cr = cfg.nurapid.enable_cr ? 1 : 0;
                spec.enable_isc = cfg.nurapid.enable_isc ? 1 : 0;
                spec.promotion =
                    static_cast<std::uint32_t>(cfg.nurapid.promotion);
                spec.tag_factor = tag_factor;
                spec.audit = audit ? 1 : 0;
                spec.metrics_interval = metrics_interval;
                spec.binlog_out = run.binlog_out;
                spec.workload = w;
                spec.warmup = rc.warmup_instructions;
                spec.measure = rc.measure_instructions;
                spec.quantum = rc.quantum;
                spec.seed = rc.seed;
                spec.sample_windows = rc.sample_windows;
                spec.sample_detail = rc.sample_detail;
                spec.sample_warmup = rc.sample_warmup;
                spec.collect_stats_dump = rc.collect_stats_dump ? 1 : 0;
                spec.collect_stats_csv = rc.collect_stats_csv ? 1 : 0;
                farm_cells.push_back(spec);
            } else {
                pool.submit(cfg, workloads::byName(w, cores), run);
            }
        }
    }

    if (farm_mode) {
        farm::FarmOptions fo;
        fo.workers = static_cast<unsigned>(farm_jobs);
        fo.cache_dir = cache_dir;
        results = farm::runFarm(farm_cells, fo);
    } else {
        pool.onProgress([](const JobReport &rep) {
            inform("[%zu/%zu] %s/%s: %.1fs", rep.completed, rep.total,
                   rep.result->l2_kind.c_str(),
                   rep.result->workload.c_str(), rep.seconds);
        });
        results = pool.run();
    }

    const bool any_sampled = rc.sample_windows > 0;
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
        if (audit || !binlog_out.empty())
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
    if (!trace_capture_path.empty()) {
        // Save exactly what the grid consumed: the published prefix of
        // each workload's canonical stream.
        for (const auto &ct : captured) {
            std::string path = wl_list.size() > 1
                                   ? tagPath(trace_capture_path, ct.first)
                                   : trace_capture_path;
            ct.second->saveTrf(path);
            inform("captured %s: %llu records/core, %.1f MB resident "
                   "(packed on disk by the CNTRF001 codec)",
                   path.c_str(),
                   static_cast<unsigned long long>(
                       ct.second->recordsPublished(0)),
                   static_cast<double>(ct.second->bytesPublished()) /
                       (1024.0 * 1024.0));
        }
    }
    return 0;
}
