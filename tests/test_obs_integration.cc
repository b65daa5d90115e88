/**
 * @file
 * Integration tests for the observability subsystem through the
 * Runner: the auditor passes on real workloads for every L2
 * organization, observability never perturbs simulated timing,
 * binlogs are deterministic across ParallelRunner worker counts, a
 * binlog round-trips through the cntrace reader with event counts
 * that agree with the run's statistics counters, and the metrics
 * series it carries starts at warm-up.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "cnsim_obsint_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

obs::BinlogData
readLog(const std::string &path)
{
    obs::BinlogData data;
    std::string err;
    EXPECT_TRUE(obs::readBinlog(path, data, &err)) << err;
    return data;
}

/** The tick column of a binlogMetricsCsv rendering, one per row. */
std::vector<Tick>
rowTicks(const std::string &csv)
{
    std::vector<Tick> ticks;
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line))
        ticks.push_back(std::strtoull(line.c_str(), nullptr, 10));
    return ticks;
}

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmup_instructions = 80'000;
    rc.measure_instructions = 120'000;
    return rc;
}

/** Every timing-visible field of a RunResult, for bit-identity checks. */
void
expectIdenticalTiming(const RunResult &a, const RunResult &b,
                      const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.l2_accesses, b.l2_accesses) << what;
    EXPECT_EQ(a.frac_hit, b.frac_hit) << what;
    EXPECT_EQ(a.frac_ros, b.frac_ros) << what;
    EXPECT_EQ(a.frac_rws, b.frac_rws) << what;
    EXPECT_EQ(a.frac_cap, b.frac_cap) << what;
    EXPECT_EQ(a.miss_rate, b.miss_rate) << what;
    EXPECT_EQ(a.bus_transactions, b.bus_transactions) << what;
    EXPECT_EQ(a.mem_reads, b.mem_reads) << what;
    EXPECT_EQ(a.mem_writebacks, b.mem_writebacks) << what;
    ASSERT_EQ(a.core_ipc.size(), b.core_ipc.size()) << what;
    for (std::size_t i = 0; i < a.core_ipc.size(); ++i)
        EXPECT_EQ(a.core_ipc[i], b.core_ipc[i]) << what;
}

TEST(ObsIntegration, AuditorPassesOnEveryOrgAndMtWorkload)
{
    const L2Kind all[] = {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                          L2Kind::Ideal,  L2Kind::Nurapid, L2Kind::Update,
                          L2Kind::Dnuca};
    for (L2Kind kind : all) {
        SystemConfig cfg = Runner::paperConfig(kind);
        cfg.obs.audit = true;
        for (const auto &wl : workloads::multithreadedNames()) {
            RunResult r =
                Runner::run(cfg, workloads::byName(wl), shortRun());
            EXPECT_GT(r.audited_transitions, 0u)
                << toString(kind) << "/" << wl;
        }
    }
}

TEST(ObsIntegration, ObservabilityDoesNotPerturbTiming)
{
    // The acceptance bar for the whole subsystem: a fully instrumented
    // run (binlog + audit + metrics) must report simulated results
    // bit-identical to a plain run of the same configuration.
    for (L2Kind kind : {L2Kind::Nurapid, L2Kind::Private}) {
        SystemConfig cfg = Runner::paperConfig(kind);
        WorkloadSpec wl = workloads::byName("oltp");
        RunResult plain = Runner::run(cfg, wl, shortRun());

        SystemConfig obs_cfg = cfg;
        obs_cfg.obs.audit = true;
        obs_cfg.obs.metrics_interval = 50'000;
        RunConfig rc = shortRun();
        rc.binlog_out = tmpPath(std::string("perturb_") + toString(kind) +
                                ".blg");
        RunResult traced = Runner::run(obs_cfg, wl, rc);

        expectIdenticalTiming(plain, traced, toString(kind));
        EXPECT_GT(traced.trace_events, 0u);
        EXPECT_GT(traced.audited_transitions, 0u);
        EXPECT_GT(rowTicks(obs::binlogMetricsCsv(readLog(rc.binlog_out)))
                      .size(),
                  0u);
        std::remove(rc.binlog_out.c_str());
    }
}

TEST(ObsIntegration, RepeatedRunsAreBitIdentical)
{
    // Tracing disabled: two identical runs must agree exactly (the
    // pre-existing determinism contract the subsystem must not break).
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    WorkloadSpec wl = workloads::byName("apache");
    RunResult a = Runner::run(cfg, wl, shortRun());
    RunResult b = Runner::run(cfg, wl, shortRun());
    expectIdenticalTiming(a, b, "repeat");
}

TEST(ObsIntegration, TracesIdenticalAcrossWorkerCounts)
{
    // Two-cell grid streaming binlogs under jobs=1 and jobs=2: the
    // files must be byte-identical (per-System sinks and writers, no
    // process-global state).
    const std::string wls[] = {"oltp", "ocean"};
    std::vector<std::string> files[2];
    for (int jobs = 1; jobs <= 2; ++jobs) {
        ParallelRunner pool(jobs);
        for (const auto &wl : wls) {
            SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
            cfg.obs.audit = true;
            RunConfig rc = shortRun();
            cfg.obs.metrics_interval = 20'000;
            rc.binlog_out = tmpPath("det_j" + std::to_string(jobs) + "_" +
                                    wl + ".blg");
            files[jobs - 1].push_back(rc.binlog_out);
            pool.submit(cfg, workloads::byName(wl), rc);
        }
        std::vector<RunResult> results = pool.run();
        ASSERT_EQ(results.size(), 2u);
        for (const RunResult &r : results)
            EXPECT_GT(r.trace_events, 0u);
    }
    for (std::size_t i = 0; i < files[0].size(); ++i) {
        std::string a = slurp(files[0][i]);
        std::string b = slurp(files[1][i]);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << wls[i];
        std::remove(files[0][i].c_str());
        std::remove(files[1][i].c_str());
    }
}

TEST(ObsIntegration, BinaryTraceRoundTripMatchesCounters)
{
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.metrics_interval = 50'000;
    RunConfig rc = shortRun();
    rc.binlog_out = tmpPath("roundtrip.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);

    obs::BinlogData data = readLog(rc.binlog_out);
    // Every streamed record made it to disk and back.
    EXPECT_EQ(data.records.size(), r.trace_events);
    EXPECT_EQ(data.dropped, 0u);
    EXPECT_FALSE(data.components.empty());

    // Events were streamed only over the measurement epoch, so the
    // busTx count must equal the run's bus-transaction statistic: one
    // event and one counter increment per transaction.
    std::uint64_t bus_events = 0;
    for (const obs::TraceEvent &ev : obs::binlogEvents(data))
        bus_events += ev.kind == obs::EventKind::BusTx ? 1 : 0;
    EXPECT_EQ(bus_events, r.bus_transactions);
    std::remove(rc.binlog_out.c_str());
}

TEST(ObsIntegration, ChromeJsonExportIsWellFormed)
{
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.audit = true;
    RunConfig rc = shortRun();
    rc.binlog_out = tmpPath("chrome.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);
    EXPECT_GT(r.trace_events, 0u);

    // `cntrace json` renders the binlog offline.
    obs::BinlogData data = readLog(rc.binlog_out);
    const std::string json_path = tmpPath("chrome.json");
    obs::writeChromeJson(json_path, obs::binlogEvents(data),
                         data.components, data.dropped);
    std::string json = slurp(json_path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("mem.bus"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    std::remove(rc.binlog_out.c_str());
    std::remove(json_path.c_str());
}

TEST(ObsIntegration, WarmupMetricsRowsReachTheBinlog)
{
    // Regression: the binlog used to open at the measurement epoch, so
    // a warmed run's metrics series lost every warm-up row.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.metrics_interval = 20'000;
    RunConfig rc = shortRun();
    rc.binlog_out = tmpPath("warmup.blg");
    RunResult r = Runner::run(cfg, workloads::byName("oltp"), rc);

    std::vector<Tick> ticks =
        rowTicks(obs::binlogMetricsCsv(readLog(rc.binlog_out)));
    ASSERT_FALSE(ticks.empty());
    // finish() writes the last row at the run's end tick.
    const Tick epoch = ticks.back() - r.cycles;
    EXPECT_GT(std::count_if(ticks.begin(), ticks.end(),
                            [epoch](Tick t) { return t < epoch; }),
              0);
    EXPECT_NE(std::find(ticks.begin(), ticks.end(), epoch), ticks.end());
    EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()));
    std::remove(rc.binlog_out.c_str());
}

TEST(ObsIntegration, BinlogRowsMatchRegistrySnapshots)
{
    // Every snapshot the registry takes -- warm-up, epoch, measurement
    // and the trailing one -- is one row of the binlog's series. A
    // gauge that counts its own samples counts the snapshots.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    cfg.obs.metrics_interval = 20'000;
    cfg.obs.binlog_out = tmpPath("rows.blg");
    std::size_t samples = 0;
    {
        System sys(cfg);
        sys.metrics()->addGauge("test.samples", [&samples]() {
            return static_cast<double>(++samples);
        });
        for (Tick t = 20'000; t <= 100'000; t += 20'000)
            sys.obsTick(t);  // warm-up
        sys.resetStats();
        sys.metrics()->snapshot(100'000);  // the epoch
        for (Tick t = 120'000; t <= 200'000; t += 20'000)
            sys.obsTick(t);
        sys.finishObs(210'000);
    }
    std::vector<Tick> ticks =
        rowTicks(obs::binlogMetricsCsv(readLog(cfg.obs.binlog_out)));
    EXPECT_EQ(ticks.size(), samples);
    ASSERT_FALSE(ticks.empty());
    EXPECT_EQ(ticks.front(), 20'000u);
    EXPECT_EQ(ticks.back(), 210'000u);
    std::remove(cfg.obs.binlog_out.c_str());
}

} // namespace
} // namespace cnsim
