/**
 * @file
 * Unit tests for the obs::MetricsRegistry time-series registry:
 * counter/gauge sampling, interval-driven snapshots, StatGroup import,
 * and the snapshot rows it streams to a CNBLG01 binlog, rendered back
 * through binlogMetricsCsv (what `cntrace csv` prints).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "common/stats.hh"
#include "obs/binlog.hh"
#include "obs/metrics.hh"

namespace cnsim
{
namespace
{

/**
 * Stream @p reg's snapshots to a fresh binlog while @p drive runs,
 * and @return the metrics CSV rendered from the file.
 */
std::string
csvOf(obs::MetricsRegistry &reg, const std::function<void()> &drive)
{
    // One file per test: ctest runs each test as its own process, in
    // parallel with the others.
    const std::string path =
        std::string(::testing::TempDir()) + "cnsim_metrics_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".blg";
    {
        obs::BinlogWriter w(path);
        w.begin({}, reg.metricPaths());
        reg.setBinlog(&w);
        drive();
        w.finish();
        reg.setBinlog(nullptr);
    }
    obs::BinlogData data;
    std::string err;
    EXPECT_TRUE(obs::readBinlog(path, data, &err)) << err;
    std::remove(path.c_str());
    return obs::binlogMetricsCsv(data);
}

/** Data rows (lines after the header) of @p csv. */
int
rowsOf(const std::string &csv)
{
    int lines = 0;
    for (char ch : csv)
        lines += ch == '\n';
    return lines - 1;
}

TEST(MetricsRegistry, CountersAndGaugesSample)
{
    Counter hits;
    double level = 1.5;
    obs::MetricsRegistry reg;
    reg.addCounter("l2.hits", &hits);
    reg.addGauge("l2.occupancy", [&]() { return level; });
    EXPECT_EQ(reg.numMetrics(), 2u);

    std::string csv = csvOf(reg, [&] {
        hits.inc(3);
        reg.snapshot(100);
        hits.inc(2);
        level = 4.0;
        reg.snapshot(200);
    });
    EXPECT_EQ(csv, "tick,l2.hits,l2.occupancy\n"
                   "100,3,1.5\n"
                   "200,5,4\n");
}

TEST(MetricsRegistry, TickHonoursInterval)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.setInterval(100);

    std::string csv = csvOf(reg, [&] {
        reg.tick(0);    // first tick establishes the baseline snapshot
        reg.tick(40);   // not yet
        reg.tick(90);   // not yet
        reg.tick(120);  // crossed one interval
        reg.tick(130);  // within the next interval
        reg.tick(500);  // crossed again (late tick still snapshots once)
    });
    EXPECT_EQ(csv, "tick,c\n0,0\n120,0\n500,0\n");
}

TEST(MetricsRegistry, ZeroIntervalDisablesTick)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    std::string csv = csvOf(reg, [&] {
        reg.tick(100);
        reg.tick(10000);
    });
    EXPECT_EQ(rowsOf(csv), 0);
    csv = csvOf(reg, [&] { reg.snapshot(1); });  // explicit still works
    EXPECT_EQ(csv, "tick,c\n1,0\n");
}

TEST(MetricsRegistry, ImportStatGroupTracksEverything)
{
    Counter reads, writes;
    Scalar ipc;
    StatGroup g("sys");
    g.addCounter("mem.reads", &reads, "reads");
    g.addCounter("mem.writes", &writes, "writes");
    g.addScalar("core.ipc", &ipc, "ipc");

    obs::MetricsRegistry reg;
    reg.importStatGroup(g);
    EXPECT_EQ(reg.numMetrics(), 3u);

    std::string csv = csvOf(reg, [&] {
        reads.inc(7);
        ipc.set(1.25);
        reg.snapshot(10);
        writes.inc(4);
        reg.snapshot(20);
    });
    EXPECT_EQ(csv, "tick,mem.reads,mem.writes,core.ipc\n"
                   "10,7,0,1.25\n"
                   "20,7,4,1.25\n");
}

TEST(MetricsRegistry, FinishEmitsTrailingPartialInterval)
{
    // Regression: tick() only snapshots on full intervals, so a run
    // whose length is not a multiple of the interval used to lose its
    // trailing partial window. finish() must close the series so the
    // last row covers the run's final tick.
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.setInterval(100);

    std::string csv = csvOf(reg, [&] {
        reg.tick(0);
        c.inc(10);
        reg.tick(100);
        c.inc(5);
        reg.tick(130);   // partial window: no snapshot yet
        reg.finish(130); // run ends at tick 130
        // finish() at an already-snapshotted tick must not duplicate
        // rows.
        reg.finish(130);
    });
    EXPECT_EQ(csv, "tick,c\n0,0\n100,10\n130,15\n");
}

TEST(MetricsRegistry, CsvHasHeaderAndOneRowPerSnapshot)
{
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("a.b", &c);
    std::string csv = csvOf(reg, [&] {
        c.inc();
        reg.snapshot(5);
        c.inc();
        reg.snapshot(10);
    });
    EXPECT_NE(csv.find("tick"), std::string::npos);
    EXPECT_NE(csv.find("a.b"), std::string::npos);
    EXPECT_EQ(rowsOf(csv), 2);
}

TEST(MetricsRegistry, SnapshotsWithoutAnActiveBinlogKeepTheCadence)
{
    // A snapshot taken before the binlog opens samples nothing but
    // still counts for the interval, so opening the log mid-run never
    // shifts the rows that follow.
    Counter c;
    obs::MetricsRegistry reg;
    reg.addCounter("c", &c);
    reg.setInterval(100);
    reg.tick(0);
    std::string csv = csvOf(reg, [&] {
        reg.tick(50);   // within the interval begun at tick 0
        reg.tick(100);
    });
    EXPECT_EQ(csv, "tick,c\n100,0\n");
}

} // namespace
} // namespace cnsim
