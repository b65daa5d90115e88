/**
 * @file
 * Unit tests for the obs::TraceSink event recorder: activation and
 * arming semantics, component registration, and the sink-to-binlog
 * stream read back through readBinlog, plus the offline renderers
 * (Chrome JSON, summary, one-line format) cntrace applies to it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "cnsim_obs_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** What an armed sink streamed, read back from its binlog. */
struct Streamed
{
    std::vector<obs::TraceEvent> events;
    std::vector<std::string> components;
};

/**
 * Attach a binlog to @p sink (its components must be registered), arm
 * it, run @p emit, and read the stream back.
 */
Streamed
streamThrough(obs::TraceSink &sink, const std::string &tag,
              const std::function<void()> &emit)
{
    const std::string path = tmpPath(tag + ".blg");
    {
        obs::BinlogWriter w(path);
        w.begin(sink.components(), {});
        sink.setBinlog(&w);
        sink.armRecording();
        emit();
        w.finish();
        sink.setBinlog(nullptr);
    }
    obs::BinlogData data;
    std::string err;
    EXPECT_TRUE(obs::readBinlog(path, data, &err)) << err;
    std::remove(path.c_str());
    return {obs::binlogEvents(data), data.components};
}

TEST(TraceSink, DisabledSinkIsInert)
{
    obs::TraceSink sink;  // neither a binlog nor a listener
    EXPECT_FALSE(sink.active());
    sink.transition(10, 0, 0, 0x40, CohState::Invalid,
                    CohState::Modified, obs::TransCause::PrWr);
    sink.busTx(20, 0, BusCmd::BusRd, 8);
    sink.armRecording();  // no binlog: arming must not activate it
    EXPECT_FALSE(sink.active());
    sink.busTx(30, 0, BusCmd::BusRd, 8);
    EXPECT_EQ(sink.recordedEvents(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, ArmingGatesStorageButNotTheListener)
{
    obs::TraceSink sink;
    int listened = 0;
    sink.setListener([&](const obs::TraceEvent &) { ++listened; });
    int bus = sink.registerComponent("mem.bus");

    const std::string path = tmpPath("arming.blg");
    obs::BinlogWriter w(path);
    w.begin(sink.components(), {});
    sink.setBinlog(&w);

    // Pre-arm (warm-up): listener sees events, the binlog does not.
    sink.busTx(5, bus, BusCmd::BusRd, 8);
    EXPECT_EQ(listened, 1);
    EXPECT_EQ(sink.recordedEvents(), 0u);

    sink.armRecording();
    sink.busTx(15, bus, BusCmd::BusRdX, 8);
    EXPECT_EQ(listened, 2);
    EXPECT_EQ(sink.recordedEvents(), 1u);
    w.finish();

    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    std::vector<obs::TraceEvent> events = obs::binlogEvents(data);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tick, 15u);
    std::remove(path.c_str());
}

TEST(TraceSink, RegisterComponentDeduplicates)
{
    obs::TraceSink sink;
    int a = sink.registerComponent("l2.core0");
    int b = sink.registerComponent("mem.bus");
    int a2 = sink.registerComponent("l2.core0");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    ASSERT_EQ(sink.components().size(), 2u);
    EXPECT_EQ(sink.components()[a], "l2.core0");
}

TEST(TraceSink, PerKindCountsAndApproxNow)
{
    obs::TraceSink sink;
    int c = sink.registerComponent("x");
    Streamed s = streamThrough(
        sink, "perkind",
        [&] {
            sink.busTx(10, c, BusCmd::BusRd, 8);
            sink.transition(20, c, 1, 0x80, CohState::Invalid,
                            CohState::Exclusive, obs::TransCause::Fill);
            sink.transition(30, c, 1, 0x80, CohState::Exclusive,
                            CohState::Modified, obs::TransCause::PrWr);
            sink.dgroupOp(40, c, 1, 0x80, obs::DGroupOp::Hit, 2, true);
            sink.backInval(50, c, 0, 0x80, 2);
            sink.resourceAcquire(60, c, 4, 8);
            sink.coreStall(70, c, 3, 0x80, 100);
        });

    auto count = [&](obs::EventKind k) {
        return std::count_if(
            s.events.begin(), s.events.end(),
            [k](const obs::TraceEvent &ev) { return ev.kind == k; });
    };
    EXPECT_EQ(count(obs::EventKind::BusTx), 1);
    EXPECT_EQ(count(obs::EventKind::Transition), 2);
    EXPECT_EQ(count(obs::EventKind::DGroup), 1);
    EXPECT_EQ(count(obs::EventKind::L1BackInval), 1);
    EXPECT_EQ(count(obs::EventKind::Resource), 1);
    EXPECT_EQ(count(obs::EventKind::CoreStall), 1);
    EXPECT_EQ(s.events.size(), 7u);
    EXPECT_EQ(sink.approxNow(), 70u);
}

TEST(TraceSink, DroppedCountSurfacesInEveryExport)
{
    // Regression: a capture that lost events used to render without
    // any trace of the truncation -- the output looked complete. A
    // CNBLG01 trailer's drop field reaches both offline renderers.
    obs::TraceSink sink;
    int c = sink.registerComponent("mem.bus");
    std::vector<obs::TraceEvent> events;
    sink.setListener(
        [&](const obs::TraceEvent &ev) { events.push_back(ev); });
    for (int i = 0; i < 3; ++i)
        sink.busTx(i, c, BusCmd::BusRd, 8);
    ASSERT_EQ(events.size(), 3u);

    std::string sum = obs::summarize(events, sink.components(), 7);
    EXPECT_NE(sum.find("incomplete capture"), std::string::npos);
    EXPECT_NE(sum.find("7 events dropped"), std::string::npos);

    const std::string json_path = tmpPath("dropped.json");
    obs::writeChromeJson(json_path, events, sink.components(), 7);
    std::string json = slurp(json_path);
    EXPECT_NE(json.find("\"droppedEvents\":7"), std::string::npos);
    std::remove(json_path.c_str());
}

TEST(TraceSink, WideDurationsSurviveBinaryRoundTrip)
{
    // Regression: busTx/resourceAcquire/coreStall used to truncate
    // Tick durations to uint32, so a stall >= 2^32 ticks wrapped.
    const std::uint64_t wide = (std::uint64_t{1} << 32) + 99;
    obs::TraceSink sink;
    int c = sink.registerComponent("x");
    Streamed s = streamThrough(
        sink, "wide",
        [&] {
            sink.coreStall(10, c, 0, 0x40, wide);
            sink.busTx(20, c, BusCmd::BusRd, wide + 1);
            sink.resourceAcquire(30, c, 4, wide + 2);
        });
    ASSERT_EQ(s.events.size(), 3u);
    EXPECT_EQ(s.events[0].dur, wide);
    EXPECT_EQ(s.events[1].dur, wide + 1);
    EXPECT_EQ(s.events[2].dur, wide + 2);
}

TEST(TraceSink, BinaryRoundTripPreservesEverything)
{
    obs::TraceSink sink;
    int bus = sink.registerComponent("mem.bus");
    int core = sink.registerComponent("l2.core1");
    std::vector<obs::TraceEvent> sent;
    sink.setListener(
        [&](const obs::TraceEvent &ev) { sent.push_back(ev); });
    Streamed s = streamThrough(
        sink, "roundtrip",
        [&] {
            sink.busTx(10, bus, BusCmd::BusUpg, 8);
            sink.transition(22, core, 1, 0xabc0, CohState::Shared,
                            CohState::Communication,
                            obs::TransCause::BusUpg,
                            obs::trans_flag_broadcast);
            sink.dgroupOp(33, core, 1, 0xabc0,
                          obs::DGroupOp::Replication, 3, true);
            sink.coreStall(44, core, 1, 0xabc0, 77);
            sink.directoryState(55, bus, 2, 0xabc0, 0x5, 2,
                                BusCmd::BusRdX);
        });

    ASSERT_EQ(s.components.size(), 2u);
    EXPECT_EQ(s.components[bus], "mem.bus");
    EXPECT_EQ(s.components[core], "l2.core1");
    ASSERT_EQ(s.events.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
        const obs::TraceEvent &a = sent[i];
        const obs::TraceEvent &b = s.events[i];
        EXPECT_EQ(a.tick, b.tick);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.arg, b.arg);
        EXPECT_EQ(a.dur, b.dur);
        EXPECT_EQ(a.component, b.component);
        EXPECT_EQ(a.core, b.core);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.a, b.a);
        EXPECT_EQ(a.b, b.b);
        EXPECT_EQ(a.c, b.c);
    }
}

TEST(TraceSink, ChromeJsonMentionsTracksAndEvents)
{
    obs::TraceSink sink;
    int bus = sink.registerComponent("mem.bus");
    Streamed s = streamThrough(
        sink, "chrome",
        [&] {
            sink.busTx(10, bus, BusCmd::BusRd, 8);
            sink.transition(20, bus, 0, 0x40, CohState::Invalid,
                            CohState::Exclusive, obs::TransCause::Fill);
        });

    const std::string path = tmpPath("trace.json");
    obs::writeChromeJson(path, s.events, s.components);
    std::string json = slurp(path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("mem.bus"), std::string::npos);
    EXPECT_NE(json.find("BusRd"), std::string::npos);
    // Balanced braces is a cheap structural sanity check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    std::remove(path.c_str());
}

TEST(TraceSink, SummaryAndFormatAreHumanReadable)
{
    obs::TraceSink sink;
    int c = sink.registerComponent("l2.nurapid.core0.tag");
    std::vector<obs::TraceEvent> events;
    sink.setListener(
        [&](const obs::TraceEvent &ev) { events.push_back(ev); });
    sink.transition(10, c, 0, 0x1000, CohState::Invalid,
                    CohState::Modified, obs::TransCause::PrWr);
    ASSERT_EQ(events.size(), 1u);
    std::string line = obs::formatEvent(events[0], sink.components());
    EXPECT_NE(line.find("l2.nurapid.core0.tag"), std::string::npos);
    EXPECT_NE(line.find("PrWr"), std::string::npos);

    std::string sum = obs::summarize(events, sink.components());
    EXPECT_NE(sum.find("transition"), std::string::npos);
}

} // namespace
} // namespace cnsim
