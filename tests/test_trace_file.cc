/**
 * @file
 * Tests for the CNTRF001 trace file: hand-picked records survive a
 * save/load round trip, a trace loaded from a file wraps at its end,
 * and a file without the CNTRF001 magic is rejected loudly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "trace/replay.hh"
#include "trace/trace_file.hh"

namespace cnsim
{
namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "cnsim_trace_" + tag +
           ".trf";
}

TEST(TraceFile, RoundTripPreservesRecords)
{
    std::string path = tempPath("roundtrip");
    std::vector<std::vector<TraceRecord>> recs = {{
        {3, 0x30000000, 0x1000, MemOp::Load},
        {0, 0x30000040, 0x2040, MemOp::Store},
        {17, 0x30001000, 0x40000080, MemOp::Load},
        {1, 0, 0xdeadbeef00, MemOp::Ifetch},
    }};
    RecordedTrace::fromRecords(recs)->saveTrf(path);

    PackedTrace raw = readTrf(path);
    ASSERT_EQ(raw.cores.size(), 1u);
    EXPECT_EQ(raw.cores[0].n_records, recs[0].size());

    auto loaded = RecordedTrace::fromFile(path);
    ASSERT_EQ(loaded->cores(), 1);
    EXPECT_EQ(loaded->recordsPublished(0), recs[0].size());
    ReplaySource src(*loaded, 0);
    for (const auto &want : recs[0]) {
        TraceRecord got = src.next();
        EXPECT_EQ(got.gap, want.gap);
        EXPECT_EQ(got.iaddr, want.iaddr);
        EXPECT_EQ(got.addr, want.addr);
        EXPECT_EQ(got.op, want.op);
    }
    EXPECT_EQ(src.wraps(), 0u);
    std::remove(path.c_str());
}

TEST(TraceFile, WrapsAtEndOfFile)
{
    std::string path = tempPath("wrap");
    RecordedTrace::fromRecords({{{1, 0, 0x100, MemOp::Load},
                                 {2, 0, 0x200, MemOp::Store}}})
        ->saveTrf(path);
    auto loaded = RecordedTrace::fromFile(path);
    setQuiet(true);  // suppress the wrap warning
    ReplaySource src(*loaded, 0);
    src.next();
    src.next();
    TraceRecord r = src.next();  // wrapped
    setQuiet(false);
    EXPECT_EQ(r.addr, 0x100u);
    EXPECT_EQ(src.wraps(), 1u);
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, BadMagicIsFatal)
{
    std::string path = tempPath("badmagic");
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite("NOTATRACE", 1, 9, fp);
    std::fclose(fp);
    EXPECT_DEATH(RecordedTrace::fromFile(path), "not a CNTRF001");
    std::remove(path.c_str());
}

} // namespace
} // namespace cnsim
