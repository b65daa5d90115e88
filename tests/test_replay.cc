/**
 * @file
 * Tests for stream replay: canonical-order determinism including
 * concurrent chunk growth, exact 16-byte record packing and its
 * pack-time address check, the producer's shutdown, consume-once
 * recycling, the process-wide TraceCache, and end-to-end replay
 * equality across worker counts and trace instances.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

namespace cnsim
{
namespace
{

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.gap == b.gap && a.iaddr == b.iaddr && a.addr == b.addr &&
           a.op == b.op;
}

/** Drain @p n records from a ReplaySource. */
std::vector<TraceRecord>
drain(ReplaySource &src, std::size_t n)
{
    std::vector<TraceRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(src.next());
    return out;
}

TEST(Replay, CanonicalGenerationIsDeterministic)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    RecordedTrace a(params), b(params);
    ASSERT_EQ(a.cores(), b.cores());
    for (int c = 0; c < a.cores(); ++c) {
        ReplaySource sa(a, c), sb(b, c);
        for (int i = 0; i < 10'000; ++i)
            EXPECT_TRUE(sameRecord(sa.next(), sb.next()))
                << "core " << c << " #" << i;
    }
}

/**
 * Read every core of a fresh materialized @p params stream across a
 * chunk boundary, last core first, and expect it to equal the
 * generator drawn core 0..N-1, repeat. @return the records read.
 */
std::vector<std::vector<TraceRecord>>
expectRoundRobin(const SynthWorkloadParams &params)
{
    RecordedTrace trace(params);
    std::vector<std::vector<TraceRecord>> got;
    for (int c = trace.cores() - 1; c >= 0; --c) {
        ReplaySource src(trace, c);
        got.insert(got.begin(),
                   drain(src, RecordedTrace::chunk_records + 100));
    }
    SynthWorkload fresh(params);
    for (std::size_t i = 0; i < got[0].size(); ++i)
        for (int c = 0; c < trace.cores(); ++c)
            if (!sameRecord(got[static_cast<std::size_t>(c)][i],
                            fresh.source(c).next())) {
                ADD_FAILURE() << "core " << c << " #" << i;
                return got;
            }
    return got;
}

TEST(Replay, MaterializedStreamIsRoundRobinGeneration)
{
    // The materialized stream is the generator drawn core 0..N-1,
    // repeat -- across a chunk boundary -- whatever order the consumers
    // read it in.
    expectRoundRobin(Runner::effectiveSynthParams(
        workloads::byName("barnes"), RunConfig{}));
}

TEST(Replay, PackedChunksHoldTheHighestSixtyFourCoreAddresses)
{
    // Per-core code regions and a stream share put core 63's private,
    // stream and code addresses at their highest bases. The 16-byte
    // packed chunk records must still give back every record exactly.
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp", 64), RunConfig{});
    params.shared_regions = false;
    ASSERT_EQ(params.threads.size(), 64u);
    const std::vector<TraceRecord> top = expectRoundRobin(params)[63];

    const Addr priv = SynthWorkload::privateBase(63, false);
    const Addr stream = SynthWorkload::streamBase(63);
    bool saw_private = false, saw_stream = false, saw_code = false;
    for (const TraceRecord &r : top) {
        saw_private |= r.addr >= priv && r.addr < priv + 0x10000000ull;
        saw_stream |= r.addr >= stream;
        saw_code |= r.iaddr >= SynthWorkload::codeBaseFor(63, false);
    }
    EXPECT_TRUE(saw_private);
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_code);
}

TEST(ReplayDeathTest, UnpackableAddressesPanicAtPackTime)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A packed record keeps addr >> 6 in 32 bits: an unaligned address
    // or one at or above 2^38 must stop the run, not be truncated.
    const Addr limit = Addr{1} << 38;
    TraceRecord unaligned;
    unaligned.addr = SynthWorkload::privateBase(0, true) + 8;
    TraceRecord high;
    high.addr = limit;
    TraceRecord high_fetch;
    high_fetch.iaddr = limit + 64;
    for (const TraceRecord &bad : {unaligned, high, high_fetch}) {
        EXPECT_DEATH(
            {
                RecordedTrace::Chunk chunk;
                chunk.append(bad);
            },
            "does not pack");
    }

    // The highest packable address is accepted.
    TraceRecord top;
    top.addr = limit - 64;
    top.iaddr = limit - 64;
    RecordedTrace::Chunk chunk;
    chunk.append(top);
    EXPECT_EQ(chunk.nRecords(), 1u);
}

TEST(Replay, ConcurrentReadersMatchSerialBaseline)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    // Enough records to force several lazily generated chunks.
    const std::size_t per_core =
        3 * RecordedTrace::chunk_records + 77;

    RecordedTrace serial(params);
    std::vector<std::vector<TraceRecord>> baseline;
    for (int c = 0; c < serial.cores(); ++c) {
        ReplaySource src(serial, c);
        baseline.push_back(drain(src, per_core));
    }

    // Fresh trace, one thread per core racing through chunk growth.
    RecordedTrace shared(params);
    std::vector<std::vector<TraceRecord>> got(
        static_cast<std::size_t>(shared.cores()));
    std::vector<std::thread> threads;
    for (int c = 0; c < shared.cores(); ++c) {
        threads.emplace_back([&, c]() {
            ReplaySource src(shared, c);
            got[static_cast<std::size_t>(c)] = drain(src, per_core);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int c = 0; c < shared.cores(); ++c) {
        for (std::size_t i = 0; i < per_core; ++i)
            EXPECT_TRUE(sameRecord(
                got[static_cast<std::size_t>(c)][i],
                baseline[static_cast<std::size_t>(c)][i]))
                << "core " << c << " #" << i;
    }
}

TEST(Replay, DestroyingATraceMidRoundReturnsPromptly)
{
    // 64 cores x 4096 rows make one round long. Reading into chunk 1
    // starts the producer, which then draws round 2 for the lookahead;
    // destruction must abandon that round, not finish it.
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp", 64), RunConfig{});
    using Clock = std::chrono::steady_clock;
    auto trace = std::make_unique<RecordedTrace>(params);
    Clock::time_point t0 = Clock::now();
    {
        ReplaySource src(*trace, 0);
        src.skip(RecordedTrace::chunk_records + 1);
    }
    Clock::time_point t1 = Clock::now();
    trace.reset();
    Clock::time_point t2 = Clock::now();
    // The reader drew, or waited for, rounds 0 and 1; an unabandoned
    // round 2 would take about half that.
    EXPECT_LT(t2 - t1, (t1 - t0) / 4);
}

TEST(Replay, ConsumeOnceTraceHasNoChunkCeiling)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp", 1), RunConfig{});
    ASSERT_EQ(params.threads.size(), 1u);
    RecordedTrace trace(params, RecordedTrace::Retention::ConsumeOnce);
    ReplaySource src(trace, 0);
    const std::uint64_t n =
        8193ull * RecordedTrace::consume_once_chunk_records;
    src.skip(n);
    src.next();
    EXPECT_EQ(src.consumed(), n + 1);
    EXPECT_LE(trace.heldChunks(0),
              RecordedTrace::consume_once_lookahead_chunks + 1);
}

TEST(Replay, ConsumeOnceTraceHoldsOnlyTheLookahead)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    RecordedTrace once(params, RecordedTrace::Retention::ConsumeOnce);
    RecordedTrace kept(params);
    std::vector<std::unique_ptr<ReplaySource>> a, b;
    for (int c = 0; c < once.cores(); ++c) {
        a.push_back(std::make_unique<ReplaySource>(once, c));
        b.push_back(std::make_unique<ReplaySource>(kept, c));
    }
    // A long even drain: every core reads 200 consume-once chunks.
    const std::size_t per_core =
        200 * RecordedTrace::consume_once_chunk_records;
    for (std::size_t i = 0; i < per_core; ++i)
        for (int c = 0; c < once.cores(); ++c)
            ASSERT_TRUE(sameRecord(a[c]->next(), b[c]->next()))
                << "core " << c << " #" << i;
    for (int c = 0; c < once.cores(); ++c) {
        EXPECT_GE(once.heldChunks(c), 1u);
        EXPECT_LE(once.heldChunks(c),
                  RecordedTrace::consume_once_lookahead_chunks + 1)
            << "core " << c;
    }
    // The trace that keeps its chunks still holds all of them.
    EXPECT_GE(kept.heldChunks(0),
              per_core / RecordedTrace::chunk_records);
}

TEST(Replay, TraceCacheSharesByParams)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    auto a = TraceCache::global().acquire(params);
    auto b = TraceCache::global().acquire(params);
    EXPECT_EQ(a.get(), b.get());

    SynthWorkloadParams other = params;
    other.seed += 1;
    auto c = TraceCache::global().acquire(other);
    EXPECT_NE(a.get(), c.get());
}

TEST(Replay, TraceCachePrunesDeadEntries)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    params.seed = 0xdeadf00d;
    std::size_t before = TraceCache::global().liveEntries();
    {
        auto held = TraceCache::global().acquire(params);
        EXPECT_EQ(TraceCache::global().liveEntries(), before + 1);
    }
    // The entry expired with its last reference; the next miss prunes
    // it, so the live count cannot grow without bound across sweeps,
    // and re-acquiring the same params regenerates rather than
    // resurrecting the dead pointer.
    SynthWorkloadParams fresh = params;
    fresh.seed = 0xfeedbeef;
    auto held = TraceCache::global().acquire(fresh);
    EXPECT_LE(TraceCache::global().liveEntries(), before + 1);
    auto again = TraceCache::global().acquire(params);
    EXPECT_NE(again, nullptr);
}

TEST(Replay, RunnerReplayMatchesAcrossWorkerCounts)
{
    RunConfig rc;
    rc.warmup_instructions = 20'000;
    rc.measure_instructions = 40'000;

    auto grid = [&](unsigned workers) {
        ParallelRunner pool(workers);
        for (L2Kind k : {L2Kind::Shared, L2Kind::Nurapid,
                         L2Kind::Private}) {
            pool.submit(Runner::paperConfig(k),
                        workloads::byName("oltp"), rc);
        }
        return pool.run();
    };

    std::vector<RunResult> one = grid(1);
    std::vector<RunResult> four = grid(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].instructions, four[i].instructions);
        EXPECT_EQ(one[i].cycles, four[i].cycles);
        EXPECT_EQ(one[i].l2_accesses, four[i].l2_accesses);
        EXPECT_EQ(one[i].bus_transactions, four[i].bus_transactions);
        EXPECT_DOUBLE_EQ(one[i].ipc, four[i].ipc);
        EXPECT_DOUBLE_EQ(one[i].miss_rate, four[i].miss_rate);
    }
}

TEST(Replay, ReplayRunIsByteStableAcrossTraceInstances)
{
    // Two independently generated traces of the same params must give
    // identical simulation results (the canonical-order contract).
    RunConfig rc;
    rc.warmup_instructions = 20'000;
    rc.measure_instructions = 40'000;
    WorkloadSpec wl = workloads::byName("oltp");
    SynthWorkloadParams params = Runner::effectiveSynthParams(wl, rc);

    RunConfig rc_a = rc;
    rc_a.replay = std::make_shared<RecordedTrace>(params);
    RunConfig rc_b = rc;
    rc_b.replay = std::make_shared<RecordedTrace>(params);

    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    RunResult a = Runner::run(cfg, wl, rc_a);
    RunResult b = Runner::run(cfg, wl, rc_b);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_accesses, b.l2_accesses);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

} // namespace
} // namespace cnsim
