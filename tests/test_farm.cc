/**
 * @file
 * Tests for the sweep farm (src/farm/): the CNFRM01 frame codec, the
 * CellSpec work-unit model and its content keys, the content-addressed
 * result/checkpoint cache, the canonical-live stream's equivalence to
 * a materialized replay, the multi-process coordinator (including the
 * crash-requeue contract, driven by CNSIM_FARM_TEST_CRASH_CELL), and
 * grid independence: a cell's result is the same solo, in a thread
 * pool, and in the farm.
 *
 * Process-spawning tests execute the real cnsim CLI (CNSIM_CLI_BIN)
 * as the worker binary, so they exercise exactly the bytes a user's
 * `--farm-jobs` sweep runs.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "farm/cache.hh"
#include "farm/cell.hh"
#include "farm/coordinator.hh"
#include "farm/worker.hh"
#include "obs/frame.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

namespace
{

using namespace cnsim;

/** Fresh per-test directory under the build tree (Cache mkdir -p's). */
std::string
uniqueDir(const std::string &stem)
{
    static int counter = 0;
    return stem + "." + std::to_string(static_cast<long>(::getpid())) +
           "." + std::to_string(counter++);
}

/** A cell small enough that a full 7-org farm stays sub-second. */
farm::CellSpec
quickSpec(L2Kind kind)
{
    farm::CellSpec s;
    s.l2_kind = static_cast<std::uint32_t>(kind);
    s.cores = 2;
    s.workload = "oltp";
    s.warmup = 20'000;
    s.measure = 30'000;
    return s;
}

std::vector<farm::CellSpec>
quickGrid()
{
    std::vector<farm::CellSpec> cells;
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                     L2Kind::Ideal, L2Kind::Nurapid, L2Kind::Update,
                     L2Kind::Dnuca})
        cells.push_back(quickSpec(k));
    return cells;
}

/** Byte-level result equality: the farm's determinism contract. */
void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(farm::serializeResult(a[i]),
                  farm::serializeResult(b[i]))
            << "cell " << i << " (" << a[i].l2_kind << "/"
            << a[i].workload << ")";
}

std::vector<RunResult>
runInProcess(const std::vector<farm::CellSpec> &cells)
{
    std::vector<RunResult> results;
    for (const auto &spec : cells) {
        ParallelJob job = farm::buildJob(spec);
        results.push_back(
            Runner::run(job.sys_cfg, job.workload, job.run_cfg));
    }
    return results;
}

farm::FarmOptions
cliFarm(unsigned workers, const std::string &cache_dir)
{
    farm::FarmOptions fo;
    fo.workers = workers;
    fo.cache_dir = cache_dir;
    fo.worker_exe = CNSIM_CLI_BIN;
    fo.progress = false;
    return fo;
}

// ---------------------------------------------------------------------
// CNFRM01 frame codec
// ---------------------------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip)
{
    std::string payload = "the quick brown fox";
    std::string wire = obs::encodeFrame(42, payload);

    obs::Frame frame;
    std::size_t consumed = 0;
    auto st = obs::decodeFrame(
        reinterpret_cast<const std::uint8_t *>(wire.data()), wire.size(),
        frame, consumed);
    EXPECT_EQ(st, obs::FrameStatus::Ok);
    EXPECT_EQ(frame.type, 42);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, wire.size());

    // Empty payloads are legal (stats requests, shutdown).
    wire = obs::encodeFrame(7, std::string());
    st = obs::decodeFrame(
        reinterpret_cast<const std::uint8_t *>(wire.data()), wire.size(),
        frame, consumed);
    EXPECT_EQ(st, obs::FrameStatus::Ok);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Frame, TruncationAndCorruptionAreDetected)
{
    std::string wire = obs::encodeFrame(1, "payload bytes");
    obs::Frame frame;
    std::size_t consumed = 0;

    // Clean boundary: no bytes at all is EOF, not an error.
    EXPECT_EQ(obs::decodeFrame(nullptr, 0, frame, consumed),
              obs::FrameStatus::Eof);

    // Every proper prefix is Incomplete (a reader should wait).
    for (std::size_t n = 1; n < wire.size(); ++n) {
        EXPECT_EQ(obs::decodeFrame(
                      reinterpret_cast<const std::uint8_t *>(wire.data()),
                      n, frame, consumed),
                  obs::FrameStatus::Incomplete)
            << "prefix " << n;
    }

    // Any flipped byte is Torn: the trailing FNV-1a covers type and
    // payload, and the length field is bounded.
    for (std::size_t i = 4; i < wire.size(); ++i) {
        std::string bad = wire;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        auto st = obs::decodeFrame(
            reinterpret_cast<const std::uint8_t *>(bad.data()),
            bad.size(), frame, consumed);
        EXPECT_EQ(st, obs::FrameStatus::Torn) << "byte " << i;
    }
}

TEST(Frame, FdRoundTripAndTornStream)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(obs::writeFrame(fds[1], 9, "over the pipe"));
    obs::Frame frame;
    EXPECT_EQ(obs::readFrame(fds[0], frame), obs::FrameStatus::Ok);
    EXPECT_EQ(frame.type, 9);
    EXPECT_EQ(frame.payload, "over the pipe");

    // Clean close between frames is EOF...
    ::close(fds[1]);
    EXPECT_EQ(obs::readFrame(fds[0], frame), obs::FrameStatus::Eof);
    ::close(fds[0]);

    // ...but a close mid-frame is Torn (a crashed writer, not a
    // shutdown).
    ASSERT_EQ(::pipe(fds), 0);
    std::string wire = obs::encodeFrame(9, "interrupted");
    ASSERT_EQ(::write(fds[1], wire.data(), wire.size() / 2),
              static_cast<ssize_t>(wire.size() / 2));
    ::close(fds[1]);
    EXPECT_EQ(obs::readFrame(fds[0], frame), obs::FrameStatus::Torn);
    ::close(fds[0]);
}

// ---------------------------------------------------------------------
// CellSpec serialization and content keys
// ---------------------------------------------------------------------

TEST(FarmCell, SerializeRoundTripPreservesEveryField)
{
    farm::CellSpec s = quickSpec(L2Kind::Snuca);
    s.interconnect = static_cast<std::uint32_t>(InterconnectKind::Mesh);
    s.enable_cr = 0;
    s.enable_isc = 0;
    s.promotion = 2;
    s.tag_factor = 4;
    s.audit = 1;
    s.metrics_interval = 5'000;
    s.binlog_out = "run.blg";
    s.seed = 77;
    s.sample_windows = 3;
    s.sample_detail = 1'000;
    s.sample_warmup = 2'000;
    s.collect_stats_dump = 1;
    s.collect_stats_csv = 1;
    s.use_ckpt_cache = 0;
    s.attempt = 1;

    farm::CellSpec back =
        farm::deserializeCell(farm::serializeCell(s), "<test>");
    EXPECT_EQ(farm::serializeCell(back), farm::serializeCell(s));
    EXPECT_EQ(back.workload, "oltp");
    EXPECT_EQ(back.attempt, 1u);
    EXPECT_EQ(back.label(), "snuca/oltp");
}

TEST(FarmCell, KeysIdentifyContentNotDeliveryAttempt)
{
    farm::CellSpec a = quickSpec(L2Kind::Nurapid);
    farm::CellSpec b = a;
    b.attempt = 1;  // transport metadata, not content
    EXPECT_EQ(farm::cellKey(a), farm::cellKey(b));
    EXPECT_EQ(farm::ckptKey(a), farm::ckptKey(b));

    // Any content field must move the result key.
    b = a;
    b.seed = 2;
    EXPECT_NE(farm::cellKey(a), farm::cellKey(b));
    b = a;
    b.l2_kind = static_cast<std::uint32_t>(L2Kind::Shared);
    EXPECT_NE(farm::cellKey(a), farm::cellKey(b));
    b = a;
    b.measure = a.measure + 1;
    EXPECT_NE(farm::cellKey(a), farm::cellKey(b));

    // The checkpoint key identifies the *warmed state*: it must track
    // warm-side knobs and ignore measurement-side ones, which is what
    // lets a lengthened sweep resume from cached warm state.
    EXPECT_EQ(farm::ckptKey(a), farm::ckptKey(b));
    b = a;
    b.warmup = a.warmup + 1;
    EXPECT_NE(farm::ckptKey(a), farm::ckptKey(b));

    EXPECT_EQ(farm::keyString(0x1234abcdu).size(), 16u);
}

// ---------------------------------------------------------------------
// Content-addressed cache
// ---------------------------------------------------------------------

TEST(FarmCache, ResultRoundTripMissAndCorruptionRejection)
{
    std::string dir = uniqueDir("farm_cache");
    farm::Cache cache(dir);
    ASSERT_TRUE(cache.enabled());

    farm::CellSpec spec = quickSpec(L2Kind::Shared);
    std::uint64_t key = farm::cellKey(spec);
    RunResult out;
    EXPECT_FALSE(cache.loadResult(key, out));  // cold

    RunResult r;
    r.workload = "oltp";
    r.l2_kind = "shared";
    r.instructions = 123;
    r.cycles = 456;
    r.ipc = 0.27;
    r.core_ipc = {0.1, 0.2};
    cache.storeResult(key, r);
    ASSERT_TRUE(cache.loadResult(key, out));
    EXPECT_EQ(farm::serializeResult(out), farm::serializeResult(r));

    // A corrupted entry must be rejected (and removed) -- never
    // served, never fatal.
    std::string path = cache.entryPath('r', key);
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.is_open());
    }
    {
        std::ofstream out_f(path,
                            std::ios::binary | std::ios::in);
        out_f.seekp(-3, std::ios::end);
        out_f.put('\x7f');
    }
    EXPECT_FALSE(cache.loadResult(key, out));
    std::ifstream gone(path, std::ios::binary);
    EXPECT_FALSE(gone.is_open()) << "corrupt entry must be unlinked";

    // Recompute-and-store heals the slot.
    cache.storeResult(key, r);
    EXPECT_TRUE(cache.loadResult(key, out));

    // A disabled cache ("" directory) is inert on both sides.
    farm::Cache off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.loadResult(key, out));
    off.storeResult(key, r);
}

TEST(FarmCache, CheckpointBlobsShareWarmedStateAcrossRuns)
{
    std::string dir = uniqueDir("farm_ckpt_cache");
    farm::Cache cache(dir);
    farm::CellSpec spec = quickSpec(L2Kind::Nurapid);

    // Cold: no blob, so computeCell warms in detail and publishes.
    EXPECT_EQ(cache.loadCkpt(farm::ckptKey(spec)), nullptr);
    RunResult cold = farm::computeCell(spec, cache);
    auto blob = cache.loadCkpt(farm::ckptKey(spec));
    ASSERT_NE(blob, nullptr);
    EXPECT_TRUE(sample::Checkpoint::checksumOk(*blob));

    // Warm: resuming from the cached blob must be invisible in the
    // results -- the restore-exactness contract.
    RunResult warm = farm::computeCell(spec, cache);
    EXPECT_EQ(farm::serializeResult(warm), farm::serializeResult(cold));

    // A longer measurement shares the same warmed state (ckptKey
    // ignores measure) and still runs -- result key differs, blob hits.
    farm::CellSpec longer = spec;
    longer.measure = spec.measure + 10'000;
    EXPECT_EQ(farm::ckptKey(longer), farm::ckptKey(spec));
    RunResult extended = farm::computeCell(longer, cache);
    EXPECT_GT(extended.instructions, cold.instructions);

    // A corrupted blob is rejected non-fatally and recomputed.
    std::string path = cache.entryPath('c', farm::ckptKey(spec));
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(cache.loadCkpt(farm::ckptKey(spec)), nullptr);
    RunResult healed = farm::computeCell(spec, cache);
    EXPECT_EQ(farm::serializeResult(healed),
              farm::serializeResult(cold));
}

// ---------------------------------------------------------------------
// Canonical-live stream == materialized replay
// ---------------------------------------------------------------------

TEST(CanonicalWorkload, MatchesMaterializedReplayRecordForRecord)
{
    farm::CellSpec spec = quickSpec(L2Kind::Shared);
    ParallelJob job = farm::buildJob(spec);
    SynthWorkloadParams params =
        Runner::effectiveSynthParams(job.workload, job.run_cfg);

    CanonicalWorkload canon(params);
    RecordedTrace trace(params);
    ASSERT_EQ(canon.cores(), trace.cores());

    std::vector<std::unique_ptr<ReplaySource>> replays;
    for (int c = 0; c < trace.cores(); ++c)
        replays.push_back(std::make_unique<ReplaySource>(trace, c));

    // Interleave draws unevenly across cores -- the canonical
    // guarantee is positional, not timing-dependent.
    for (int round = 0; round < 2'000; ++round) {
        int c = round % trace.cores();
        int reps = 1 + (round % 3);
        for (int k = 0; k < reps; ++k) {
            TraceRecord a = canon.source(c).next();
            TraceRecord b = replays[c]->next();
            ASSERT_EQ(a.gap, b.gap) << "round " << round;
            ASSERT_EQ(a.iaddr, b.iaddr) << "round " << round;
            ASSERT_EQ(a.addr, b.addr) << "round " << round;
            ASSERT_EQ(a.op, b.op) << "round " << round;
        }
    }
}

TEST(CanonicalWorkload, RunnerResultsMatchMaterializedReplay)
{
    ParallelJob canon = farm::buildJob(quickSpec(L2Kind::Nurapid));
    ParallelJob replay = canon;
    canon.run_cfg.canonical_live = true;
    RunResult a =
        Runner::run(canon.sys_cfg, canon.workload, canon.run_cfg);

    replay.run_cfg.replay =
        Runner::acquireSharedTrace(replay.workload, replay.run_cfg);
    RunResult b =
        Runner::run(replay.sys_cfg, replay.workload, replay.run_cfg);

    EXPECT_EQ(farm::serializeResult(a), farm::serializeResult(b));
}

// ---------------------------------------------------------------------
// Coordinator: differential, cache, crash robustness
// ---------------------------------------------------------------------

TEST(Farm, OneAndFourWorkersMatchInProcessByteForByte)
{
    auto cells = quickGrid();
    auto inproc = runInProcess(cells);
    auto farm1 = farm::runFarm(cells, cliFarm(1, ""));
    auto farm4 = farm::runFarm(cells, cliFarm(4, ""));
    expectSameResults(inproc, farm1);
    expectSameResults(inproc, farm4);
}

TEST(Farm, WarmCacheServesIdenticalResultsWithoutWorkers)
{
    std::string dir = uniqueDir("farm_warm");
    auto cells = quickGrid();
    auto cold = farm::runFarm(cells, cliFarm(2, dir));

    // All cells now cached: the warm run resolves in the pre-pass.
    farm::Cache cache(dir);
    for (const auto &spec : cells) {
        RunResult hit;
        EXPECT_TRUE(cache.loadResult(farm::cellKey(spec), hit))
            << spec.label();
    }
    auto warm = farm::runFarm(cells, cliFarm(2, dir));
    expectSameResults(cold, warm);
    expectSameResults(runInProcess(cells), warm);
}

TEST(Farm, CrashedWorkerIsRequeuedOnceWithIdenticalResults)
{
    ASSERT_EQ(::setenv("CNSIM_FARM_TEST_CRASH_CELL", "snuca/oltp", 1),
              0);
    auto cells = quickGrid();
    auto results = farm::runFarm(cells, cliFarm(2, ""));
    ASSERT_EQ(::unsetenv("CNSIM_FARM_TEST_CRASH_CELL"), 0);
    expectSameResults(runInProcess(cells), results);
}

TEST(FarmDeathTest, SecondCrashFailsTheSweepWithCellKeyAndStderr)
{
    ASSERT_EQ(::setenv("CNSIM_FARM_TEST_CRASH_CELL",
                       "snuca/oltp:always", 1),
              0);
    auto cells = quickGrid();
    EXPECT_EXIT(farm::runFarm(cells, cliFarm(2, "")),
                ::testing::ExitedWithCode(1),
                "cell snuca/oltp .* failed twice.*synthetic crash");
    ASSERT_EQ(::unsetenv("CNSIM_FARM_TEST_CRASH_CELL"), 0);
}

TEST(FarmDeathTest, SharedBinlogIsFatalBeforeAnyCellRuns)
{
    const std::string path =
        std::string(::testing::TempDir()) + "cnsim_shared_farm.blg";
    std::remove(path.c_str());
    auto cells = quickGrid();
    cells.resize(2);
    for (farm::CellSpec &c : cells)
        c.binlog_out = path;
    EXPECT_EXIT(farm::runFarm(cells, cliFarm(2, "")),
                ::testing::ExitedWithCode(1),
                "two runs stream to one binlog");
    EXPECT_FALSE(std::ifstream(path).good()) << "a cell ran";
}

// ---------------------------------------------------------------------
// Grid independence
// ---------------------------------------------------------------------

TEST(GridIndependence, EveryCellMatchesItsSoloRunInPoolsAndFarms)
{
    // A cell's result depends only on (config, workload, seed): not on
    // the grid around it, the worker count, or the process it runs in.
    // The in-process jobs come straight from the public API and name
    // no stream, exactly like a user's own Runner::run call.
    const auto cells = quickGrid();
    std::vector<ParallelJob> jobs;
    for (const farm::CellSpec &spec : cells) {
        RunConfig rc;
        rc.warmup_instructions = spec.warmup;
        rc.measure_instructions = spec.measure;
        jobs.push_back(ParallelJob{
            Runner::paperConfig(static_cast<L2Kind>(spec.l2_kind),
                                static_cast<int>(spec.cores),
                                InterconnectKind::Bus),
            workloads::byName(spec.workload,
                              static_cast<int>(spec.cores)),
            rc});
    }

    std::vector<RunResult> solo;
    for (const ParallelJob &j : jobs)
        solo.push_back(Runner::run(j.sys_cfg, j.workload, j.run_cfg));
    expectSameResults(solo, ParallelRunner::runAll(jobs, 1));
    expectSameResults(solo, ParallelRunner::runAll(jobs, 4));
    expectSameResults(solo, farm::runFarm(cells, cliFarm(1, "")));
    expectSameResults(
        solo, farm::runFarm(cells, cliFarm(2, uniqueDir("farm_grid"))));
}

} // namespace
