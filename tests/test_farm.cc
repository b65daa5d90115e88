/**
 * @file
 * Tests for the sweep executor and its cache (src/farm/): the CellSpec
 * work-unit model and its content keys, the content-addressed
 * result/checkpoint cache and its entry-file integrity checks, the
 * canonical-live stream's equivalence to a materialized replay,
 * farm::runFarm's byte-identity across worker counts and cache states,
 * and grid independence: a cell's result is the same solo, in a
 * thread pool, and through the cache.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "farm/cache.hh"
#include "farm/cell.hh"
#include "farm/sweep.hh"
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
threads(unsigned workers, const std::string &cache_dir)
{
    farm::FarmOptions fo;
    fo.workers = workers;
    fo.cache_dir = cache_dir;
    fo.progress = false;
    return fo;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Names of the files in @p dir. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d))
            if (e->d_name[0] != '.')
                names.emplace_back(e->d_name);
        ::closedir(d);
    }
    return names;
}

/** A small but complete RunResult for the cache-entry tests. */
RunResult
sampleResult()
{
    RunResult r;
    r.workload = "oltp";
    r.l2_kind = "shared";
    r.instructions = 123;
    r.cycles = 456;
    r.ipc = 0.27;
    r.core_ipc = {0.1, 0.2};
    return r;
}

/**
 * Write @p bytes as the result entry @p key of @p cache and expect a
 * *warned* miss that also removes the entry -- never served, never
 * fatal. @return the warning printed.
 */
std::string
expectWarnedMiss(const farm::Cache &cache, std::uint64_t key,
                 const std::string &bytes, const std::string &what)
{
    const std::string path = cache.entryPath('r', key);
    writeBytes(path, bytes);
    RunResult out;
    ::testing::internal::CaptureStderr();
    bool hit = cache.loadResult(key, out);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(hit) << what;
    EXPECT_NE(err.find("rejecting corrupt cache entry"), std::string::npos)
        << what;
    EXPECT_FALSE(std::ifstream(path).good()) << what;
    return err;
}

/** The entry checksum as cache.hh documents it, computed a byte at a
 *  time (an independent reading of the layout comment). */
std::uint64_t
documentedChecksum(char kind, const std::string &payload)
{
    auto mix = [](std::uint64_t h, std::uint64_t w) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        return h ^ (h >> 32);
    };
    std::uint64_t h = mix(0, static_cast<unsigned char>(kind));
    for (std::size_t i = 0; i < payload.size(); i += 8) {
        std::uint64_t w = 0;
        for (std::size_t b = 0; b < 8 && i + b < payload.size(); ++b)
            w |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(payload[i + b]))
                 << (8 * b);
        h = mix(h, w);
    }
    h = mix(h, payload.size());
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

// ---------------------------------------------------------------------
// Cache entry files: the checksummed frame every entry is stored as
// ---------------------------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip)
{
    farm::Cache cache(uniqueDir("farm_entry"));
    const std::uint64_t key = 0x1234abcdu;
    const RunResult r = sampleResult();
    cache.storeResult(key, r);

    // Layout: magic, little-endian payload length, kind, payload,
    // checksum.
    const std::string payload = farm::serializeResult(r);
    const std::string bytes = readBytes(cache.entryPath('r', key));
    ASSERT_EQ(bytes.size(), 8 + 4 + 1 + payload.size() + 8);
    EXPECT_EQ(bytes.substr(0, 8), "CNFARM01");
    EXPECT_EQ(static_cast<unsigned char>(bytes[8]), payload.size() & 0xff);
    EXPECT_EQ(bytes[12], 'r');
    EXPECT_EQ(bytes.substr(13, payload.size()), payload);

    RunResult back;
    ASSERT_TRUE(cache.loadResult(key, back));
    EXPECT_EQ(farm::serializeResult(back), payload);

    // The kind byte is part of the entry: a result entry placed under
    // a checkpoint name is rejected, not reinterpreted.
    writeBytes(cache.entryPath('c', key), bytes);
    EXPECT_EQ(cache.loadCkpt(key), nullptr);
}

TEST(Frame, TruncationAndCorruptionAreDetected)
{
    farm::Cache cache(uniqueDir("farm_entry_bad"));
    const std::uint64_t key = 42;
    const RunResult r = sampleResult();
    cache.storeResult(key, r);
    const std::string path = cache.entryPath('r', key);
    const std::string good = readBytes(path);

    for (std::size_t n = 0; n < good.size(); ++n)
        expectWarnedMiss(cache, key, good.substr(0, n),
                         "truncated to " + std::to_string(n));
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        expectWarnedMiss(cache, key, bad,
                         "byte " + std::to_string(i) + " flipped");
    }
    expectWarnedMiss(cache, key, good + "x", "trailing byte");

    // The undamaged bytes still load.
    writeBytes(path, good);
    RunResult out;
    EXPECT_TRUE(cache.loadResult(key, out));
}

// ---------------------------------------------------------------------
// CellSpec content keys
// ---------------------------------------------------------------------

TEST(FarmCell, KeysIdentifyContentNotDeliveryAttempt)
{
    // Keys hash content: a spec built separately with equal fields
    // keys the same, whichever caller builds or runs it.
    farm::CellSpec a = quickSpec(L2Kind::Nurapid);
    farm::CellSpec b;
    b.l2_kind = static_cast<std::uint32_t>(L2Kind::Nurapid);
    b.cores = 2;
    b.warmup = a.warmup;
    b.measure = a.measure;
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

    RunResult r = sampleResult();
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

TEST(Frame, EveryBitFlipAndEveryBit63PairIsRejected)
{
    // The checksum must catch any one flipped bit anywhere in the file,
    // and bit 63 flipped in two different payload words: a plain
    // xor-multiply fold carries bit 63 nowhere, so two such flips
    // would cancel.
    farm::Cache cache(uniqueDir("farm_entry_bits"));
    const std::uint64_t key = 7;
    RunResult r = sampleResult();
    r.core_ipc.assign(8, 0.5);
    cache.storeResult(key, r);
    const std::string good = readBytes(cache.entryPath('r', key));
    constexpr std::size_t payload_at = 8 + 4 + 1;
    const std::size_t payload_len = good.size() - payload_at - 8;
    ASSERT_GE(payload_len / 8, 8u);

    for (std::size_t bit = 0; bit < 8 * good.size(); ++bit) {
        std::string bad = good;
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        std::string err = expectWarnedMiss(
            cache, key, bad, "bit " + std::to_string(bit) + " flipped");
        if (bit / 8 >= payload_at && bit / 8 < payload_at + payload_len) {
            EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
                << "bit " << bit;
        }
    }
    for (std::size_t i = 0; i < payload_len / 8; ++i) {
        for (std::size_t j = i + 1; j < payload_len / 8; ++j) {
            std::string bad = good;
            for (std::size_t w : {i, j})
                bad[payload_at + 8 * w + 7] =
                    static_cast<char>(bad[payload_at + 8 * w + 7] ^ 0x80);
            std::string err = expectWarnedMiss(
                cache, key, bad,
                "bit 63 of words " + std::to_string(i) + " and " +
                    std::to_string(j));
            EXPECT_NE(err.find("checksum mismatch"), std::string::npos);
        }
    }

    writeBytes(cache.entryPath('r', key), good);
    RunResult out;
    EXPECT_TRUE(cache.loadResult(key, out));
}

TEST(FarmCache, StoredEntryMatchesTheDocumentedLayoutByteForByte)
{
    // cache.hh's layout: magic, u32 payload length, kind byte, payload,
    // u64 word-at-a-time checksum over kind + payload, all
    // little-endian.
    std::string dir = uniqueDir("farm_layout");
    farm::Cache cache(dir);
    cache.storeCkpt(0x42, "abc");
    const std::string want("CNFARM01"
                           "\x03\x00\x00\x00"
                           "c"
                           "abc"
                           "\x35\xd9\xe0\xf1\xe9\x1f\x06\x01",
                           24);
    EXPECT_EQ(readBytes(cache.entryPath('c', 0x42)), want);

    // A result entry is the same frame around serializeResult().
    const RunResult r = sampleResult();
    const std::string payload = farm::serializeResult(r);
    cache.storeResult(0x42, r);
    std::string frame("CNFARM01", 8);
    for (int i = 0; i < 4; ++i)
        frame.push_back(static_cast<char>(payload.size() >> (8 * i)));
    frame += 'r';
    frame += payload;
    const std::uint64_t sum = documentedChecksum('r', payload);
    for (int i = 0; i < 8; ++i)
        frame.push_back(static_cast<char>(sum >> (8 * i)));
    EXPECT_EQ(readBytes(cache.entryPath('r', 0x42)), frame);
}

TEST(FarmCache, CheckpointBlobsShareWarmedStateAcrossRuns)
{
    std::string dir = uniqueDir("farm_ckpt_cache");
    farm::Cache cache(dir);
    farm::CellSpec spec = quickSpec(L2Kind::Nurapid);

    // runFarm on one cell; the result cache is bypassed so every call
    // exercises the checkpoint side.
    auto compute = [&](const farm::CellSpec &s) {
        std::remove(cache.entryPath('r', farm::cellKey(s)).c_str());
        return farm::runFarm({s}, threads(1, dir)).front();
    };

    // Cold: no blob, so the cell warms in detail and publishes.
    EXPECT_EQ(cache.loadCkpt(farm::ckptKey(spec)), nullptr);
    RunResult cold = compute(spec);
    auto blob = cache.loadCkpt(farm::ckptKey(spec));
    ASSERT_NE(blob, nullptr);
    EXPECT_TRUE(sample::Checkpoint::checksumOk(*blob));

    // Warm: resuming from the cached blob must be invisible in the
    // results -- the restore-exactness contract.
    RunResult warm = compute(spec);
    EXPECT_EQ(farm::serializeResult(warm), farm::serializeResult(cold));

    // A longer measurement shares the same warmed state (ckptKey
    // ignores measure) and still runs -- result key differs, blob hits.
    farm::CellSpec longer = spec;
    longer.measure = spec.measure + 10'000;
    EXPECT_EQ(farm::ckptKey(longer), farm::ckptKey(spec));
    RunResult extended = compute(longer);
    EXPECT_GT(extended.instructions, cold.instructions);

    // A corrupted blob is rejected non-fatally and recomputed.
    std::string path = cache.entryPath('c', farm::ckptKey(spec));
    std::string bytes = readBytes(path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    writeBytes(path, bytes);
    EXPECT_EQ(cache.loadCkpt(farm::ckptKey(spec)), nullptr);
    RunResult healed = compute(spec);
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

TEST(CanonicalWorkload, HeavilySkewedDrainMatchesMaterializedStream)
{
    // An even start wraps every core's chunk ring. Then core 0 runs 20
    // consume-once chunks ahead, so the laggards' wrapped rings must
    // grow to hold the chunks piling up unread; then each laggard
    // catches up. Neither the skew nor the producer drawing ahead may
    // change a record.
    farm::CellSpec spec = quickSpec(L2Kind::Shared);
    ParallelJob job = farm::buildJob(spec);
    SynthWorkloadParams params =
        Runner::effectiveSynthParams(job.workload, job.run_cfg);

    CanonicalWorkload canon(params);
    RecordedTrace trace(params);
    ASSERT_GT(canon.cores(), 1);
    std::vector<std::unique_ptr<ReplaySource>> replays;
    for (int c = 0; c < trace.cores(); ++c)
        replays.push_back(std::make_unique<ReplaySource>(trace, c));
    auto same = [&](int c) {
        TraceRecord a = canon.source(c).next();
        TraceRecord b = replays[static_cast<std::size_t>(c)]->next();
        return a.gap == b.gap && a.iaddr == b.iaddr && a.addr == b.addr &&
               a.op == b.op;
    };
    const std::size_t chunk = RecordedTrace::consume_once_chunk_records;
    for (std::size_t i = 0; i < 30 * chunk; ++i)
        for (int c = 0; c < canon.cores(); ++c)
            ASSERT_TRUE(same(c)) << "even start, core " << c << " #" << i;
    const std::size_t lead = 20 * chunk + 123;
    for (int c = 0; c < canon.cores(); ++c)
        for (std::size_t i = 0; i < lead; ++i)
            ASSERT_TRUE(same(c)) << "core " << c << " #" << i;
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
// runFarm: differential, cache, publication
// ---------------------------------------------------------------------

TEST(Farm, OneAndFourWorkersMatchInProcessByteForByte)
{
    auto cells = quickGrid();
    auto inproc = runInProcess(cells);
    auto farm1 = farm::runFarm(cells, threads(1, ""));
    auto farm4 = farm::runFarm(cells, threads(4, uniqueDir("farm_cold4")));
    expectSameResults(inproc, farm1);
    expectSameResults(inproc, farm4);
}

TEST(Farm, WarmCacheServesIdenticalResultsWithoutWorkers)
{
    std::string dir = uniqueDir("farm_warm");
    auto cells = quickGrid();
    auto cold = farm::runFarm(cells, threads(2, dir));

    // All cells now cached: the warm run serves every cell from the
    // cache and runs nothing.
    farm::Cache cache(dir);
    for (const auto &spec : cells) {
        RunResult hit;
        EXPECT_TRUE(cache.loadResult(farm::cellKey(spec), hit))
            << spec.label();
    }
    auto warm = farm::runFarm(cells, threads(2, dir));
    expectSameResults(cold, warm);
    expectSameResults(runInProcess(cells), warm);
}

TEST(FarmCache, ConcurrentStoresOfOneKeyLeaveOneValidEntry)
{
    // Two cells of one batch that differ only in measurement budget
    // share a ckptKey, so threads of one process can publish the same
    // entry at once; each writer needs its own temp file.
    std::string dir = uniqueDir("farm_race");
    farm::Cache cache(dir);
    farm::CellSpec spec = quickSpec(L2Kind::Nurapid);
    std::string blob;
    {
        ParallelJob job = farm::buildJob(spec);
        auto out = std::make_shared<std::string>();
        job.run_cfg.ckpt_blob_out = out;
        job.run_cfg.replay =
            Runner::acquireSharedTrace(job.workload, job.run_cfg);
        (void)Runner::run(job.sys_cfg, job.workload, job.run_cfg);
        blob = *out;
    }
    ASSERT_TRUE(sample::Checkpoint::checksumOk(blob));

    const std::uint64_t key = farm::ckptKey(spec);
    for (int round = 0; round < 4; ++round) {
        // A shared temp file makes a writer's rename fail (another
        // writer already moved the file) or publish a file another
        // writer is still truncating and rewriting; both warn.
        ::testing::internal::CaptureStderr();
        std::vector<std::thread> writers;
        for (int t = 0; t < 8; ++t)
            writers.emplace_back([&]() { cache.storeCkpt(key, blob); });
        for (auto &w : writers)
            w.join();
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), "")
            << "round " << round;
        auto loaded = cache.loadCkpt(key);
        ASSERT_NE(loaded, nullptr) << "round " << round;
        EXPECT_TRUE(sample::Checkpoint::checksumOk(*loaded));
        EXPECT_EQ(*loaded, blob);
    }
    for (const std::string &name : listDir(dir))
        EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
}

TEST(FarmCache, BinlogCellsRunInFullEvenWithACachedCheckpoint)
{
    // A binlog cell is never served from the cache, and it must not
    // resume from a cached warm-up either: its log would lose the
    // warm-up metrics snapshots. Its log must equal a cache-less run's.
    const std::string dir = uniqueDir("farm_binlog");
    farm::CellSpec spec = quickSpec(L2Kind::Nurapid);
    spec.metrics_interval = 5'000;
    (void)farm::runFarm({spec}, threads(1, dir));  // publishes the blob
    farm::Cache cache(dir);
    ASSERT_NE(cache.loadCkpt(farm::ckptKey(spec)), nullptr);

    const std::string tmp = ::testing::TempDir();
    farm::CellSpec plain = spec;
    plain.binlog_out = tmp + "cnsim_farm_plain.blg";
    farm::CellSpec cached = spec;
    cached.binlog_out = tmp + "cnsim_farm_cached.blg";
    EXPECT_EQ(farm::ckptKey(cached), farm::ckptKey(spec));
    RunResult a = farm::runFarm({plain}, threads(1, "")).front();
    RunResult b = farm::runFarm({cached}, threads(1, dir)).front();
    EXPECT_EQ(farm::serializeResult(a), farm::serializeResult(b));
    std::string plain_log = readBytes(plain.binlog_out);
    EXPECT_FALSE(plain_log.empty());
    EXPECT_EQ(plain_log, readBytes(cached.binlog_out));
    std::remove(plain.binlog_out.c_str());
    std::remove(cached.binlog_out.c_str());
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
    EXPECT_EXIT(farm::runFarm(cells, threads(2, "")),
                ::testing::ExitedWithCode(1),
                "two runs stream to one binlog");
    EXPECT_FALSE(std::ifstream(path).good()) << "a cell ran";
}

TEST(FarmDeathTest, FinishedCellsArePublishedBeforeALaterCellDies)
{
    // One worker runs the cells in order; the last one cannot open its
    // binlog and fatal()s. Everything before it is already cached. The
    // directory name is fixed because a threadsafe-style death test
    // re-runs this body in a fresh process.
    const std::string dir =
        std::string(::testing::TempDir()) + "cnsim_farm_partial";
    for (const std::string &name : listDir(dir))
        std::remove((dir + "/" + name).c_str());
    auto cells = quickGrid();
    cells.back().binlog_out = dir + "/no/such/dir/run.blg";
    EXPECT_EXIT(farm::runFarm(cells, threads(1, dir)),
                ::testing::ExitedWithCode(1), "cannot open binlog");

    farm::Cache cache(dir);
    for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
        RunResult hit;
        EXPECT_TRUE(cache.loadResult(farm::cellKey(cells[i]), hit))
            << cells[i].label();
        EXPECT_NE(cache.loadCkpt(farm::ckptKey(cells[i])), nullptr)
            << cells[i].label();
    }
}

// ---------------------------------------------------------------------
// Grid independence
// ---------------------------------------------------------------------

TEST(GridIndependence, EveryCellMatchesItsSoloRunInPoolsAndFarms)
{
    // A cell's result depends only on (config, workload, seed): not on
    // the grid around it, the worker count, or the cache.
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
    expectSameResults(solo, farm::runFarm(cells, threads(1, "")));
    const std::string dir = uniqueDir("farm_grid");
    expectSameResults(solo, farm::runFarm(cells, threads(2, dir)));
    expectSameResults(solo, farm::runFarm(cells, threads(2, dir)));
}

} // namespace
