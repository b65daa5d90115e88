#include "trace/replay.hh"

#include <algorithm>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"

namespace cnsim
{

namespace
{

/**
 * Upper bound on chunks per core (8192 x 4096 records covers ~1.4 G
 * instructions per core at the paper workloads' densest record rate --
 * beyond any configured budget). The slot tables are pre-sized to this
 * so readers can index them without synchronizing with growth.
 */
constexpr std::size_t max_chunks = 8192;

/** A packed record holds addresses as 64-byte block numbers. */
constexpr unsigned block_shift = 6;

/** Addresses must lie below this to fit a u32 block number. */
constexpr Addr packable_limit = Addr{1} << (32 + block_shift);

/** How far ahead of the cursor ReplaySource::next() prefetches:
 *  16 records = 256 B, four host lines. */
constexpr std::uint32_t prefetch_records = 16;

bool
packable(Addr a)
{
    return (a & ((Addr{1} << block_shift) - 1)) == 0 && a < packable_limit;
}

void
appendBytes(std::string &out, const void *p, std::size_t n)
{
    out.append(static_cast<const char *>(p), n);
}

void
appendU32(std::string &out, std::uint32_t v)
{
    appendBytes(out, &v, sizeof(v));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    appendBytes(out, &v, sizeof(v));
}

void
appendF64(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    appendU64(out, bits);
}

/**
 * Byte-serialize every field that shapes the generated stream, in
 * declaration order. Used both as the exact TraceCache key (no hash
 * collisions possible) and as input to the provenance hash.
 */
std::string
serializeParams(const SynthWorkloadParams &params)
{
    std::string s;
    appendU64(s, params.seed);
    appendU32(s, params.shared_regions ? 1 : 0);
    appendU32(s, static_cast<std::uint32_t>(params.threads.size()));
    for (const SynthThreadParams &t : params.threads) {
        appendF64(s, t.mean_gap);
        appendF64(s, t.frac_ros);
        appendF64(s, t.frac_rws);
        appendU32(s, t.private_blocks);
        appendF64(s, t.private_theta);
        appendF64(s, t.private_hot_frac);
        appendU32(s, t.private_hot_blocks);
        appendU32(s, t.ros_blocks);
        appendF64(s, t.ros_follow);
        appendF64(s, t.ros_reuse.p0);
        appendF64(s, t.ros_reuse.p1);
        appendF64(s, t.ros_reuse.p2_5);
        appendF64(s, t.ros_reuse.p_more);
        appendU32(s, t.rws_blocks);
        appendF64(s, t.rws_write_frac);
        appendF64(s, t.rws_migratory);
        appendU32(s, t.code_blocks);
        appendF64(s, t.code_theta);
        appendF64(s, t.code_hot_frac);
        appendU32(s, t.code_hot_blocks);
        appendF64(s, t.store_frac);
        appendF64(s, t.frac_stream);
        appendU32(s, t.stream_blocks);
    }
    return s;
}

} // namespace

RecordedTrace::RecordedTrace(const SynthWorkloadParams &params)
    : num_cores(static_cast<int>(params.threads.size())),
      trace_seed(params.seed), params_hash(hashParams(params)),
      synth(params)
{
    slots.resize(params.threads.size());
    for (auto &core_slots : slots)
        core_slots.resize(max_chunks);
}

RecordedTrace::~RecordedTrace() = default;

std::uint64_t
RecordedTrace::hashParams(const SynthWorkloadParams &params)
{
    std::string bytes = serializeParams(params);
    return fnv1a(bytes.data(), bytes.size());
}

void
RecordedTrace::grow(std::size_t idx)
{
    MutexLock lock(grow_mutex);
    while (published.load(std::memory_order_relaxed) <= idx) {
        std::size_t pub = published.load(std::memory_order_relaxed);
        cnsim_assert(pub < max_chunks,
                     "trace exceeds %zu chunks of %u records per core",
                     max_chunks, chunk_records);
        std::vector<std::unique_ptr<Chunk>> pending;
        pending.reserve(static_cast<std::size_t>(num_cores));
        for (int c = 0; c < num_cores; ++c)
            pending.push_back(std::make_unique<Chunk>());
        // Canonical round-robin interleaving: core 0..N-1, repeat.
        // This fixed order -- not the simulated timing -- defines the
        // replayed stream, making it identical across organizations.
        for (std::uint32_t r = 0; r < chunk_records; ++r)
            for (int c = 0; c < num_cores; ++c)
                pending[static_cast<std::size_t>(c)]->append(
                    synth.source(c).next());
        for (int c = 0; c < num_cores; ++c) {
            auto ci = static_cast<std::size_t>(c);
            slots[ci][pub] = std::move(pending[ci]);
        }
        published.store(pub + 1, std::memory_order_release);
    }
}

void
RecordedTrace::Chunk::append(const TraceRecord &rec)
{
    cnsim_assert(packable(rec.iaddr) && packable(rec.addr),
                 "record (iaddr %#llx, addr %#llx) does not pack: chunk "
                 "records hold 64-byte aligned addresses below 2^38",
                 static_cast<unsigned long long>(rec.iaddr),
                 static_cast<unsigned long long>(rec.addr));
    instr_total += rec.gap + 1;
    records.push_back({rec.gap, static_cast<std::uint32_t>(rec.op),
                       static_cast<std::uint32_t>(rec.iaddr >> block_shift),
                       static_cast<std::uint32_t>(rec.addr >> block_shift)});
}

ReplaySource::ReplaySource(RecordedTrace &trace, int core)
    : trace(trace), core(core)
{
    cnsim_assert(core >= 0 && core < trace.cores(),
                 "core %d out of range for a %d-core trace", core,
                 trace.cores());
    advanceTo(0);
}

void
ReplaySource::advanceTo(std::size_t idx)
{
    chunk_idx = idx;
    cur = trace.chunk(core, idx);
    off = 0;
}

TraceRecord
ReplaySource::next()
{
    if (off == cur->nRecords())
        advanceTo(chunk_idx + 1);
    ++n_consumed;
    const RecordedTrace::Chunk::Packed *recs = cur->records.data();
    // The stream runs far ahead of the host caches; ask for a later
    // line now, never past the chunk's last record.
    __builtin_prefetch(
        recs + std::min(off + prefetch_records, cur->nRecords() - 1));
    const RecordedTrace::Chunk::Packed &p = recs[off++];
    TraceRecord rec;
    rec.gap = p.gap;
    rec.iaddr = static_cast<Addr>(p.iblock) << block_shift;
    rec.addr = static_cast<Addr>(p.block) << block_shift;
    rec.op = static_cast<MemOp>(p.op);
    return rec;
}

void
ReplaySource::skip(std::uint64_t n)
{
    while (n) {
        if (off == cur->nRecords())
            advanceTo(chunk_idx + 1);
        std::uint64_t left = cur->nRecords() - off;
        std::uint64_t step = std::min(n, left);
        off += static_cast<std::uint32_t>(step);
        n_consumed += step;
        n -= step;
    }
}

SkipResult
ReplaySource::skipInstructions(std::uint64_t min_instrs)
{
    SkipResult r;
    while (r.instructions < min_instrs) {
        if (off == cur->nRecords())
            advanceTo(chunk_idx + 1);
        // Hop the chunk whenever a scan-and-count loop would consume
        // all of it without reaching the target inside.
        if (off == 0 &&
            r.instructions + cur->instr_total < min_instrs) {
            r.instructions += cur->instr_total;
            r.records += cur->nRecords();
            n_consumed += cur->nRecords();
            off = cur->nRecords();
            continue;
        }
        TraceRecord rec = next();
        ++r.records;
        r.instructions += rec.gap + 1;
    }
    return r;
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<RecordedTrace>
TraceCache::acquire(const SynthWorkloadParams &params)
{
    std::string key = serializeParams(params);
    MutexLock lock(mutex);
    auto it = entries.find(key);
    if (it != entries.end()) {
        if (std::shared_ptr<RecordedTrace> t = it->second.lock())
            return t;
    }
    // Miss: prune entries whose traces have been released, then build.
    for (auto e = entries.begin(); e != entries.end();) {
        if (e->second.expired())
            e = entries.erase(e);
        else
            ++e;
    }
    auto t = std::make_shared<RecordedTrace>(params);
    entries[key] = t;
    return t;
}

std::size_t
TraceCache::liveEntries()
{
    MutexLock lock(mutex);
    std::size_t n = 0;
    for (const auto &e : entries)
        if (!e.second.expired())
            ++n;
    return n;
}

// ---------------------------------------------------------------------
// CanonicalWorkload: the canonical stream without materialization.
// ---------------------------------------------------------------------

/**
 * A final TraceSource popping one core's records from its FIFO buffer,
 * drawing a fresh canonical round from the shared workload whenever
 * the buffer runs dry. The buffer absorbs consumption skew: a core
 * running ahead of the others forces rounds that park records in the
 * laggards' buffers, bounded by the cores' retirement skew (the run
 * ends when the *first* core meets its budget).
 */
class CanonicalWorkload::CoreSource final : public TraceSource
{
  public:
    explicit CoreSource(CanonicalWorkload &o) : owner(o) {}

    TraceRecord
    next() override
    {
        if (head == buf.size()) {
            buf.clear();
            head = 0;
            owner.drawRound();
        } else if (head >= buf.size() - head) {
            // Trim the consumed prefix once it is at least as long as
            // the backlog: each surviving record has been paid for by
            // a prior pop, so the move cost amortizes to O(1) per
            // record regardless of how far this core lags, and the
            // held memory stays within 2x the live skew.
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
        return buf[head++];
    }

  private:
    friend class CanonicalWorkload;

    CanonicalWorkload &owner;
    std::vector<TraceRecord> buf;
    std::size_t head = 0;
};

CanonicalWorkload::CanonicalWorkload(const SynthWorkloadParams &params)
    : synth(params), num_cores(static_cast<int>(params.threads.size()))
{
    for (int c = 0; c < num_cores; ++c)
        sources.push_back(std::make_unique<CoreSource>(*this));
}

CanonicalWorkload::~CanonicalWorkload() = default;

TraceSource &
CanonicalWorkload::source(int core)
{
    return *sources[static_cast<std::size_t>(core)];
}

void
CanonicalWorkload::drawRound()
{
    // Must match RecordedTrace::grow() exactly: this fixed interleaving
    // -- not the simulated timing -- is what makes the stream identical
    // across organizations, grids, --jobs values, and deliveries.
    for (int c = 0; c < num_cores; ++c)
        sources[static_cast<std::size_t>(c)]->buf.push_back(
            synth.source(c).next());
}

} // namespace cnsim
