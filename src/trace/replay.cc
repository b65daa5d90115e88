#include "trace/replay.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <system_error>

#include "common/hash.hh"
#include "common/logging.hh"

namespace cnsim
{

namespace
{

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

RecordedTrace::RecordedTrace(const SynthWorkloadParams &params,
                             Retention retention)
    : num_cores(static_cast<int>(params.threads.size())),
      trace_seed(params.seed), params_hash(hashParams(params)),
      retention(retention),
      records_per_chunk(retention == Retention::KeepAll
                            ? chunk_records
                            : consume_once_chunk_records),
      lookahead(retention == Retention::KeepAll
                    ? lookahead_chunks
                    : consume_once_lookahead_chunks),
      synth(params), round(params.threads.size()),
      rings(params.threads.size()), base(params.threads.size(), 0)
{
    for (auto &ring : rings)
        ring.resize(1);
}

RecordedTrace::~RecordedTrace()
{
    {
        MutexLock lock(slot_mutex);
        stopping.store(true, std::memory_order_relaxed);
    }
    wake.notify_one();
    if (producer.joinable())
        producer.join();
}

std::uint64_t
RecordedTrace::hashParams(const SynthWorkloadParams &params)
{
    std::string bytes = serializeParams(params);
    return fnv1a(bytes.data(), bytes.size());
}

const RecordedTrace::Chunk *
RecordedTrace::chunk(int core, std::size_t idx)
{
    const auto c = static_cast<std::size_t>(core);
    for (;;) {
        {
            MutexLock lock(slot_mutex);
            if (retention == Retention::ConsumeOnce)
                release(c, idx);
            demand(idx);
            if (idx < published)
                return cell(c, idx).get();
        }
        // Not yet published: draw it here rather than wait on the
        // producer, which may be parked or busy with an earlier round.
        MutexLock lock(grow_mutex);
        drawRound(idx + 1);
    }
}

std::size_t
RecordedTrace::heldChunks(int core)
{
    MutexLock lock(slot_mutex);
    return published - base[static_cast<std::size_t>(core)];
}

void
RecordedTrace::release(std::size_t core, std::size_t idx)
{
    cnsim_assert(idx >= base[core],
                 "core %zu of a consume-once trace went back to chunk "
                 "%zu after leaving it",
                 core, idx);
    // Keep enough blanks for the whole lookahead; free the surplus a
    // laggard returns after heavy skew.
    const std::size_t keep = (lookahead + 1) * rings.size();
    for (; base[core] < idx; ++base[core]) {
        std::unique_ptr<Chunk> &slot = cell(core, base[core]);
        if (blanks.size() < keep)
            blanks.push_back(std::move(slot));
        else
            slot.reset();
    }
}

void
RecordedTrace::demand(std::size_t idx)
{
    // Chunk 0 is drawn before the run starts, by its consumer alone;
    // the lookahead is the producer's, which starts past chunk 0.
    const std::size_t want = idx == 0 ? 1 : idx + 1 + lookahead;
    if (want <= wanted)
        return;
    // Everything the rounds below `want` will need is allocated here,
    // on the consumer's thread: the producer only moves pointers.
    for (std::size_t c = 0; c < rings.size(); ++c) {
        std::vector<std::unique_ptr<Chunk>> &ring = rings[c];
        if (want - base[c] <= ring.size())
            continue;
        std::size_t size = ring.size();
        while (size < want - base[c])
            size *= 2;
        std::vector<std::unique_ptr<Chunk>> grown(size);
        for (std::size_t i = base[c]; i < published; ++i)
            grown[i & (size - 1)] = std::move(cell(c, i));
        ring.swap(grown);
    }
    const std::size_t need = (want - published) * rings.size();
    while (blanks.size() + drawing < need)
        blanks.push_back(std::make_unique<Chunk>(records_per_chunk));
    wanted = want;

    if (idx >= 1 && !producer_started) {
        producer_started = true;
        try {
            producer = std::thread([this]() { produce(); });
        } catch (const std::system_error &) {
            // No thread to spare: consumers draw every round themselves.
        }
    }
    // Wake a parked producer only once half the lookahead is missing,
    // so it draws rounds in batches rather than one per wake-up.
    if (producer_idle && wanted - published >= (lookahead + 1) / 2)
        wake.notify_one();
}

void
RecordedTrace::drawRound(std::size_t limit)
{
    {
        MutexLock lock(slot_mutex);
        if (published >= std::min(limit, wanted))
            return;
        cnsim_assert(blanks.size() >= round.size(),
                     "no blank chunks for wanted round %zu", published);
        for (std::unique_ptr<Chunk> &ch : round) {
            ch = std::move(blanks.back());
            blanks.pop_back();
            ch->clear();
        }
        drawing = round.size();
    }
    // Canonical round-robin interleaving: core 0..N-1, repeat. This
    // fixed order -- not the simulated timing, nor which thread draws
    // -- defines the stream, making it identical across organizations,
    // grids, --jobs values and deliveries.
    for (std::uint32_t r = 0; r < records_per_chunk; ++r) {
        if (stopping.load(std::memory_order_relaxed))
            return;
        for (int c = 0; c < num_cores; ++c)
            round[static_cast<std::size_t>(c)]->append(
                synth.source(c).next());
    }
    MutexLock lock(slot_mutex);
    for (std::size_t c = 0; c < round.size(); ++c)
        cell(c, published) = std::move(round[c]);
    ++published;
    drawing = 0;
}

void
RecordedTrace::produce()
{
    for (;;) {
        {
            MutexLock lock(slot_mutex);
            while (!stopping.load(std::memory_order_relaxed) &&
                   published >= wanted) {
                producer_idle = true;
                // condition_variable_any waits on the Mutex capability
                // itself (BasicLockable); MutexLock above keeps the
                // scoped extent visible to the thread-safety analysis.
                wake.wait(slot_mutex);
            }
            producer_idle = false;
            if (stopping.load(std::memory_order_relaxed))
                return;
        }
        MutexLock lock(grow_mutex);
        drawRound(std::numeric_limits<std::size_t>::max());
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

CanonicalWorkload::CanonicalWorkload(const SynthWorkloadParams &params)
    : trace(params, RecordedTrace::Retention::ConsumeOnce)
{
    for (int c = 0; c < trace.cores(); ++c)
        sources.push_back(std::make_unique<ReplaySource>(trace, c));
}

CanonicalWorkload::~CanonicalWorkload() = default;

TraceSource &
CanonicalWorkload::source(int core)
{
    return *sources[static_cast<std::size_t>(core)];
}

} // namespace cnsim
