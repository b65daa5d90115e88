/**
 * @file
 * Canonical reference streams: materialized once, or regenerated inline.
 *
 * A paper figure is a grid of L2 organizations all driven by the same
 * synthetic reference stream, yet historically every grid cell re-ran
 * the full generative model. A RecordedTrace materializes each
 * (workload, seed) stream once -- all cores, in a *canonical* order --
 * into per-core record buffers, and ReplaySource replays a core's
 * stream from those buffers with an array read and a few shifts per
 * record. Every cell of a sweep then shares one immutable trace (via
 * TraceCache), so generation is paid once instead of once per cell,
 * and every organization is, by construction, measured against the
 * bit-identical reference stream.
 *
 * Chunk records are fixed-width 16-byte packs of a TraceRecord (32 B
 * in memory): u32 gap, u32 op, and each address as a u32 64-byte block
 * number (addr >> 6). Every synthetic address is 64-byte granular and,
 * at up to 64 cores, below 2^35, so the pack is exact; append() panics
 * on an address that is unaligned or at or above 2^38 rather than
 * truncate it. Unpacking is two shifts, with no decoder state, so a
 * cursor still hops chunks in O(1). (A varint-delta encoding was tried
 * earlier and measured its per-record decode costing as much as
 * generation itself, ~25 ns.) A sweep's cells read the stream far
 * ahead of the host caches, so ReplaySource::next() also prefetches
 * the record a fixed distance ahead, within the current chunk.
 *
 * Canonical generation order. The synthetic model keeps cross-thread
 * state (the ROS/RWS recently-used registries), so per-core streams
 * depend on the order in which cores draw records. If that order were
 * the simulated interleaving, it would depend on the L2
 * organization's timing and streams would not be comparable across
 * organizations. Every run instead draws records round-robin (core
 * 0..N-1, repeat), a fixed interleaving independent of any simulator
 * timing: one stream, identical for every organization, every grid,
 * every --jobs value, and every host. A RecordedTrace materializes
 * that stream; a CanonicalWorkload regenerates it inline. The stream
 * is a pure function of the workload parameters and seed, so nothing
 * about it is ever stored: a run that needs it again regenerates it.
 *
 * Thread-safety: a RecordedTrace generates lazily in fixed-size chunks
 * under a mutex, publishing each completed chunk with a release store;
 * ReplaySources on any thread read published chunks lock-free.
 */

#ifndef CNSIM_TRACE_REPLAY_HH
#define CNSIM_TRACE_REPLAY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "trace/synth.hh"
#include "trace/trace.hh"

namespace cnsim
{

/**
 * One (workload, seed) reference stream, materialized once for all
 * cores into per-core lists of packed chunks. It owns a SynthWorkload
 * and extends every core's stream on demand (canonical round-robin
 * order), so consumers never run dry and a cold cache costs exactly
 * one generation pass.
 */
class RecordedTrace
{
  public:
    /** Records per generated chunk, per core. */
    static constexpr std::uint32_t chunk_records = 4096;

    /** One segment of a core's stream, held as 16-byte packed records
     *  (see the file comment). The instruction total lets ReplaySource
     *  fast-forward over a whole chunk in O(1): it decides whether a
     *  scan-and-count loop would stop inside it. */
    class Chunk
    {
      public:
        Chunk() { records.reserve(chunk_records); }

        /** Pack and append @p rec. Panics unless both of its addresses
         *  are 64-byte aligned and below 2^38: the packed record keeps
         *  each address as a 32-bit 64-byte block number, and an
         *  address it cannot hold is never truncated. */
        void append(const TraceRecord &rec);

        std::uint32_t nRecords() const
        {
            return static_cast<std::uint32_t>(records.size());
        }

        /** Sum of (gap + 1) over the chunk's records. */
        std::uint64_t instr_total = 0;

      private:
        friend class ReplaySource;

        /** A TraceRecord with its addresses as 64-byte block numbers. */
        struct Packed
        {
            std::uint32_t gap;
            std::uint32_t op;
            std::uint32_t iblock;
            std::uint32_t block;
        };
        static_assert(sizeof(Packed) == 16,
                      "four packed records per 64-byte host line");

        std::vector<Packed> records;
    };

    /** The stream of a fresh SynthWorkload for @p params. */
    explicit RecordedTrace(const SynthWorkloadParams &params);

    ~RecordedTrace();

    RecordedTrace(const RecordedTrace &) = delete;
    RecordedTrace &operator=(const RecordedTrace &) = delete;

    int cores() const { return num_cores; }

    /** Effective workload seed (checkpoint provenance). */
    std::uint64_t seed() const { return trace_seed; }

    /** FNV-1a hash of the generating params (checkpoint provenance). */
    std::uint64_t paramsHash() const { return params_hash; }

    /**
     * Chunk @p idx of @p core's stream, generated (and published)
     * first if needed. Lock-free for already-published chunks.
     */
    const Chunk *
    chunk(int core, std::size_t idx)
    {
        if (idx >= published.load(std::memory_order_acquire))
            grow(idx);
        return slots[static_cast<std::size_t>(core)][idx].get();
    }

    /** FNV-1a hash of a params structure (checkpoint provenance). */
    static std::uint64_t hashParams(const SynthWorkloadParams &params);

  private:
    /** Generate and publish chunks until @p idx is available. */
    void grow(std::size_t idx);

    const int num_cores;
    const std::uint64_t trace_seed;
    const std::uint64_t params_hash;

    /** Advances only under grow_mutex. */
    SynthWorkload synth CNSIM_GUARDED_BY(grow_mutex);

    /**
     * slots[core][chunk] -> published chunks. Pre-sized so readers can
     * index without synchronizing with growth; `published` (release/
     * acquire) is the visibility fence for slot contents.
     */
    std::vector<std::vector<std::unique_ptr<Chunk>>> slots
        CNSIM_SYNC_NOTE("cells below `published` are frozen and read "
                        "lock-free; cells above it are written only "
                        "under grow_mutex, then published with a "
                        "release store");
    std::atomic<std::size_t> published{0};
    Mutex grow_mutex;
};

/**
 * A final, pointer-bumping TraceSource over one core's stream of a
 * RecordedTrace. Replaces the whole generative machinery on the replay
 * side of a sweep: next() unpacks one record of the current chunk and
 * prefetches a later one.
 *
 * Multiple ReplaySources (across threads) may share one RecordedTrace;
 * each keeps its own cursor.
 */
class ReplaySource final : public TraceSource
{
  public:
    ReplaySource(RecordedTrace &trace, int core);

    TraceRecord next() override;

    /** Positional reposition; hops whole chunks in O(1) each. */
    void skip(std::uint64_t n) override;

    /** Instruction-bounded fast-forward; hops whole chunks using the
     *  per-chunk instruction totals, scanning only the partial chunk
     *  the stopping record lands in. */
    SkipResult skipInstructions(std::uint64_t min_instrs) override;

    /** Records consumed so far -- the stream cursor a checkpoint
     *  persists. Purely positional: record N of any stream generated
     *  from the same workload family is the N-th canonical draw. */
    std::uint64_t consumed() const { return n_consumed; }

  private:
    /** Step to chunk @p idx. */
    void advanceTo(std::size_t idx);

    RecordedTrace &trace;
    int core;
    const RecordedTrace::Chunk *cur = nullptr;
    std::size_t chunk_idx = 0;
    std::uint32_t off = 0;
    std::uint64_t n_consumed = 0;
};

/**
 * Canonical-order inline generation: the replay *stream* without the
 * materialized *trace*.
 *
 * What defines the stream is the canonical draw order, not
 * materialized bytes; this class reproduces exactly that order -- one
 * record per core, core 0..N-1, repeat, identical to
 * RecordedTrace::grow() -- straight out of a SynthWorkload, with
 * per-core FIFO buffers absorbing the skew between the fixed
 * generation order and the timing-dependent consumption order. Every
 * record equals the materialized trace's record at the same position,
 * so results are byte-identical to replay at no materialization cost,
 * which is the cheaper delivery for a stream only one run consumes.
 *
 * A materialized RecordedTrace is the cheaper delivery when several
 * runs share a stream or a run repositions its cursor (checkpoint
 * save/load, sampling's O(1) chunk hops); planStreams() in
 * sim/parallel_runner.hh encodes that policy.
 *
 * Not thread-safe: one instance drives one run, like SynthWorkload.
 */
class CanonicalWorkload
{
  public:
    explicit CanonicalWorkload(const SynthWorkloadParams &params);
    ~CanonicalWorkload();

    CanonicalWorkload(const CanonicalWorkload &) = delete;
    CanonicalWorkload &operator=(const CanonicalWorkload &) = delete;

    int cores() const { return num_cores; }

    /** Trace source driving @p core; emits the canonical stream. */
    TraceSource &source(int core);

  private:
    class CoreSource;

    /** Draw one canonical round: one record per core, core 0..N-1. */
    void drawRound();

    SynthWorkload synth;
    int num_cores;
    std::vector<std::unique_ptr<CoreSource>> sources;
};

/**
 * Process-wide cache of RecordedTraces keyed by the *effective*
 * workload parameters (every field, plus the seed), so every grid cell
 * of a sweep -- across Runner, ParallelRunner workers, and bench
 * binaries -- shares one trace per (workload, seed). Entries are held
 * by weak_ptr: a trace lives exactly as long as some runner holds it.
 */
class TraceCache
{
  public:
    static TraceCache &global();

    /**
     * The shared trace for @p params (which must already include the
     * run seed mixing, i.e. Runner's effective params), creating it on
     * first use.
     */
    std::shared_ptr<RecordedTrace>
    acquire(const SynthWorkloadParams &params);

    /** Live (still-referenced) entries; for tests and diagnostics. */
    std::size_t liveEntries();

  private:
    Mutex mutex;
    std::map<std::string, std::weak_ptr<RecordedTrace>> entries
        CNSIM_GUARDED_BY(mutex);
};

} // namespace cnsim

#endif // CNSIM_TRACE_REPLAY_HH
