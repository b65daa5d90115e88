/**
 * @file
 * Canonical reference streams: materialized once, or consumed once.
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
 * every --jobs value, and every host. RecordedTrace::drawRound() is
 * the one loop that draws it. A trace either keeps every chunk
 * (materialized: a sweep's cells share it, checkpoints and sampling
 * reposition in it) or recycles each chunk once its core's one cursor
 * leaves it (consume-once: CanonicalWorkload, a lone run). The stream
 * is a pure function of the workload parameters and seed, so nothing
 * about it is ever stored: a run that needs it again regenerates it.
 *
 * Thread-safety and the producer. Rounds are drawn under grow_mutex,
 * in round order, whichever thread draws them, so the stream never
 * depends on which thread drew it. Once a consumer moves past chunk 0
 * the trace starts one producer thread that keeps a fixed number of
 * chunks published ahead of the furthest consumer, taking generation
 * off the simulation thread. It is only a helper: a consumer that
 * reaches an unpublished chunk draws it itself, as if there were no
 * producer. The producer never allocates -- consumers hand it blank
 * chunks and ring room -- so it never opens a malloc arena of its own,
 * and on destruction it drops its unpublished round and is joined.
 * Consumers take a short slot lock once per chunk to fetch it;
 * ReplaySources on any thread read a fetched chunk lock-free.
 */

#ifndef CNSIM_TRACE_REPLAY_HH
#define CNSIM_TRACE_REPLAY_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "trace/synth.hh"
#include "trace/trace.hh"

namespace cnsim
{

/**
 * One (workload, seed) reference stream for all cores, as per-core
 * lists of packed chunks. It owns a SynthWorkload and extends every
 * core's stream on demand (canonical round-robin order), so consumers
 * never run dry and a cold cache costs exactly one generation pass.
 * Its retention decides whether a chunk outlives its readers.
 */
class RecordedTrace
{
  public:
    /** Records per chunk, per core, of a trace that keeps its chunks. */
    static constexpr std::uint32_t chunk_records = 4096;

    /** Records per chunk of a consume-once trace. Small, because its
     *  first chunk is drawn on the simulation thread before the run
     *  starts. */
    static constexpr std::uint32_t consume_once_chunk_records = 512;

    /** Chunks the producer publishes ahead of the furthest consumer. */
    static constexpr std::size_t lookahead_chunks = 2;
    static constexpr std::size_t consume_once_lookahead_chunks = 8;

    /** What becomes of a chunk its core's cursor has left. */
    enum class Retention
    {
        /** Kept: a sweep's cells reread the stream, and checkpoints
         *  and sampling reposition in it. */
        KeepAll,
        /** Recycled: each core has one cursor that reads its stream
         *  once, front to back. */
        ConsumeOnce,
    };

    /** One segment of a core's stream, held as 16-byte packed records
     *  (see the file comment). The instruction total lets ReplaySource
     *  fast-forward over a whole chunk in O(1): it decides whether a
     *  scan-and-count loop would stop inside it. */
    class Chunk
    {
      public:
        explicit Chunk(std::uint32_t capacity = chunk_records)
        {
            records.reserve(capacity);
        }

        /** Pack and append @p rec. Panics unless both of its addresses
         *  are 64-byte aligned and below 2^38: the packed record keeps
         *  each address as a 32-bit 64-byte block number, and an
         *  address it cannot hold is never truncated. */
        void append(const TraceRecord &rec);

        /** Empty the chunk for reuse, keeping its buffer. */
        void
        clear()
        {
            records.clear();
            instr_total = 0;
        }

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
    explicit RecordedTrace(const SynthWorkloadParams &params,
                           Retention retention = Retention::KeepAll);

    /** Stops the producer, dropping a round it has not published. */
    ~RecordedTrace();

    RecordedTrace(const RecordedTrace &) = delete;
    RecordedTrace &operator=(const RecordedTrace &) = delete;

    int cores() const { return num_cores; }

    /** Effective workload seed (checkpoint provenance). */
    std::uint64_t seed() const { return trace_seed; }

    /** FNV-1a hash of the generating params (checkpoint provenance). */
    std::uint64_t paramsHash() const { return params_hash; }

    /**
     * Chunk @p idx of @p core's stream, drawn first if nobody has
     * published it yet. A consume-once trace also recycles every
     * earlier chunk of @p core: its one cursor has left them.
     */
    const Chunk *chunk(int core, std::size_t idx);

    /** Chunks of @p core published and not yet recycled. */
    std::size_t heldChunks(int core);

    /** FNV-1a hash of a params structure (checkpoint provenance). */
    static std::uint64_t hashParams(const SynthWorkloadParams &params);

  private:
    /**
     * Draw round `published` -- one chunk per core, core 0..N-1, row by
     * row -- and publish it, if it is below both @p limit and the
     * wanted frontier. Abandons the round if the trace is stopping.
     */
    void drawRound(std::size_t limit) CNSIM_REQUIRES(grow_mutex);

    /** Raise the wanted frontier to @p idx plus the lookahead: provide
     *  its blank chunks and ring room, start or wake the producer. */
    void demand(std::size_t idx) CNSIM_REQUIRES(slot_mutex);

    /** Recycle @p core's chunks below @p idx (consume-once). */
    void release(std::size_t core, std::size_t idx)
        CNSIM_REQUIRES(slot_mutex);

    /** The ring cell of @p core's chunk @p idx. */
    std::unique_ptr<Chunk> &
    cell(std::size_t core, std::size_t idx) CNSIM_REQUIRES(slot_mutex)
    {
        std::vector<std::unique_ptr<Chunk>> &ring = rings[core];
        return ring[idx & (ring.size() - 1)];
    }

    /** The producer thread's loop. */
    void produce();

    const int num_cores;
    const std::uint64_t trace_seed;
    const std::uint64_t params_hash;
    const Retention retention;
    const std::uint32_t records_per_chunk;
    const std::size_t lookahead;

    Mutex grow_mutex;
    /** Advances only under grow_mutex, one whole round at a time. */
    SynthWorkload synth CNSIM_GUARDED_BY(grow_mutex);
    /** The round being drawn, one chunk per core. */
    std::vector<std::unique_ptr<Chunk>> round
        CNSIM_GUARDED_BY(grow_mutex);

    Mutex slot_mutex;
    /**
     * rings[core]: a power-of-two ring holding chunks [base[core],
     * published) at idx & (size - 1). Grown only on consumer threads,
     * before the wanted frontier that needs the room is raised.
     */
    std::vector<std::vector<std::unique_ptr<Chunk>>> rings
        CNSIM_GUARDED_BY(slot_mutex);
    /** Oldest chunk each core still holds; always 0 when keeping. */
    std::vector<std::size_t> base CNSIM_GUARDED_BY(slot_mutex);
    /** Chunks [0, published) of every core are drawn. */
    std::size_t published CNSIM_GUARDED_BY(slot_mutex) = 0;
    /** Rounds below this are wanted: the furthest chunk any consumer
     *  asked for, plus the lookahead. */
    std::size_t wanted CNSIM_GUARDED_BY(slot_mutex) = 0;
    /** Empty chunks, enough with `drawing` for every wanted round. */
    std::vector<std::unique_ptr<Chunk>> blanks
        CNSIM_GUARDED_BY(slot_mutex);
    /** Blank chunks out of `blanks` in the round being drawn. */
    std::size_t drawing CNSIM_GUARDED_BY(slot_mutex) = 0;
    bool producer_started CNSIM_GUARDED_BY(slot_mutex) = false;
    bool producer_idle CNSIM_GUARDED_BY(slot_mutex) = false;
    /** Set once, under slot_mutex, by the destructor; drawRound()
     *  polls it lock-free once per row. */
    std::atomic<bool> stopping{false};
    std::condition_variable_any wake;
    /** Declared last: it runs produce() on every member above. */
    std::thread producer CNSIM_SYNC_NOTE(
        "started once under slot_mutex; joined by the destructor");
};

/**
 * A final, pointer-bumping TraceSource over one core's stream of a
 * RecordedTrace. Replaces the whole generative machinery on the
 * simulation thread: next() unpacks one record of the current chunk
 * and prefetches a later one.
 *
 * Multiple ReplaySources (across threads) may share a trace that
 * keeps its chunks, each with its own cursor. A consume-once trace
 * takes exactly one ReplaySource per core.
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
 * The canonical stream of a run that reads it once: a consume-once
 * RecordedTrace and one ReplaySource per core.
 *
 * Every record equals the materialized trace's record at the same
 * position -- it is drawn by the same loop -- so results are
 * byte-identical to a shared materialized trace. Chunks are recycled
 * as soon as their core's cursor leaves them, so memory follows the
 * cores' consumption skew, not the run length: the cheaper delivery
 * for a stream only one run consumes.
 *
 * A materialized RecordedTrace is the cheaper delivery when several
 * runs share a stream or a run repositions its cursor (checkpoint
 * save/load, sampling's O(1) chunk hops); planStreams() in
 * sim/parallel_runner.hh encodes that policy.
 *
 * One instance drives one run. Each core's source is read by one
 * thread at a time; different cores may be read from different
 * threads.
 */
class CanonicalWorkload
{
  public:
    explicit CanonicalWorkload(const SynthWorkloadParams &params);
    ~CanonicalWorkload();

    CanonicalWorkload(const CanonicalWorkload &) = delete;
    CanonicalWorkload &operator=(const CanonicalWorkload &) = delete;

    int cores() const { return trace.cores(); }

    /** Trace source driving @p core; emits the canonical stream. */
    TraceSource &source(int core);

  private:
    RecordedTrace trace;
    /** Declared after `trace`, so the cursors go first. */
    std::vector<std::unique_ptr<ReplaySource>> sources;
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
