/**
 * @file
 * Abstract on-chip interconnect interface.
 *
 * The paper's platform couples the L2 organizations through a snooping
 * bus; past a handful of cores the bus serializes every coherence
 * action and becomes the scalability wall (ROADMAP item 1). This
 * interface lets the protocol-owning L2 organizations issue the same
 * logical transactions against either fabric:
 *
 *  - SnoopBus (mem/bus.hh): the paper's pipelined split-transaction
 *    bus. Timing and accounting only; `src`/`addr` are ignored, so the
 *    4-core configurations stay bit-identical to the pre-interface
 *    goldens.
 *  - DirectoryInterconnect (mem/directory.hh): home-node directories
 *    over a 2D-mesh (or ring) NoC, replacing broadcasts with
 *    multicast-to-sharers.
 *
 * Protocol *logic* (who responds, what state changes) stays in the L2
 * organizations, which have the global view; an Interconnect provides
 * timing, ordering, and per-command accounting. The directory
 * additionally mirrors sharer membership from the (cmd, src, addr)
 * stream, which is why the org-facing entry points carry the requestor
 * and block address. That mirror also drives the organizations' peer
 * lookups: holders() names the cores that may hold a block, so a
 * coherence action probes those tag arrays instead of all of them --
 * every core on the bus, only the sharer set under a directory. The
 * set only grows while an access is in flight (holders() gives the
 * argument), and the per-block audit checks that it covers every
 * copy.
 */

#ifndef CNSIM_MEM_INTERCONNECT_HH
#define CNSIM_MEM_INTERCONNECT_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/packet.hh"

namespace cnsim
{

namespace obs
{
class TraceSink;
} // namespace obs

namespace sample
{
class Writer;
class Reader;
} // namespace sample

/** Which interconnect fabric couples the L2 organizations. */
enum class InterconnectKind
{
    Bus,   //!< the paper's snooping bus (4-core baseline)
    Mesh,  //!< 2D mesh NoC with directory coherence
    Ring,  //!< 1D ring (degenerate mesh) with directory coherence
};

/** Human-readable name of an InterconnectKind. */
inline const char *
toString(InterconnectKind k)
{
    switch (k) {
      case InterconnectKind::Bus: return "bus";
      case InterconnectKind::Mesh: return "mesh";
      case InterconnectKind::Ring: return "ring";
    }
    cnsim_unreachable("InterconnectKind");
}

/** A set of cores, bit c for core c (at most 64 cores). */
using CoreMask = std::uint64_t;

/** The set of cores 0 .. @p num_cores - 1. */
constexpr CoreMask
allCores(int num_cores)
{
    return num_cores >= 64 ? ~CoreMask{0}
                           : (CoreMask{1} << num_cores) - 1;
}

/** Call @p f(c) for each core c in @p mask, in ascending order. */
template <typename F>
inline void
forEachCore(CoreMask mask, F &&f)
{
    for (; mask; mask &= mask - 1)
        f(static_cast<CoreId>(std::countr_zero(mask)));
}

/** Timing/accounting model of the coherence interconnect. */
class Interconnect
{
  public:
    virtual ~Interconnect() = default;

    /**
     * Place a transaction of kind @p cmd for block @p addr on the
     * fabric at tick @p at, on behalf of core @p src (invalid_id for
     * anonymous timing-only traffic).
     *
     * @return the tick at which the transaction has been ordered,
     *         observed by every required party, and any combined
     *         response (shared/dirty signals, pointer return, data) is
     *         available at the requestor.
     */
    [[nodiscard]] virtual Tick transaction(BusCmd cmd, CoreId src,
                                           Addr addr, Tick at) = 0;

    /**
     * Place a transaction that does not stall the issuer (BusRepl,
     * writeback address phases, eviction notices).
     */
    virtual void postedTransaction(BusCmd cmd, CoreId src, Addr addr,
                                   Tick at) = 0;

    /** Anonymous timing-only transaction (micro-benchmarks, tests). */
    [[nodiscard]] Tick
    transaction(BusCmd cmd, Tick at)
    {
        return transaction(cmd, invalid_id, 0, at);
    }

    /** Anonymous timing-only posted transaction. */
    void
    postedTransaction(BusCmd cmd, Tick at)
    {
        postedTransaction(cmd, invalid_id, 0, at);
    }

    /**
     * True if the fabric tracks sharer membership and needs a DirPut
     * notice when a clean copy leaves a cache silently. The snooping
     * bus returns false, so the bus-coupled protocols stay exactly as
     * the paper describes them.
     */
    [[nodiscard]] virtual bool wantsEvictionNotices() const
    {
        return false;
    }

    /**
     * A conservative set of the cores that may hold @p addr's block:
     * every core holding a copy is a member, extra members are
     * allowed. The L2 organizations visit only these cores' tag
     * arrays when they snoop, invalidate, update or repoint peers.
     *
     * Why one reading serves a whole access, taken right after that
     * access's transaction(): a member bit is cleared only by the
     * departing core's own eviction notice (WrBack or DirPut with a
     * valid src), posted as that core's copy goes away. Every request
     * adds its requestor. So the set read after the request is a
     * superset of the holders before it plus the requestor, and no
     * other core gains a copy of the block while its access is in
     * flight. A loop that posts DirPut as it invalidates must iterate
     * a copy taken before the loop, never re-read the set mid-way.
     *
     * The snooping bus tracks nothing and returns every core. The
     * per-block audit (checkBlockInvariants under --audit) asserts
     * that every core holding a copy is in this set, so a directory
     * that under-reports a holder dies at the next safe point instead
     * of silently skipping a peer.
     */
    [[nodiscard]] virtual CoreMask holders(Addr addr) const = 0;

    virtual void regStats(StatGroup &group) = 0;
    virtual void resetStats() = 0;

    /** Emit transaction (and internal Resource) events into @p s. */
    virtual void attachSink(obs::TraceSink *s) = 0;

    /** Transactions of @p cmd since the last resetStats(). */
    [[nodiscard]] virtual std::uint64_t count(BusCmd cmd) const = 0;

    /** Nominal end-to-end visibility latency (energy/latency models). */
    [[nodiscard]] virtual Tick latency() const = 0;

    /** Serialize fabric state (slot/link occupancy, directory
     *  membership) into a checkpoint. */
    virtual void saveState(sample::Writer &w) const = 0;

    /** Restore fabric state from a checkpoint. */
    virtual void loadState(sample::Reader &r) = 0;
};

} // namespace cnsim

#endif // CNSIM_MEM_INTERCONNECT_HH
