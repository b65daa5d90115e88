/**
 * @file
 * Isolated per-call baselines: each layer's public calls driven
 * standalone with inputs drawn from the workload's own stream, to set
 * next to the in-situ figures of the traced run. The interconnect and
 * DRAM have no in-situ spans (they sit inside L2Org::access), so their
 * figures here are the traced run's only per-call estimates.
 */

#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "trace/replay.hh"

namespace cnbench
{

using namespace cnsim;

namespace
{

/** Keeps timed results observable so loops are not optimized away. */
volatile std::uint64_t g_sink = 0;

/**
 * Median over three fresh instances of ns per call: @p make builds an
 * instance (untimed), @p drive makes @p calls calls on it (timed).
 */
template <typename Make, typename Drive>
double
nsPerCall(std::uint64_t calls, Make &&make, Drive &&drive)
{
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
        auto obj = make();
        double t0 = nowSeconds();
        g_sink = drive(*obj);
        t.push_back((nowSeconds() - t0) * 1e9 / static_cast<double>(calls));
    }
    return median(t);
}

/** A self-rescheduling kernel event, the shape of a core step. */
struct Ticker
{
    EventQueue *eq;
    std::uint64_t *left;
    Tick delay;

    void
    operator()(Tick now)
    {
        if (*left == 0)
            return;
        --*left;
        eq->schedule(now + delay, *this);
    }
};

} // namespace

IsolatedBaselines
measureIsolated(const Workload &w, const std::vector<double> &cmd_mix,
                std::uint64_t seed, bool smoke)
{
    IsolatedBaselines b;
    const ParallelJob &cell = w.cells.front();
    const SystemConfig &cfg = cell.sys_cfg;
    const int cores = cfg.num_cores;
    const SynthWorkloadParams params =
        Runner::effectiveSynthParams(cell.workload, cell.run_cfg);
    const std::uint64_t per_core = smoke ? 2'000 : 100'000;
    const std::uint64_t total = per_core * static_cast<std::uint64_t>(cores);

    // Canonical-live next(), and the records the other baselines use.
    std::vector<std::vector<TraceRecord>> recs(cores);
    {
        CanonicalWorkload live(params);
        for (std::uint64_t i = 0; i < per_core; ++i)
            for (int c = 0; c < cores; ++c)
                recs[c].push_back(live.source(c).next());
    }
    b.live_next_ns = nsPerCall(
        total, [&]() { return std::make_unique<CanonicalWorkload>(params); },
        [&](CanonicalWorkload &live) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < per_core; ++i)
                for (int c = 0; c < cores; ++c)
                    acc += live.source(c).next().addr;
            return acc;
        });

    // Replay next() over an already materialized stream.
    {
        RecordedTrace trace(params);
        for (int c = 0; c < cores; ++c)
            ReplaySource(trace, c).skip(per_core);
        using Sources = std::vector<std::unique_ptr<ReplaySource>>;
        b.replay_next_ns = nsPerCall(
            total,
            [&]() {
                auto src = std::make_unique<Sources>();
                for (int c = 0; c < cores; ++c)
                    src->push_back(std::make_unique<ReplaySource>(trace, c));
                return src;
            },
            [&](Sources &src) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < per_core; ++i)
                    for (int c = 0; c < cores; ++c)
                        acc += src[c]->next().addr;
                return acc;
            });
    }

    // L1 lookup (fill on a miss) over core 0's data references, on a
    // cache warmed by one pass.
    auto l1Pass = [&](L1Cache &l1) {
        std::uint64_t calls = 0;
        for (const TraceRecord &r : recs[0]) {
            ++calls;
            bool hit = r.op == MemOp::Load
                           ? l1.loadHit(r.addr)
                           : l1.storeCheck(r.addr) == L1StoreCheck::Hit;
            if (!hit) {
                l1.fill(r.addr, true, false);
                ++calls;
            }
        }
        return calls;
    };
    std::uint64_t l1_calls = 0;
    {
        L1Cache probe("iso.l1d", cfg.l1d);
        l1Pass(probe);
        l1_calls = l1Pass(probe);
    }
    b.l1_ns = nsPerCall(
        l1_calls,
        [&]() {
            auto l1 = std::make_unique<L1Cache>("iso.l1d", cfg.l1d);
            l1Pass(*l1);
            return l1;
        },
        l1Pass);

    // The workload's L1-miss stream, filtered through per-core L1s.
    std::vector<MemAccess> misses;
    {
        std::vector<std::unique_ptr<L1Cache>> l1i, l1d;
        for (int c = 0; c < cores; ++c) {
            l1i.push_back(std::make_unique<L1Cache>("iso.l1i", cfg.l1i));
            l1d.push_back(std::make_unique<L1Cache>("iso.l1d", cfg.l1d));
        }
        for (std::uint64_t i = 0; i < per_core; ++i) {
            for (int c = 0; c < cores; ++c) {
                const TraceRecord &r = recs[c][i];
                if (r.iaddr && !l1i[c]->loadHit(r.iaddr)) {
                    l1i[c]->fill(r.iaddr, false, false);
                    misses.push_back({c, r.iaddr, MemOp::Ifetch});
                }
                bool hit = r.op == MemOp::Load
                               ? l1d[c]->loadHit(r.addr)
                               : l1d[c]->storeCheck(r.addr) ==
                                     L1StoreCheck::Hit;
                if (!hit) {
                    l1d[c]->fill(r.addr, true, false);
                    misses.push_back({c, r.addr, r.op});
                }
            }
        }
    }

    // L2Org::access per organization: the first half of the miss
    // stream warms a fresh system, the second half is timed.
    const std::size_t half = misses.size() / 2;
    for (L2Kind k : {L2Kind::Shared, L2Kind::Private, L2Kind::Snuca,
                     L2Kind::Ideal, L2Kind::Nurapid, L2Kind::Update,
                     L2Kind::Dnuca}) {
        double ns = nsPerCall(
            misses.size() - half,
            [&]() {
                auto sys = std::make_unique<System>(
                    Runner::paperConfig(k, cores, cfg.interconnect));
                for (std::size_t j = 0; j < half; ++j)
                    (void)sys->l2().access(misses[j], 20 * j);
                return sys;
            },
            [&](System &sys) {
                std::uint64_t acc = 0;
                for (std::size_t j = half; j < misses.size(); ++j)
                    acc += sys.l2().access(misses[j], 20 * j).complete;
                return acc;
            });
        b.l2_ns.emplace_back(toString(k), ns);
    }

    // The workload's fabric, as its first cell's System builds it,
    // driven with the workload's transaction mix.
    {
        double sum = 0.0;
        for (double n : cmd_mix)
            sum += n;
        const std::uint64_t n = smoke ? 5'000 : 400'000;
        Rng rng(seed, 0x1c0);
        struct Txn
        {
            BusCmd cmd;
            CoreId src;
            Addr addr;
        };
        std::vector<Txn> txns;
        for (std::uint64_t i = 0; i < n; ++i) {
            double u = rng.uniform() * sum;
            int c = 0;
            while (c + 1 < num_bus_cmds && u >= cmd_mix[c])
                u -= cmd_mix[c++];
            txns.push_back({static_cast<BusCmd>(c),
                            static_cast<CoreId>(rng.below(cores)),
                            // Aligned to every organization's block size.
                            static_cast<Addr>(rng.below(1u << 16)) * 128});
        }
        b.icn_ns = nsPerCall(
            n, [&]() { return std::make_unique<System>(cfg); },
            [&](System &sys) {
                std::uint64_t acc = 0;
                Tick at = 0;
                for (const Txn &x : txns) {
                    acc += sys.bus().transaction(x.cmd, x.src, x.addr, at);
                    at += 10;
                }
                return acc;
            });
    }

    // DRAM reads.
    const std::uint64_t dram_n = smoke ? 10'000 : 1'000'000;
    b.dram_ns = nsPerCall(
        dram_n, [&]() { return std::make_unique<MainMemory>(cfg.memory); },
        [&](MainMemory &mem) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < dram_n; ++i)
                acc += mem.read(20 * i);
            return acc;
        });

    // Event kernel: one self-rescheduling event per core.
    const std::uint64_t events = smoke ? 10'000 : 2'000'000;
    std::uint64_t left = 0;
    b.kernel_ns = nsPerCall(
        events,
        [&]() {
            auto eq = std::make_unique<EventQueue>();
            left = events;
            for (int c = 0; c < cores; ++c)
                eq->schedule(0, Ticker{eq.get(), &left,
                                       static_cast<Tick>(3 + (7 * c) % 13)});
            return eq;
        },
        [&](EventQueue &eq) {
            eq.run();
            return eq.executed();
        });
    return b;
}

} // namespace cnbench
