/**
 * @file
 * The traced run: per-layer host time.
 *
 * Each cell is re-driven here through the same public calls Core::step
 * and System::access make -- TraceSource::next (through a timing
 * decorator), L1Cache loadHit/storeCheck/fill, L2Org::access via
 * System::l2(), EventQueue scheduling -- with a span around each call.
 * The re-drive must reproduce the untraced Runner::run statistics
 * exactly, or the cell counts as failed.
 *
 * Spans are summed per layer in memory; the first steps of each cell's
 * measured window are also kept as raw spans (with their parent step)
 * and written to the scratch directory at the end. A layer's self time
 * is its span total minus its children's.
 *
 * Timestamps come from the TSC on x86 (about 20 ns per read on a 4-vCPU
 * Xeon VM, against about 40 ns for the steady clock; either is as long
 * as the L1 calls being timed) and are converted to ns by calibrating
 * each traced rep against the steady clock. Per-call ns figures
 * subtract the measured cost of an empty span; self shares do not, so
 * the timer cost shows up in host.tracing_overhead and in the parents'
 * self time.
 */

#include <sys/stat.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"
#include "sim/event_queue.hh"
#include "trace/replay.hh"

namespace cnbench
{

using namespace cnsim;

namespace
{

inline std::uint64_t
stamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Span kinds, one per call boundary the re-drive times. */
enum SpanKind : std::uint8_t
{
    SpAcquire,   //!< stream-mode resolution + shared trace acquisition
    SpBuild,     //!< System construction
    SpSources,   //!< trace sources, event queue, cores
    SpReset,     //!< resetStats at the epoch (opens the binlog)
    SpHarvest,   //!< invariant check + result collection
    SpTeardown,  //!< destruction of the cell's machine and streams
    SpLoop,      //!< a warm-up or measurement loop
    SpRun,       //!< EventQueue::run for one quantum
    SpStep,      //!< one core step (the kernel's callback)
    SpNext,      //!< TraceSource::next
    SpL1,        //!< L1Cache loadHit / storeCheck / fill
    SpL2,        //!< L2Org::access (includes interconnect and DRAM)
    SpNote,      //!< L2Org::noteL1Hit
    SpSched,     //!< EventQueue::schedule
    SpStall,     //!< TraceSink::coreStall emit
    SpObsTick,   //!< System::obsTick (metrics snapshots)
    SpFinish,    //!< System::finishObs (seals the binlog)
    num_span_kinds
};

const char *const span_names[num_span_kinds] = {
    "acquire", "build", "sources", "reset", "harvest", "teardown",
    "loop", "run", "step", "next", "l1", "l2", "note", "sched", "stall",
    "obs_tick", "finish"};

/** Steps per cell whose spans are kept raw. */
constexpr std::uint32_t raw_steps_per_cell = 64;

struct RawSpan
{
    std::uint32_t cell;
    std::uint32_t id;
    std::uint32_t parent;
    SpanKind kind;
    std::uint64_t t0;
    std::uint64_t t1;
};

/** In-memory span store of one traced pass. */
struct Tracer
{
    std::uint64_t ticks[num_span_kinds] = {};
    std::uint64_t calls[num_span_kinds] = {};
    std::vector<RawSpan> raw;
    std::uint32_t cell = 0;
    std::uint32_t raw_left = 0;
    std::uint32_t next_id = 1;
    std::uint32_t parent = 0;
    /** Whether raw spans are kept at all (first traced rep only). */
    bool keep_raw = false;

    std::uint64_t l1i_lookups = 0;
    std::uint64_t l1i_hits = 0;
    std::uint64_t l1d_lookups = 0;
    std::uint64_t l1d_hits = 0;

    void
    span(SpanKind k, std::uint64_t t0, std::uint64_t t1)
    {
        ticks[k] += t1 - t0;
        ++calls[k];
        if (parent)
            raw.push_back({cell, next_id++, parent, k, t0, t1});
    }

    /** Open a step; @return its raw id (0 when not sampled). */
    std::uint32_t
    beginStep()
    {
        if (raw_left == 0)
            return 0;
        --raw_left;
        parent = next_id++;
        return parent;
    }

    void
    endStep(std::uint32_t id, std::uint64_t t0, std::uint64_t t1)
    {
        ticks[SpStep] += t1 - t0;
        ++calls[SpStep];
        if (id) {
            raw.push_back({cell, id, 0, SpStep, t0, t1});
            parent = 0;
        }
    }
};

/** TraceSource decorator timing every next(). */
class TimedSource final : public TraceSource
{
  public:
    TimedSource(TraceSource &inner, Tracer &tr) : inner(inner), tr(tr) {}

    TraceRecord
    next() override
    {
        std::uint64_t t0 = stamp();
        TraceRecord r = inner.next();
        tr.span(SpNext, t0, stamp());
        return r;
    }

  private:
    TraceSource &inner;
    Tracer &tr;
};

/**
 * Core::step and System::access, re-driven with a span around each
 * call into another layer. Must stay call-for-call identical to them:
 * the exactness check against the untraced run enforces it.
 */
class TracedCore
{
  public:
    TracedCore(CoreId id, System &system, TraceSource &source,
               double non_mem_cpi, Tracer &tr)
        : id(id), system(system), source(source), cpi(non_mem_cpi),
          unit_cpi(non_mem_cpi == 1.0), tr(tr),
          notes(system.l2().wantsL1HitNotes()),
          store_buffering(system.config().store_buffering)
    {
    }

    TracedCore(const TracedCore &) = delete;
    TracedCore &operator=(const TracedCore &) = delete;

    void
    attachSink(obs::TraceSink *s)
    {
        sink = s;
        if (s) {
            track = s->registerComponent(strfmt("core%d", id));
            stall_threshold = s->stallThreshold();
        }
    }

    void
    regStats(StatGroup &group)
    {
        group.addCounter(strfmt("core%d.instructions", id), &n_instr,
                         "instructions retired");
        group.addCounter(strfmt("core%d.dataRefs", id), &n_data_refs,
                         "data references issued");
    }

    void
    start(EventQueue &eq)
    {
        eq.schedule(eq.now(), [this, &eq](Tick now) { step(eq, now); });
    }

    std::uint64_t
    epochInstructions() const
    {
        return n_instr.value() - epoch_instr;
    }

    void
    markEpoch(Tick now)
    {
        epoch_instr = n_instr.value();
        epoch_start = now;
    }

    double
    ipc(Tick now) const
    {
        Tick dt = now - epoch_start;
        return dt ? static_cast<double>(epochInstructions()) / dt : 0.0;
    }

  private:
    void
    step(EventQueue &eq, Tick now)
    {
        const std::uint64_t t0 = stamp();
        const std::uint32_t sid = tr.beginStep();
        TraceRecord rec = source.next();
        Tick issue = now + (unit_cpi
                                ? static_cast<Tick>(rec.gap)
                                : static_cast<Tick>(rec.gap * cpi + 0.5));
        n_instr.inc(rec.gap + 1);
        n_data_refs.inc();
        Tick done = access(rec, issue);
        if (sink && done > issue && done - issue >= stall_threshold) {
            std::uint64_t a = stamp();
            sink->coreStall(issue, track, id, rec.addr, done - issue);
            tr.span(SpStall, a, stamp());
        }
        if (done <= now)
            done = now + 1;
        std::uint64_t a = stamp();
        eq.schedule(done, [this, &eq](Tick t) { step(eq, t); });
        tr.span(SpSched, a, stamp());
        tr.endStep(sid, t0, stamp());
    }

    AccessResult
    l2Access(MemOp op, Addr addr, Tick at)
    {
        MemAccess acc{id, addr, op};
        std::uint64_t a = stamp();
        AccessResult r = system.l2().access(acc, at);
        tr.span(SpL2, a, stamp());
        return r;
    }

    void
    fill(L1Cache &l1, Addr addr, bool owned, bool wt)
    {
        std::uint64_t a = stamp();
        l1.fill(addr, owned, wt);
        tr.span(SpL1, a, stamp());
    }

    void
    noteHit(Addr addr)
    {
        if (!notes)
            return;
        std::uint64_t a = stamp();
        system.l2().noteL1Hit(id, addr);
        tr.span(SpNote, a, stamp());
    }

    Tick
    access(const TraceRecord &rec, Tick at)
    {
        L1Cache &l1i = system.l1i(id);
        L1Cache &l1d = system.l1d(id);
        Tick t = at;

        if (rec.iaddr != 0) {
            std::uint64_t a = stamp();
            bool hit = l1i.loadHit(rec.iaddr);
            tr.span(SpL1, a, stamp());
            ++tr.l1i_lookups;
            tr.l1i_hits += hit;
            if (!hit) {
                AccessResult r =
                    l2Access(MemOp::Ifetch, rec.iaddr, t + l1i.latency());
                fill(l1i, rec.iaddr, false, r.l1WriteThrough);
                t = r.complete;
            }
        }

        ++tr.l1d_lookups;
        if (rec.op == MemOp::Load) {
            std::uint64_t a = stamp();
            bool hit = l1d.loadHit(rec.addr);
            tr.span(SpL1, a, stamp());
            if (hit) {
                ++tr.l1d_hits;
                noteHit(rec.addr);
                return t + l1d.latency();
            }
            AccessResult r =
                l2Access(MemOp::Load, rec.addr, t + l1d.latency());
            fill(l1d, rec.addr, r.l1Owned, r.l1WriteThrough);
            return r.complete;
        }

        std::uint64_t a = stamp();
        L1StoreCheck sc = l1d.storeCheck(rec.addr);
        tr.span(SpL1, a, stamp());
        if (sc == L1StoreCheck::Hit) {
            ++tr.l1d_hits;
            noteHit(rec.addr);
            return t + 1;
        }
        AccessResult r = l2Access(MemOp::Store, rec.addr, t + l1d.latency());
        fill(l1d, rec.addr, r.l1Owned, r.l1WriteThrough);
        if (store_buffering && r.cls == AccessClass::Hit)
            return t + 1;
        return r.complete;
    }

    CoreId id;
    System &system;
    TraceSource &source;
    double cpi;
    bool unit_cpi;
    Tracer &tr;
    bool notes;
    bool store_buffering;
    obs::TraceSink *sink = nullptr;
    int track = -1;
    Tick stall_threshold = 0;
    Counter n_instr;
    Counter n_data_refs;
    std::uint64_t epoch_instr = 0;
    Tick epoch_start = 0;
};

/** What one traced cell yields beyond its RunResult. */
struct TracedCell
{
    RunResult r;
    std::vector<std::uint64_t> cmd_counts =
        std::vector<std::uint64_t>(num_bus_cmds, 0);
    /** Events the kernel executed in the measured window. */
    std::uint64_t measured_events = 0;
};

/** Runner::run's non-sampled path, re-driven with spans. */
TracedCell
traceCell(const ParallelJob &job, Tracer &tr)
{
    const RunConfig &rc = job.run_cfg;
    Runner::validate(job.sys_cfg, job.workload, rc);
    if (rc.sample_windows > 0 || ParallelRunner::needsMaterializedTrace(rc))
        fatal("the traced re-drive covers unsampled, uncheckpointed cells");
    if (job.sys_cfg.obs.audit || job.sys_cfg.obs.trace ||
        !rc.trace_out.empty())
        fatal("the traced re-drive does not model the auditor or the "
              "in-memory event store");
    if (!rc.replay && !rc.canonical_live)
        fatal("cell %s has no canonical stream", cellName(job).c_str());

    SystemConfig sc = job.sys_cfg;
    if (!rc.binlog_out.empty())
        sc.obs.binlog_out = rc.binlog_out;

    std::uint64_t a = stamp();
    auto system = std::make_unique<System>(sc);
    tr.span(SpBuild, a, stamp());

    a = stamp();
    std::unique_ptr<CanonicalWorkload> canon;
    std::vector<std::unique_ptr<ReplaySource>> replays;
    std::vector<std::unique_ptr<TimedSource>> timed;
    if (rc.replay) {
        for (int c = 0; c < sc.num_cores; ++c)
            replays.push_back(std::make_unique<ReplaySource>(*rc.replay, c));
    } else {
        canon = std::make_unique<CanonicalWorkload>(
            Runner::effectiveSynthParams(job.workload, rc));
    }
    for (int c = 0; c < sc.num_cores; ++c)
        timed.push_back(std::make_unique<TimedSource>(
            rc.replay ? static_cast<TraceSource &>(*replays[c])
                      : canon->source(c),
            tr));
    auto eq = std::make_unique<EventQueue>();
    std::vector<std::unique_ptr<TracedCore>> cores;
    for (int c = 0; c < sc.num_cores; ++c) {
        cores.push_back(std::make_unique<TracedCore>(
            c, *system, *timed[c], sc.core_non_mem_cpi, tr));
        cores.back()->attachSink(system->traceSink());
    }
    if (system->metrics()) {
        StatGroup cg("cores");
        for (auto &core : cores)
            core->regStats(cg);
        system->metrics()->importStatGroup(cg);
    }
    tr.span(SpSources, a, stamp());

    auto max_core_instr = [&]() {
        std::uint64_t m = 0;
        for (auto &core : cores)
            m = std::max(m, core->epochInstructions());
        return m;
    };
    auto run_until = [&](std::uint64_t budget, const char *phase) {
        std::uint64_t l0 = stamp();
        while (max_core_instr() < budget) {
            if (!eq->pending())
                panic("event queue drained during %s", phase);
            std::uint64_t b = stamp();
            eq->run(eq->now() + rc.quantum);
            tr.span(SpRun, b, stamp());
            b = stamp();
            system->obsTick(eq->now());
            tr.span(SpObsTick, b, stamp());
        }
        tr.span(SpLoop, l0, stamp());
    };

    for (auto &core : cores)
        core->start(*eq);
    run_until(rc.warmup_instructions, "warm-up");

    a = stamp();
    system->resetStats();
    const Tick epoch_start = eq->now();
    for (auto &core : cores)
        core->markEpoch(epoch_start);
    if (system->metrics())
        system->metrics()->snapshot(epoch_start);
    tr.span(SpReset, a, stamp());

    TracedCell out;
    const std::uint64_t events0 = eq->executed();
    if (tr.keep_raw)
        tr.raw_left = raw_steps_per_cell;
    run_until(rc.measure_instructions, "measurement");
    tr.raw_left = 0;
    const Tick end = eq->now();
    out.measured_events = eq->executed() - events0;

    a = stamp();
    system->checkInvariants();
    RunResult &r = out.r;
    r.workload = job.workload.name;
    r.l2_kind = system->l2().kind();
    r.events_executed = eq->executed();
    r.cycles = end - epoch_start;
    for (auto &core : cores) {
        r.instructions += core->epochInstructions();
        r.core_ipc.push_back(core->ipc(end));
    }
    r.ipc = r.cycles ? static_cast<double>(r.instructions) / r.cycles : 0.0;
    const L2Org &l2 = system->l2();
    r.l2_accesses = l2.accesses();
    r.frac_hit = l2.clsFraction(AccessClass::Hit);
    r.frac_ros = l2.clsFraction(AccessClass::ROSMiss);
    r.frac_rws = l2.clsFraction(AccessClass::RWSMiss);
    r.frac_cap = l2.clsFraction(AccessClass::CapacityMiss);
    r.miss_rate = l2.missFraction();
    for (int cmd = 0; cmd < num_bus_cmds; ++cmd) {
        out.cmd_counts[cmd] = system->bus().count(static_cast<BusCmd>(cmd));
        r.bus_transactions += out.cmd_counts[cmd];
    }
    r.mem_reads = system->memory().reads();
    r.mem_writebacks = system->memory().writebacks();
    tr.span(SpHarvest, a, stamp());

    a = stamp();
    system->finishObs(end);
    tr.span(SpFinish, a, stamp());
    if (obs::TraceSink *sink = system->traceSink()) {
        r.trace_events = sink->recordedEvents();
        r.trace_dropped = sink->dropped();
    }

    a = stamp();
    cores.clear();
    eq.reset();
    timed.clear();
    replays.clear();
    canon.reset();
    system.reset();
    tr.span(SpTeardown, a, stamp());
    return out;
}

/**
 * ParallelRunner::run's stream-mode choice, from its public pieces:
 * streams shared by at least min_stream_sharers cells are materialized
 * once, lone streams are generated canonical-live.
 */
void
resolveStreams(std::vector<ParallelJob> &batch)
{
    std::map<std::uint64_t, unsigned> sharers;
    auto key = [](const ParallelJob &j) {
        return RecordedTrace::hashParams(
            Runner::effectiveSynthParams(j.workload, j.run_cfg));
    };
    for (const ParallelJob &j : batch)
        if (!j.run_cfg.replay && !j.run_cfg.canonical_live)
            ++sharers[key(j)];
    for (ParallelJob &j : batch) {
        if (j.run_cfg.replay || j.run_cfg.canonical_live)
            continue;
        if (ParallelRunner::needsMaterializedTrace(j.run_cfg) ||
            sharers[key(j)] >= ParallelRunner::min_stream_sharers)
            j.run_cfg.replay = Runner::acquireSharedTrace(j.workload,
                                                          j.run_cfg);
        else
            j.run_cfg.canonical_live = true;
    }
}

/** One traced rep of a batch. */
struct TracedRep
{
    std::vector<TracedCell> cells;
    double wall_s = 0.0;
    std::uint64_t ticks = 0;
};

TracedRep
traceRep(const std::vector<ParallelJob> &cells, Tracer &tr)
{
    requireNoLiveTraces();
    TracedRep rep;
    const double w0 = nowSeconds();
    const std::uint64_t s0 = stamp();
    {
        std::uint64_t a = stamp();
        std::vector<ParallelJob> batch = cells;
        resolveStreams(batch);
        tr.span(SpAcquire, a, stamp());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            tr.cell = static_cast<std::uint32_t>(i);
            rep.cells.push_back(traceCell(batch[i], tr));
        }
        a = stamp();
        batch.clear();
        tr.span(SpTeardown, a, stamp());
    }
    rep.ticks = stamp() - s0;
    rep.wall_s = nowSeconds() - w0;
    return rep;
}

/** Median ticks of an empty span (two back-to-back stamps). */
double
emptySpanTicks()
{
    std::vector<double> d;
    for (int i = 0; i < 10'001; ++i) {
        std::uint64_t a = stamp();
        std::uint64_t b = stamp();
        d.push_back(static_cast<double>(b - a));
    }
    return median(d);
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** The nurapid/oltp cell of @p w: its obs twin pair on every workload. */
ParallelJob
obsCell(const Workload &w)
{
    for (const ParallelJob &j : w.cells)
        if (j.sys_cfg.l2_kind == L2Kind::Nurapid &&
            j.workload.name == "oltp")
            return obsOnCell(j);
    fatal("workload %s has no nurapid/oltp cell", w.name.c_str());
}

/** Host cost of the binlog on one cell: its obs-on run vs its twin. */
struct ObsCost
{
    double records_per_kinstr = 0.0;
    double bytes_per_kinstr = 0.0;
    double ns_per_record = 0.0;
    double finish_ms = 0.0;
    double overhead = 0.0;
    std::string error;
};

ObsCost
measureObs(const Workload &w, const Options &o, int pairs,
           double ns_per_tick)
{
    ObsCost c;
    std::vector<ParallelJob> on = {obsCell(w)};
    const std::vector<ParallelJob> off = obsOffCells(on);
    std::vector<double> on_s;
    std::vector<double> off_s;
    RunResult on_r;
    std::uint64_t bytes = 0;
    // Alternate the two sides so drift in host load hits both.
    for (int p = 0; p < pairs; ++p) {
        assignBinlogPaths(on, o.scratch, "obs");
        double t0 = nowSeconds();
        on_r = runRep(on).front();
        on_s.push_back(nowSeconds() - t0);
        bytes = fileBytes(on.front().run_cfg.binlog_out);
        std::string bad =
            verifyBinlog(on.front().run_cfg.binlog_out, on_r.trace_events);
        removeBinlogs(on);
        if (!bad.empty())
            c.error = bad;
        t0 = nowSeconds();
        (void)runRep(off);
        off_s.push_back(nowSeconds() - t0);
    }

    // finishObs is inside Runner::run; time it on a traced re-drive.
    Tracer tr;
    assignBinlogPaths(on, o.scratch, "obs-traced");
    TracedRep rep = traceRep(on, tr);
    removeBinlogs(on);
    c.finish_ms = static_cast<double>(tr.ticks[SpFinish]) * ns_per_tick /
                  1e6;

    const double kinstr = static_cast<double>(on_r.instructions) / 1e3;
    const double t_on = median(on_s);
    const double t_off = median(off_s);
    c.records_per_kinstr = static_cast<double>(on_r.trace_events) / kinstr;
    c.bytes_per_kinstr = static_cast<double>(bytes) / kinstr;
    c.ns_per_record =
        on_r.trace_events
            ? (t_on - t_off) * 1e9 / static_cast<double>(on_r.trace_events)
            : 0.0;
    c.overhead = 1.0 - t_off / t_on;
    if (!(statsOf(rep.cells.front().r) == statsOf(on_r)))
        c.error = "traced obs cell differs from its untraced run";
    return c;
}

void
writeRawSpans(const Tracer &tr, const Workload &w, const Options &o,
              double ns_per_tick)
{
    std::string path = strfmt("%s/spans-%s-%" PRIu64 ".tsv",
                              o.scratch.c_str(), w.name.c_str(), o.seed);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write %s", path.c_str());
        return;
    }
    std::fprintf(f, "cell\tid\tparent\tspan\tstart_ns\tdur_ns\n");
    std::uint64_t base = UINT64_MAX;
    for (const RawSpan &s : tr.raw)
        base = std::min(base, s.t0);
    for (const RawSpan &s : tr.raw)
        std::fprintf(f, "%s\t%u\t%u\t%s\t%.1f\t%.1f\n",
                     cellName(w.cells[s.cell]).c_str(), s.id, s.parent,
                     span_names[s.kind],
                     static_cast<double>(s.t0 - base) * ns_per_tick,
                     static_cast<double>(s.t1 - s.t0) * ns_per_tick);
    std::fprintf(f, "# totals: span\tcalls\tns\n");
    for (int k = 0; k < num_span_kinds; ++k)
        std::fprintf(f, "# %s\t%" PRIu64 "\t%.0f\n", span_names[k],
                     tr.calls[k],
                     static_cast<double>(tr.ticks[k]) * ns_per_tick);
    std::fclose(f);
}

} // namespace

int
tracedMain(const Workload &w, const Options &o)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Tracer tr;
    const double empty_ticks = emptySpanTicks();

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    double traced_wall = 0.0;
    std::uint64_t traced_ticks = 0;
    std::uint64_t instr = 0, l2_acc = 0, l2_hits = 0, icn = 0, dram = 0;
    std::uint64_t events = 0;
    std::vector<double> cmd_mix(num_bus_cmds, 0.0);

    const double loop_start = nowSeconds();
    for (int rep = 0; rep == 0 || nowSeconds() - loop_start < o.seconds;
         ++rep) {
        std::vector<ParallelJob> cells = w.cells;
        if (w.binlog)
            assignBinlogPaths(cells, o.scratch, "untraced");
        double t0 = nowSeconds();
        std::vector<RunResult> plain = runRep(cells);
        untraced_s.push_back(nowSeconds() - t0);
        removeBinlogs(cells);

        if (w.binlog)
            assignBinlogPaths(cells, o.scratch, "traced");
        tr.keep_raw = rep == 0;
        TracedRep t = traceRep(cells, tr);
        traced_s.push_back(t.wall_s);
        traced_wall += t.wall_s;
        traced_ticks += t.ticks;

        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            const RunResult &u = plain[i];
            const RunResult &r = t.cells[i].r;
            std::string bad;
            if (!(statsOf(r) == statsOf(u)) || r.cycles != u.cycles ||
                r.ipc != u.ipc || r.core_ipc != u.core_ipc)
                bad = strfmt("traced cycles %" PRIu64 " IPC %.17g vs "
                             "untraced %" PRIu64 " IPC %.17g",
                             r.cycles, r.ipc, u.cycles, u.ipc);
            else if (r.trace_events != u.trace_events)
                bad = "traced binlog record count differs";
            else if (!cells[i].run_cfg.binlog_out.empty())
                bad = verifyBinlog(cells[i].run_cfg.binlog_out,
                                   r.trace_events);
            if (!bad.empty()) {
                ++failed;
                std::fprintf(stderr, "cnbench: traced %s: %s\n",
                             cellName(cells[i]).c_str(), bad.c_str());
            }
            instr += r.instructions;
            l2_acc += r.l2_accesses;
            l2_hits += statsOf(r).l2_class[0];
            icn += r.bus_transactions;
            dram += r.mem_reads;
            events += t.cells[i].measured_events;
            for (int c = 0; c < num_bus_cmds; ++c)
                cmd_mix[c] += static_cast<double>(t.cells[i].cmd_counts[c]);
        }
        removeBinlogs(cells);
        if (o.smoke)
            break;
    }

    const double ns = traced_wall * 1e9 / static_cast<double>(traced_ticks);
    const double W = static_cast<double>(traced_ticks);
    const double kinstr = static_cast<double>(instr) / 1e3;
    const int reps = static_cast<int>(traced_s.size());
    auto T = [&](SpanKind k) { return static_cast<double>(tr.ticks[k]); };
    auto C = [&](SpanKind k) { return static_cast<double>(tr.calls[k]); };
    // Per-call cost with the empty-span cost taken out of every call.
    auto per_call_ns = [&](double ticks, double calls) {
        return calls > 0 ? std::max(0.0, ticks - calls * empty_ticks) * ns /
                               calls
                         : 0.0;
    };

    const double trace_self = T(SpNext);
    const double cache_self = T(SpL1);
    const double l2_self = T(SpL2) + T(SpNote);
    const double sim_self = T(SpRun) - T(SpStep) + T(SpSched);
    const double obs_self = T(SpStall) + T(SpObsTick) + T(SpFinish);
    const double core_self = T(SpStep) - T(SpNext) - T(SpL1) - T(SpL2) -
                             T(SpNote) - T(SpSched) - T(SpStall);
    const double setup_self = T(SpAcquire) + T(SpBuild) + T(SpSources) +
                              T(SpReset) + T(SpHarvest) + T(SpTeardown);
    const double covered = trace_self + cache_self + l2_self + sim_self +
                           obs_self + core_self + setup_self;

    ObsCost oc = measureObs(w, o, o.smoke ? 1 : 3, ns);
    if (!oc.error.empty()) {
        ++failed;
        std::fprintf(stderr, "cnbench: obs twin: %s\n", oc.error.c_str());
    }
    ++attempted;

    IsolatedBaselines iso = measureIsolated(w, cmd_mix, o.seed, o.smoke);

    writeRawSpans(tr, w, o, ns);

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::vector<Metric> m = {
        {"trace.next_ns", "ns", per_call_ns(T(SpNext), C(SpNext))},
        {"trace.self_share", "ratio", trace_self / W},
        {"trace.next_replay_iso_ns", "ns", iso.replay_next_ns},
        {"trace.next_live_iso_ns", "ns", iso.live_next_ns},
        {"cache.l1_ns", "ns", per_call_ns(T(SpL1), C(SpL1))},
        {"cache.l1_iso_ns", "ns", iso.l1_ns},
        {"cache.l1d_hit_ratio", "ratio",
         ratio(static_cast<double>(tr.l1d_hits),
               static_cast<double>(tr.l1d_lookups))},
        {"cache.l1i_hit_ratio", "ratio",
         ratio(static_cast<double>(tr.l1i_hits),
               static_cast<double>(tr.l1i_lookups))},
        {"cache.self_share", "ratio", cache_self / W},
        {"l2.access_ns", "ns", per_call_ns(T(SpL2), C(SpL2))},
        {"l2.accesses_per_kinstr", "1/kinstr",
         static_cast<double>(l2_acc) / kinstr},
        {"l2.hit_ratio", "ratio",
         ratio(static_cast<double>(l2_hits), static_cast<double>(l2_acc))},
        {"l2.self_share", "ratio", l2_self / W},
    };
    for (const auto &[org, v] : iso.l2_ns)
        m.push_back({"l2.iso_ns." + org, "ns", v});
    std::vector<Metric> rest = {
        {"mem.icn_txn_per_kinstr", "1/kinstr",
         static_cast<double>(icn) / kinstr},
        {"mem.icn_txn_ns", "ns", iso.icn_ns},
        {"mem.dram_reads_per_kinstr", "1/kinstr",
         static_cast<double>(dram) / kinstr},
        {"mem.dram_read_ns", "ns", iso.dram_ns},
        {"sim.events_per_kinstr", "1/kinstr",
         static_cast<double>(events) / kinstr},
        {"sim.kernel_ns", "ns", per_call_ns(sim_self, C(SpStep))},
        {"sim.kernel_iso_ns", "ns", iso.kernel_ns},
        {"sim.self_share", "ratio", sim_self / W},
        {"core.self_share", "ratio", core_self / W},
        {"obs.records_per_kinstr", "1/kinstr", oc.records_per_kinstr},
        {"obs.bytes_per_kinstr", "B/kinstr", oc.bytes_per_kinstr},
        {"obs.ns_per_record", "ns", oc.ns_per_record},
        {"obs.finish_ms", "ms", oc.finish_ms},
        {"obs.overhead", "ratio", oc.overhead},
        {"obs.self_share", "ratio", obs_self / W},
        {"setup.system_build_ms", "ms", T(SpBuild) * ns / 1e6 / reps},
        {"setup.self_share", "ratio", setup_self / W},
        {"host.coverage", "ratio", covered / W},
        {"host.tracing_overhead", "ratio",
         median(traced_s) / median(untraced_s) - 1.0},
        {"host.timer_ns", "ns", empty_ticks * ns},
    };
    m.insert(m.end(), rest.begin(), rest.end());

    std::fprintf(stderr,
                 "cnbench: traced %s: %d reps, untraced %.4f s, traced "
                 "%.4f s, coverage %.4f\n",
                 w.name.c_str(), reps, median(untraced_s),
                 median(traced_s), covered / W);
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

} // namespace cnbench
