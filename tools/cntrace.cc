/**
 * @file
 * cntrace: offline inspector for cnsim's binary files.
 *
 * Binary logs (CNBLG001, from `cnsim --binlog-out run.blg`) carry a
 * run's events and metrics snapshots. summary/dump/json reconstruct
 * the event stream from the embedded message registry, and `csv`
 * renders the streamed metrics snapshots (warm-up included) as a
 * time-series CSV:
 *
 *   cntrace summary run.blg
 *   cntrace dump run.blg --kind transition --core 2 --limit 50
 *   cntrace dump run.blg --addr 0x1f40 --component l2.nurapid
 *   cntrace json run.blg out.json
 *   cntrace csv run.blg [out.csv]
 *
 * Dump filters intersect; --component matches any track whose
 * registered path contains the given substring.
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "mem/packet.hh"
#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"

using namespace cnsim;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> <file> [options]\n"
        "  <file> is a CNBLG01 binlog (cnsim --binlog-out)\n"
        "commands:\n"
        "  summary <run.blg>               per-kind/component/cause "
        "breakdown\n"
        "  dump <run.blg> [filters]        print events, one per line\n"
        "  json <run.blg> <out.json>       convert to Chrome "
        "trace_event JSON\n"
        "  csv <run.blg> [out.csv]         metrics time series, warm-up "
        "included\n"
        "dump filters:\n"
        "  --kind <k>        busTx|transition|dgroup|l1BackInval|"
        "resource|coreStall|\n"
        "                    directory\n"
        "  --core <N>        events initiated by/affecting core N "
        "(0..63)\n"
        "  --addr <A>        events for block address A (decimal or "
        "0x hex)\n"
        "  --component <s>   track path contains substring s\n"
        "  --limit <N>       stop after N matching events\n",
        argv0);
}

bool
parseKind(const std::string &s, obs::EventKind &out)
{
    for (int k = 0; k < obs::num_event_kinds; ++k) {
        auto kind = static_cast<obs::EventKind>(k);
        if (s == obs::toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
        usage(argv[0]);
        return 0;
    }
    if (argc < 3) {
        usage(argv[0]);
        return 2;
    }

    const std::string cmd = argv[1];
    const std::string path = argv[2];
    constexpr std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t max_core = 63;

    obs::BinlogData data;
    std::string error;
    if (!obs::readBinlog(path, data, &error))
        fatal("%s: %s", path.c_str(), error.c_str());
    if (cmd == "csv") {
        std::string csv = obs::binlogMetricsCsv(data);
        if (argc >= 4) {
            std::FILE *out = std::fopen(argv[3], "wb");
            if (!out)
                fatal("cannot open '%s' for writing", argv[3]);
            std::fwrite(csv.data(), 1, csv.size(), out);
            std::fclose(out);
            inform("%zu metric columns -> %s", data.metrics.size(),
                   argv[3]);
        } else {
            std::printf("%s", csv.c_str());
        }
        return 0;
    }
    const std::vector<obs::TraceEvent> events = obs::binlogEvents(data);
    const std::vector<std::string> &components = data.components;
    const std::uint64_t dropped = data.dropped;
    if (dropped)
        warn("%s: incomplete capture -- %llu events dropped",
             path.c_str(), static_cast<unsigned long long>(dropped));

    if (cmd == "summary") {
        std::printf("%s",
                    obs::summarize(events, components, dropped).c_str());
        return 0;
    }

    if (cmd == "json") {
        if (argc < 4)
            fatal("json needs an output path");
        obs::writeChromeJson(argv[3], events, components, dropped);
        inform("%zu events -> %s", events.size(), argv[3]);
        return 0;
    }

    if (cmd != "dump") {
        usage(argv[0]);
        fatal("unknown command '%s'", cmd.c_str());
    }

    bool have_kind = false;
    obs::EventKind kind = obs::EventKind::BusTx;
    int core = -1;
    bool have_addr = false;
    Addr addr = 0;
    std::string comp_substr;
    std::uint64_t limit = ~std::uint64_t{0};

    for (int i = 3; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--kind") {
            if (!parseKind(next(), kind))
                fatal("unknown event kind '%s'", argv[i]);
            have_kind = true;
        } else if (a == "--core") {
            core = static_cast<int>(parseCount(a, next(), 0, max_core));
        } else if (a == "--addr") {
            addr = static_cast<Addr>(parseCount(a, next(), 0, any, true));
            have_addr = true;
        } else if (a == "--component") {
            comp_substr = next();
        } else if (a == "--limit") {
            limit = parseCount(a, next(), 0, any);
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", a.c_str());
        }
    }

    std::uint64_t shown = 0;
    for (const obs::TraceEvent &ev : events) {
        if (shown >= limit)
            break;
        if (have_kind && ev.kind != kind)
            continue;
        if (core >= 0 && ev.core != core)
            continue;
        if (have_addr && ev.addr != addr)
            continue;
        if (!comp_substr.empty()) {
            if (ev.component < 0 ||
                ev.component >= static_cast<int>(components.size()))
                continue;
            if (components[ev.component].find(comp_substr) ==
                std::string::npos)
                continue;
        }
        std::printf("%s\n", obs::formatEvent(ev, components).c_str());
        ++shown;
    }
    std::fprintf(stderr, "%llu of %zu events shown\n",
                 static_cast<unsigned long long>(shown), events.size());
    return 0;
}
