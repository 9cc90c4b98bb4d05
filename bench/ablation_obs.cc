/**
 * @file
 * Observability overhead ablation + trace generation.
 *
 * Modes (one binary so CI runs a single step):
 *
 *  1. Overhead gate (default): run one SPEC stand-in on RiscyOO-B
 *     three ways — no observer at all, observer installed with every
 *     sink off (the "tracing disabled" configuration the hooks must
 *     keep near-free), and everything on (pipeline + timeline + CPI).
 *     Best-of-N wall times; exits nonzero when the disabled-observer
 *     run is more than --limit percent (default 2) slower than the
 *     no-observer baseline. The full-tracing overhead is reported but
 *     not gated (it is allowed to cost what it costs).
 *
 *  2. --trace <dir>: additionally a short (cycle-capped) fig17-class
 *     RiscyOO-B run with the Konata and Perfetto sinks on, writing
 *     <dir>/trace.kanata and <dir>/trace_timeline.json for
 *     scripts/validate_trace.py and the CI artifact upload. The cap
 *     keeps the artifacts CI-sized; the overhead runs above record
 *     in memory only (empty sink paths) so file IO never skews the
 *     wall-clock comparison.
 *
 * Results land in BENCH_obs.json (shared schema, see bench_common.hh)
 * with the CPI stack of the fully-instrumented run embedded.
 */
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace riscy;
using namespace riscy::bench;

namespace {

constexpr uint64_t kMaxCycles = 400000000;
constexpr int kReps = 3;

struct Timed {
    RunResult r;
    uint64_t bestNs = ~0ull;
};

Timed
measure(const SystemConfig &cfg, const workloads::Workload &w)
{
    Timed t;
    for (int i = 0; i < kReps; i++) {
        SystemConfig c = cfg;
        System sys(c);
        workloads::Image img = w.build(sys, 1);
        sys.elaborate();
        RunResult r;
        r.cycles = workloads::runToCompletion(sys, img, kMaxCycles);
        r.instret = sys.instret(0);
        uint64_t ns = sys.runWallNs();
        sys.writeTraces();
        if (const obs::CpiStack *cp = sys.cpi(0))
            r.cpiJson = cp->json(r.instret);
        if (ns < t.bestNs) {
            t.bestNs = ns;
            t.r = r;
        }
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    double limitPct = 2.0;
    std::string traceDir;
    std::string wlName = "bzip2";
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--limit") && i + 1 < argc)
            limitPct = std::atof(argv[++i]);
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
            traceDir = argv[++i];
        else if (!std::strcmp(argv[i], "--workload") && i + 1 < argc)
            wlName = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--limit pct] [--trace dir] "
                         "[--workload name]\n",
                         argv[0]);
            return 2;
        }
    }

    const workloads::Workload *wl = nullptr;
    auto specs = workloads::specWorkloads();
    for (const auto &w : specs)
        if (w.name == wlName)
            wl = &w;
    if (!wl) {
        std::fprintf(stderr, "unknown workload %s\n", wlName.c_str());
        return 2;
    }

    SystemConfig base = SystemConfig::riscyooB();
    SystemConfig hubOff = base;
    // Observer installed, every sink off: statsResetAtCycle forces the
    // hub in (and exercises the warmup reset path) without enabling
    // any recording. This is the configuration the 2% gate protects.
    hubOff.statsResetAtCycle = 1000;
    SystemConfig allOn = base;
    allOn.obs.pipeline = true;
    allOn.obs.timeline = true;
    allOn.obs.cpi = true;
    allOn.obs.pipelinePath.clear(); // record only; no file IO in the
    allOn.obs.timelinePath.clear(); // timed comparison

    printHeader("obs ablation (" + wlName + ")",
                {"cycles", "wall-ms", "overhead-%"});
    Timed off = measure(base, *wl);
    Timed dis = measure(hubOff, *wl);
    Timed on = measure(allOn, *wl);
    auto pct = [&](const Timed &t) {
        return 100.0 * (double(t.bestNs) / double(off.bestNs) - 1.0);
    };
    printRow("no-observer",
             {double(off.r.cycles), double(off.bestNs) / 1e6, 0.0});
    printRow("sinks-off",
             {double(dis.r.cycles), double(dis.bestNs) / 1e6, pct(dis)});
    printRow("all-sinks",
             {double(on.r.cycles), double(on.bestNs) / 1e6, pct(on)});

    // Observability must never change the simulated machine.
    if (off.r.cycles != dis.r.cycles || off.r.cycles != on.r.cycles ||
        off.r.instret != on.r.instret) {
        std::fprintf(stderr,
                     "FAIL: observability changed timing "
                     "(cycles %llu/%llu/%llu)\n",
                     (unsigned long long)off.r.cycles,
                     (unsigned long long)dis.r.cycles,
                     (unsigned long long)on.r.cycles);
        return 1;
    }

    JsonObject cfg;
    cfg.put("workload", wlName)
        .put("config", base.name)
        .put("reps", uint64_t(kReps))
        .put("limit_pct", limitPct);
    std::vector<JsonObject> rows;
    auto row = [&](const char *mode, const Timed &t, double ov) {
        JsonObject o;
        o.put("mode", mode)
            .put("cycles", t.r.cycles)
            .put("instret", t.r.instret)
            .put("wall_ns", t.bestNs)
            .put("ipc", t.r.ipc())
            .put("overhead_pct", ov);
        putSimSpeed(o, t.r.instret, t.bestNs);
        if (!t.r.cpiJson.empty())
            o.putRaw("cpi", t.r.cpiJson);
        rows.push_back(o);
    };
    row("no-observer", off, 0.0);
    row("sinks-off", dis, pct(dis));
    row("all-sinks", on, pct(on));
    writeBenchJson("obs", cfg, rows);

    if (!traceDir.empty()) {
        // Short capped run with the file sinks on: CI-sized traces.
        constexpr uint64_t kCyclesTraced = 10000;
        SystemConfig tc = allOn;
        tc.obs.pipelinePath = traceDir + "/trace.kanata";
        tc.obs.timelinePath = traceDir + "/trace_timeline.json";
        System sys(tc);
        workloads::Image img = wl->build(sys, 1);
        sys.elaborate();
        sys.start(img.entry, img.satp, img.stacks);
        sys.run(kCyclesTraced); // partial run: traces, not results
        if (!sys.writeTraces()) {
            std::fprintf(stderr, "FAIL: trace export to %s failed\n",
                         traceDir.c_str());
            return 1;
        }
        std::printf("wrote %s/trace.kanata and %s/trace_timeline.json "
                    "(%llu cycles)\n",
                    traceDir.c_str(), traceDir.c_str(),
                    (unsigned long long)sys.kernel().cycleCount());
    }

    if (pct(dis) > limitPct) {
        std::fprintf(stderr,
                     "FAIL: sinks-off observer overhead %.2f%% exceeds "
                     "the %.2f%% gate\n",
                     pct(dis), limitPct);
        return 1;
    }
    std::printf("sinks-off overhead %.2f%% within the %.2f%% gate\n",
                pct(dis), limitPct);
    return 0;
}
