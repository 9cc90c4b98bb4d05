/**
 * @file
 * perf_e2e: the end-to-end simulator benchmark. It runs one named
 * workload on the real designs through the public System / Kernel /
 * KvHost API, checks every simulated run, and prints one JSON result
 * line (the last line of stdout).
 *
 *   perf_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--expected <file>] [--trace-dir <dir>] [--git-sha <sha>]
 *            [--src-digest <hex>]
 *   perf_e2e --record <workload> --seed <n>    (print expected-table lines)
 *   perf_e2e --self-test                       (rule map on every system)
 *
 * Workloads (see README.md for why each was chosen):
 *   spec-single    riscyooTPlus, EventDriven: mcf, libquantum, sjeng, hmmer
 *   parsec-quad    multicore(TSO), EventDriven: blackscholes, fluidanimate
 *   kv-server      serverConfig(16, 4), EventDriven: open-loop Zipf KV
 *   kv-server-par  the same KV program and seed under the parallel
 *                  (PDES) scheduler with a fixed kParThreads threads
 *
 * --trace 0 measures for --seconds and prints the end-to-end metrics.
 * --trace 1 alternates untraced and traced batches for --seconds and
 * prints the per-layer metrics; its spans go to a Chrome trace-event
 * file under --trace-dir.
 *
 * The timing model has no hardware reference in this repository: every
 * simulated figure here is unvalidated against hardware. The
 * functional reference is isa::GoldenModel (ExecMode::FastForward).
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hh"
#include "server/kv.hh"
#include "workloads/workloads.hh"

using namespace riscy;
using perfbench::KvTimingShim;
using perfbench::nowNs;
using perfbench::timed;
using perfbench::Tracer;

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif

namespace {

constexpr uint64_t kMaxCycles = 50'000'000;
/// Setup-only repetitions, made before the timed batches: at least
/// kSetupReps per program, and until kSetupBudgetS host seconds have
/// gone into them. setup_s is a median over these and the timed
/// batches' own setups; a setup takes only milliseconds, so one sample
/// is at the mercy of a single page fault or preemption.
constexpr int kSetupReps = 15;
constexpr double kSetupBudgetS = 1.5;
constexpr Addr kKvEntry = kDramBase;
/// Parallel-scheduler threads of kv-server-par. Fixed, so its numbers
/// compare across hosts; two threads keep a real barrier between
/// domain threads while leaving CPUs free on a small host.
constexpr uint32_t kParThreads = 2;
/// KV seeds with a recorded result in expected.txt; --seed n runs the
/// KV inputs of seed n mod kKvSeeds.
constexpr uint64_t kKvSeeds = 256;

enum class Kind { Spec, Parsec, Kv };

struct WorkloadDef {
    std::string name;
    Kind kind = Kind::Spec;
    SystemConfig cfg;
    std::vector<std::string> programs;
    uint32_t threads = 1; ///< worker harts (PARSEC) / parallel threads
};

/** CPUs this process may run on. */
uint32_t
nprocs()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return uint32_t(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<WorkloadDef>
workloadDefs()
{
    std::vector<WorkloadDef> ws;
    {
        WorkloadDef w;
        w.name = "spec-single";
        w.kind = Kind::Spec;
        w.cfg = SystemConfig::riscyooTPlus();
        // One kernel per Fig. 16 bottleneck: TLB, streaming cache,
        // branch prediction, dense compute.
        w.programs = {"mcf", "libquantum", "sjeng", "hmmer"};
        ws.push_back(w);
    }
    {
        WorkloadDef w;
        w.name = "parsec-quad";
        w.kind = Kind::Parsec;
        w.cfg = SystemConfig::multicore(true);
        // Little sharing vs lock-bound.
        w.programs = {"blackscholes", "fluidanimate"};
        w.threads = 4;
        ws.push_back(w);
    }
    for (bool par : {false, true}) {
        WorkloadDef w;
        w.name = par ? "kv-server-par" : "kv-server";
        w.kind = Kind::Kv;
        w.cfg = SystemConfig::serverConfig(16, 4);
        w.programs = {"kv"};
        if (par) {
            w.cfg.scheduler = cmd::SchedulerKind::Parallel;
            w.threads = kParThreads;
            w.cfg.threads = w.threads;
        }
        ws.push_back(w);
    }
    for (WorkloadDef &w : ws) {
        if (w.cfg.scheduler != cmd::SchedulerKind::Parallel)
            w.cfg.scheduler = cmd::SchedulerKind::EventDriven;
        // A fault must fail the run, not silently continue it on
        // another scheduler.
        w.cfg.degradeScheduler = false;
        w.cfg.maxFaultRetries = 0;
    }
    return ws;
}

/** The KV traffic: open loop, Zipf 0.8, 10% PUTs, offered just below
 *  the 16-core saturation knee (~100 req/kc in BENCH_server.json). */
server::KvConfig
kvConfig(uint64_t seed)
{
    server::KvConfig kc;
    kc.harts = 16;
    kc.seed = seed;
    kc.requests = 1200;
    kc.reqPerKilocycle = 90.0;
    kc.keys = 4096;
    kc.tableSlots = 8192;
    kc.zipf = 0.8;
    kc.putFrac = 0.1;
    return kc;
}

const workloads::Workload &
findProgram(Kind kind, const std::string &name)
{
    static const std::vector<workloads::Workload> spec =
        workloads::specWorkloads();
    static const std::vector<workloads::Workload> parsec =
        workloads::parsecWorkloads();
    for (const workloads::Workload &w : kind == Kind::Spec ? spec : parsec)
        if (w.name == name)
            return w;
    cmd::fatal("perf_e2e: no workload program named %s", name.c_str());
}

const char *
schedName(cmd::SchedulerKind k)
{
    switch (k) {
      case cmd::SchedulerKind::Exhaustive:
        return "exhaustive";
      case cmd::SchedulerKind::EventDriven:
        return "event";
      case cmd::SchedulerKind::Parallel:
        return "parallel";
      case cmd::SchedulerKind::Compiled:
        return "compiled";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Layer counters of one traced batch (summed over its programs).

struct LayerCounts {
    uint64_t cycles = 0, runNs = 0;
    uint64_t attempts = 0, fired = 0, sleepSkips = 0, wakes = 0;
    uint64_t guardThrows = 0, fastGuardFails = 0;
    uint64_t syncEpochs = 0, barrierWaitNs = 0;
    double maxDomainSyncWaitFrac = 0, domainExecImbalance = 0;
    std::array<uint64_t, perfbench::kNumRuleModules> modFired{}, modGuard{},
        modCm{};
    uint64_t instret = 0, dtlbMisses = 0, l2tlbMisses = 0, mispredicts = 0;
    uint64_t l1dMisses = 0, l2Misses = 0, ldKills = 0, evictKills = 0;
    uint64_t dramReads = 0, rowHits = 0, rowAccesses = 0;
    double bankOccMeanMax = 0;
    std::array<uint64_t, obs::kNumStallCauses> cpi{};
    uint64_t cpiCycles = 0;
    KvTimingShim::Counts kv;
    double queueDepth = 0; ///< request-weighted mean backlog at pop
    uint64_t kvRequests = 0;
    uint64_t p99 = 0;
};

/** Kernel-report counters that run() moved (after - before). */
void
addReportDelta(LayerCounts &lc, const cmd::KernelReport &a,
               const cmd::KernelReport &b, uint64_t runNs)
{
    lc.attempts += b.attempts - a.attempts;
    lc.sleepSkips += b.sleepSkips - a.sleepSkips;
    lc.wakes += b.wakes - a.wakes;
    lc.guardThrows += b.guardThrows - a.guardThrows;
    lc.fastGuardFails += b.fastGuardFails - a.fastGuardFails;
    lc.syncEpochs += b.syncEpochs - a.syncEpochs;
    lc.barrierWaitNs += b.barrierWaitNs - a.barrierWaitNs;
    for (size_t i = 0; i < b.rules.size(); i++) {
        const cmd::KernelReport::RuleLine &r = b.rules[i];
        uint64_t f = r.fired, g = r.guardAborts, c = r.cmAborts;
        if (i < a.rules.size()) {
            f -= a.rules[i].fired;
            g -= a.rules[i].guardAborts;
            c -= a.rules[i].cmAborts;
        }
        lc.fired += f;
        int m = perfbench::ruleModule(r.name);
        if (m < 0)
            continue; // the rule-map self-test reports it
        lc.modFired[m] += f;
        lc.modGuard[m] += g;
        lc.modCm[m] += c;
    }
    uint64_t maxWait = 0, maxExec = 0, sumExec = 0;
    for (size_t i = 0; i < b.domainLines.size(); i++) {
        uint64_t w = b.domainLines[i].syncWaitNs;
        uint64_t e = b.domainLines[i].execNs;
        if (i < a.domainLines.size()) {
            w -= a.domainLines[i].syncWaitNs;
            e -= a.domainLines[i].execNs;
        }
        maxWait = std::max(maxWait, w);
        maxExec = std::max(maxExec, e);
        sumExec += e;
    }
    if (runNs)
        lc.maxDomainSyncWaitFrac = std::max(lc.maxDomainSyncWaitFrac,
                                            double(maxWait) / double(runNs));
    if (sumExec)
        lc.domainExecImbalance = std::max(
            lc.domainExecImbalance,
            double(maxExec) * double(b.domainLines.size()) / double(sumExec));
}

/** Modelled-component counters (stats groups, EventCounts, CPI). */
void
addComponentCounts(LayerCounts &lc, System &sys)
{
    for (uint32_t i = 0; i < sys.cores(); i++) {
        System::EventCounts ev = sys.events(i);
        lc.instret += ev.instret;
        lc.dtlbMisses += ev.dtlbMisses;
        lc.l2tlbMisses += ev.l2tlbMisses;
        lc.mispredicts += ev.branchMispredicts;
        lc.l1dMisses += ev.l1dMisses;
        lc.ldKills += ev.ldKills;
        lc.evictKills += ev.evictKills;
        if (const obs::CpiStack *cp = sys.cpi(i)) {
            for (uint32_t c = 0; c < obs::kNumStallCauses; c++)
                lc.cpi[c] += cp->count(obs::StallCause(c));
            lc.cpiCycles += cp->cycles();
        }
    }
    lc.l2Misses += sys.hier().l2StatSum("misses");
    if (BankedL2Front *bf = sys.hier().bankedFront()) {
        cmd::StatGroup &st = bf->dramCtl().stats();
        lc.dramReads += st.get("reads");
        lc.rowHits += st.get("rowHits");
        lc.rowAccesses += st.get("rowHits") + st.get("rowMisses") +
                          st.get("rowConflicts");
        for (uint32_t b = 0;; b++) {
            const cmd::Histogram *h =
                st.getHistogram(cmd::strfmt("bank%u.occupancy", b));
            if (!h)
                break;
            lc.bankOccMeanMax = std::max(lc.bankOccMeanMax, h->mean());
        }
    } else {
        lc.dramReads += sys.hier().dram().stats().get("reads");
    }
}

// ---------------------------------------------------------------------
// One simulated program run.

struct ProgRun {
    double constructS = 0, buildS = 0, elaborateS = 0, startS = 0;
    double runS = 0, writeTracesS = 0;
    uint64_t cycles = 0, instret = 0;
    uint64_t region = 0; ///< program-defined simulated region, cycles
    uint64_t p99 = 0;    ///< KV sojourn p99 (KV only)
    std::vector<uint64_t> exitCodes; ///< per hart
    std::vector<server::KvHost::Req> reqs; ///< KV per-request stamps
    std::vector<std::string> ruleNames;
    std::string failure; ///< empty when every check passed

    double setupS() const { return constructS + buildS + elaborateS + startS; }
};

struct RunOpts {
    bool setupOnly = false;
    bool traced = false; ///< spans, report deltas, KV shim
    bool cpi = false;    ///< obs.cpi sink
    bool wantRules = false;
    cmd::SchedulerKind scheduler = cmd::SchedulerKind::EventDriven;
};

ProgRun
runProgram(const WorkloadDef &w, const std::string &prog, uint64_t seed,
           Tracer &tr, const RunOpts &o, LayerCounts *lc)
{
    ProgRun r;
    SystemConfig cfg = w.cfg;
    cfg.scheduler = o.scheduler;
    cfg.obs.cpi = o.cpi;
    int progSpan = tr.begin("program." + prog);

    std::unique_ptr<System> sys;
    r.constructS = timed(tr, "proc.construct",
                         [&] { sys = std::make_unique<System>(cfg); });

    workloads::Image img;
    std::unique_ptr<server::KvHost> kv;
    std::unique_ptr<KvTimingShim> shim;
    r.buildS = timed(tr, "workloads.build", [&] {
        if (w.kind != Kind::Kv) {
            img = findProgram(w.kind, prog).build(*sys, w.threads);
            return;
        }
        server::KvConfig kc = kvConfig(seed);
        kv = std::make_unique<server::KvHost>(kc);
        server::preloadKvTable(sys->mem(), kc);
        asmkit::Assembler a(kKvEntry);
        server::emitKvWorker(a, kc);
        a.load(sys->mem(), kKvEntry);
        img.entry = kKvEntry;
        for (uint32_t i = 0; i < kc.harts; i++)
            img.stacks.push_back(kKvEntry + 0x400000 + i * 0x10000);
        if (o.traced) {
            shim = std::make_unique<KvTimingShim>(*kv, kc.harts);
            sys->host().attachKv(shim.get());
        } else {
            sys->host().attachKv(kv.get());
        }
    });
    r.elaborateS = timed(tr, "core.elaborate", [&] { sys->elaborate(); });
    r.startS = timed(tr, "proc.start",
                     [&] { sys->start(img.entry, img.satp, img.stacks); });
    if (o.wantRules)
        for (const cmd::Rule *rule : sys->kernel().rules())
            r.ruleNames.push_back(rule->name());
    if (o.setupOnly) {
        tr.end(progSpan);
        return r;
    }

    cmd::KernelReport before;
    if (lc)
        timed(tr, "core.report", [&] { before = sys->kernel().report(); });
    bool exited = false;
    std::string fault;
    uint64_t t0 = nowNs();
    timed(tr, "proc.run", [&] {
        try {
            exited = sys->run(kMaxCycles);
        } catch (const std::exception &e) {
            fault = e.what(); // a watchdog or design fault
        }
    });
    uint64_t runNs = nowNs() - t0;
    r.runS = double(runNs) * 1e-9;
    if (o.cpi)
        r.writeTracesS = timed(tr, "obs.write_traces",
                               [&] { sys->writeTraces(); });

    r.cycles = sys->kernel().cycleCount();
    for (uint32_t i = 0; i < sys->cores(); i++)
        r.instret += sys->instret(i);

    // ---- correctness
    auto fail = [&r](const std::string &why) {
        if (r.failure.empty())
            r.failure = why;
    };
    if (!fault.empty())
        fail("fault: " + fault);
    if (!exited || sys->stopReason() != StopReason::AllExited)
        fail(std::string("stopped: ") + toString(sys->stopReason()));
    if (sys->host().failed())
        fail("host device failure");
    if (sys->faultRetries() != 0)
        fail("kernel fault absorbed during run");
    for (uint32_t i = 0; i < sys->cores(); i++)
        r.exitCodes.push_back(sys->host().exitCode(i));
    switch (w.kind) {
      case Kind::Spec:
        r.region = r.cycles;
        break;
      case Kind::Parsec: {
        uint64_t b = sys->host().roiBegin(0), e = sys->host().roiEnd(0);
        if (e <= b)
            fail("ROI markers missing or inverted");
        else
            r.region = e - b;
        break;
      }
      case Kind::Kv: {
        // A GET that reads a wrong value raises HostReg::Fail, which
        // fails the run through host().failed() above; workers always
        // exit 0, so this only checks that they exited cleanly.
        for (uint32_t i = 0; i < r.exitCodes.size(); i++)
            if (r.exitCodes[i] != 0)
                fail(cmd::strfmt("KV worker %u exit code %llu", i,
                                 (unsigned long long)r.exitCodes[i]));
        server::KvSummary s = kv->summarize();
        if (s.completed != s.offered)
            fail(cmd::strfmt("KV completed %llu of %llu",
                             (unsigned long long)s.completed,
                             (unsigned long long)s.offered));
        r.region = s.windowCycles;
        r.p99 = s.p99;
        r.reqs = kv->requests();
        if (lc) {
            lc->queueDepth += s.meanQueueDepth * double(s.completed);
            lc->kvRequests += s.completed;
            lc->p99 = std::max(lc->p99, s.p99);
        }
        break;
      }
    }

    if (lc) {
        cmd::KernelReport after;
        timed(tr, "core.report", [&] { after = sys->kernel().report(); });
        lc->cycles += r.cycles;
        lc->runNs += runNs;
        addReportDelta(*lc, before, after, runNs);
        addComponentCounts(*lc, *sys);
        if (shim) {
            KvTimingShim::Counts c = shim->total();
            lc->kv.pops += c.pops;
            lc->kv.emptyPops += c.emptyPops;
            lc->kv.popNs += c.popNs;
        }
    }
    sys->host().attachKv(nullptr);
    tr.end(progSpan);
    return r;
}

// ---------------------------------------------------------------------
// Functional reference: the same image through isa::GoldenModel.

struct GoldenRef {
    uint64_t instret = 0;
    std::vector<uint64_t> exitCodes; ///< per hart
    uint64_t ns = 0;
    std::string failure;
};

GoldenRef
goldenRun(const WorkloadDef &w, const std::string &prog, Tracer &tr)
{
    GoldenRef g;
    // Repeat until the interpreter time is long enough to rate it.
    for (int rep = 0; rep < 1000 && g.ns < 20'000'000; rep++) {
        SystemConfig cfg = w.cfg;
        cfg.scheduler = cmd::SchedulerKind::EventDriven;
        cfg.execMode = ExecMode::FastForward;
        System sys(cfg);
        workloads::Image img = findProgram(w.kind, prog).build(sys, w.threads);
        sys.elaborate();
        sys.start(img.entry, img.satp, img.stacks);
        bool ok = false;
        timed(tr, "isa.golden", [&] { ok = sys.runFastForward(); });
        if (!ok) {
            g.failure = prog + ": golden model did not exit cleanly";
            return g;
        }
        uint64_t n = sys.sampleStats().ffInsts;
        if (rep > 0 && n != g.instret) {
            g.failure = prog + ": golden instret not repeatable";
            return g;
        }
        g.instret = n;
        g.ns += sys.runWallNs();
        g.exitCodes.clear();
        for (uint32_t i = 0; i < sys.cores(); i++)
            g.exitCodes.push_back(sys.host().exitCode(i));
    }
    return g;
}

// ---------------------------------------------------------------------
// Recorded simulated results: "<workload> <program> <seed|*> <region>
// <p99>" per line. The KV entries of kv-server also bind kv-server-par.

using Expected = std::map<std::string, std::pair<uint64_t, uint64_t>>;

std::string
expectKey(const std::string &workload, const std::string &prog,
          const std::string &seed)
{
    return workload + " " + prog + " " + seed;
}

bool
readExpected(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, p, s;
        uint64_t region = 0, p99 = 0;
        if (!(ls >> w >> p >> s >> region >> p99))
            return false;
        out[expectKey(w, p, s)] = {region, p99};
    }
    return true;
}

/** The workload whose recorded results bind @p w. */
std::string
expectName(const WorkloadDef &w)
{
    return w.kind == Kind::Kv ? "kv-server" : w.name;
}

// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\r') ? ' ' : c;
    }
    return out + "\"";
}

struct Metric {
    std::string name, unit;
    double value;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); i++) {
        out += (i ? ", " : "") + jsonStr(ms[i].name) + ": {\"value\": " +
               jsonNum(ms[i].value) + ", \"unit\": " + jsonStr(ms[i].unit) +
               "}";
    }
    return out + "}";
}

/** Invocation-wide check bookkeeping: attempts are simulated program
 *  runs (plus whole-invocation checks); any failed check fails one. */
struct Checks {
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> why;

    void
    record(const std::string &what, const std::string &failure)
    {
        attempted++;
        if (failure.empty())
            return;
        failed++;
        if (why.size() < 20)
            why.push_back(what + ": " + failure);
    }
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string expected = "perfbench/expected.txt";
    std::string traceDir = ".bench_build/traces";
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
    bool record = false;
    bool selfTest = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (k == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--record") {
            a.workload = v;
            a.record = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || a.seconds <= 0 || a.seconds > 120)
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--expected") {
            a.expected = v;
        } else if (k == "--trace-dir") {
            a.traceDir = v;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else if (k == "--src-digest") {
            a.srcDigest = v;
        } else {
            return false;
        }
    }
    return a.selfTest || !a.workload.empty();
}

/** Rule-map self-test over every workload's elaborated System. */
void
ruleMapSelfTest(const std::vector<WorkloadDef> &defs, Tracer &tr,
                Checks &chk)
{
    int span = tr.begin("perfbench.rule_map_selftest");
    for (const WorkloadDef &w : defs) {
        Tracer off(false);
        RunOpts o;
        o.setupOnly = o.wantRules = true;
        o.scheduler = w.cfg.scheduler;
        ProgRun pr = runProgram(w, w.programs.front(), 1, off, o, nullptr);
        std::vector<std::string> errs = perfbench::ruleMapErrors(pr.ruleNames);
        std::string failure;
        if (pr.ruleNames.empty())
            failure = "no rules";
        else if (!errs.empty())
            failure = errs.front() + cmd::strfmt(" (+%zu more)",
                                                 errs.size() - 1);
        std::fprintf(stderr, "rule map %-14s %zu rules: %s\n",
                     w.name.c_str(), pr.ruleNames.size(),
                     failure.empty() ? "every rule maps to one module"
                                     : failure.c_str());
        chk.record("rule map " + w.name, failure);
    }
    tr.end(span);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perf_e2e --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--expected <file>] "
                     "[--trace-dir <dir>] [--git-sha <sha>] "
                     "[--src-digest <hex>]\n"
                     "       perf_e2e --record <workload> --seed <n>\n"
                     "       perf_e2e --self-test\n");
        return 2;
    }
#ifndef __OPTIMIZE__
    // Unoptimized host code runs many times slower: its numbers would
    // be meaningless next to any baseline.
    std::fprintf(stderr, "perf_e2e: refusing to time a build compiled "
                         "without optimization (build type %s)\n",
                 PERF_BUILD_TYPE);
    return 3;
#endif

    const std::vector<WorkloadDef> defs = workloadDefs();
    Checks chk;
    if (args.selfTest) {
        Tracer off(false);
        ruleMapSelfTest(defs, off, chk);
        return chk.failed ? 1 : 0;
    }
    const WorkloadDef *wp = nullptr;
    for (const WorkloadDef &w : defs)
        if (w.name == args.workload)
            wp = &w;
    if (!wp) {
        std::fprintf(stderr, "perf_e2e: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    const WorkloadDef &w = *wp;
    const std::string seedStr = std::to_string(args.seed);
    // Only the KV inputs take the seed (see kKvSeeds).
    const uint64_t kvSeed = args.seed % kKvSeeds;
    const std::string expectSeed =
        w.kind == Kind::Kv ? std::to_string(kvSeed) : "*";

    if (args.record) {
        // Recorded values come from the sequential scheduler; the
        // parallel workload is bound to them through kv-server's lines.
        Tracer off(false);
        RunOpts o;
        for (const std::string &p : w.programs) {
            ProgRun pr = runProgram(w, p, kvSeed, off, o, nullptr);
            if (!pr.failure.empty()) {
                std::fprintf(stderr, "%s: %s\n", p.c_str(),
                             pr.failure.c_str());
                return 1;
            }
            std::printf("%s %s %s %llu %llu\n", expectName(w).c_str(),
                        p.c_str(), expectSeed.c_str(),
                        (unsigned long long)pr.region,
                        (unsigned long long)pr.p99);
        }
        return 0;
    }

    Expected expected;
    if (!readExpected(args.expected, expected)) {
        std::fprintf(stderr, "perf_e2e: cannot read expected table %s\n",
                     args.expected.c_str());
        return 2;
    }

    const uint32_t nproc = nprocs();
    const bool par = w.cfg.scheduler == cmd::SchedulerKind::Parallel;
    const uint32_t threads = par ? w.threads : 1;
    std::string prov =
        std::string("{\"git_sha\": ") + jsonStr(args.gitSha) +
        ", \"src_digest\": " + jsonStr(args.srcDigest) +
        ", \"build_type\": " + jsonStr(PERF_BUILD_TYPE) +
        ", \"optimized\": true, \"compiler\": " + jsonStr(__VERSION__) +
        ", \"nproc\": " + std::to_string(nproc) +
        ", \"hardware_threads\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"workload\": " + jsonStr(w.name) +
        ", \"config\": " + jsonStr(w.cfg.name) +
        ", \"scheduler\": " + jsonStr(schedName(w.cfg.scheduler)) +
        ", \"threads\": " + std::to_string(threads) +
        ", \"seed\": " + seedStr + ", \"kv_seed\": " +
        (w.kind == Kind::Kv ? expectSeed : std::string("null")) +
        ", \"seconds\": " + jsonNum(args.seconds) +
        ", \"trace\": " + (args.trace ? "1" : "0") +
        ", \"timing_model\": \"unvalidated against hardware; functional "
        "reference isa::GoldenModel\"}";
    std::printf("{\"provenance\": %s}\n", prov.c_str());
    std::fflush(stdout);

    Tracer tr(args.trace);
    Tracer off(false);

    // ---- whole-invocation checks and references (untimed)
    if (args.trace)
        ruleMapSelfTest(defs, tr, chk);
    else
        ruleMapSelfTest({w}, off, chk);

    std::map<std::string, GoldenRef> golden;
    if (w.kind != Kind::Kv) {
        for (const std::string &p : w.programs) {
            golden[p] = goldenRun(w, p, tr);
            chk.record("golden " + p, golden[p].failure);
        }
    }

    // Per program: the simulated results every run must reproduce.
    std::map<std::string, ProgRun> ref;
    auto check = [&](const std::string &p, ProgRun &pr,
                     const std::string &what) {
        std::string f = pr.failure;
        // SPEC/PARSEC programs exit with a checksum of their results.
        if (f.empty() && w.kind != Kind::Kv &&
            pr.exitCodes != golden[p].exitCodes)
            f = "exit codes differ from the golden model's";
        if (f.empty() && w.kind == Kind::Spec &&
            pr.instret != golden[p].instret)
            f = cmd::strfmt("instret %llu != golden %llu",
                            (unsigned long long)pr.instret,
                            (unsigned long long)golden[p].instret);
        const std::string key = expectKey(expectName(w), p, expectSeed);
        auto e = expected.find(key);
        if (f.empty() && e == expected.end())
            f = "no recorded result for " + key;
        if (f.empty() && e != expected.end() &&
            (pr.region != e->second.first || pr.p99 != e->second.second))
            f = cmd::strfmt("region/p99 %llu/%llu != recorded %llu/%llu",
                            (unsigned long long)pr.region,
                            (unsigned long long)pr.p99,
                            (unsigned long long)e->second.first,
                            (unsigned long long)e->second.second);
        auto r = ref.find(p);
        if (f.empty() && r != ref.end() &&
            (pr.region != r->second.region || pr.p99 != r->second.p99 ||
             pr.reqs.size() != r->second.reqs.size()))
            f = "simulated results differ from the reference run";
        if (f.empty() && r != ref.end()) {
            for (size_t i = 0; i < pr.reqs.size(); i++) {
                const server::KvHost::Req &a = pr.reqs[i], &b = r->second.reqs[i];
                if (a.arrival != b.arrival || a.key != b.key ||
                    a.put != b.put || a.hart != b.hart ||
                    a.popped != b.popped || a.completion != b.completion) {
                    f = cmd::strfmt("KV request %zu stamps differ from the "
                                    "reference run", i);
                    break;
                }
            }
        }
        if (f.empty() && r == ref.end())
            ref[p] = pr;
        chk.record(what + " " + p, f);
        pr.reqs.clear();
        pr.reqs.shrink_to_fit();
    };

    // The parallel workload's output must equal the sequential one's:
    // an untimed EventDriven reference run binds it.
    if (par) {
        RunOpts o;
        for (const std::string &p : w.programs) {
            int s = tr.begin("perfbench.sequential_reference");
            ProgRun pr = runProgram(w, p, kvSeed, off, o, nullptr);
            tr.end(s);
            check(p, pr, "sequential reference");
        }
    }

    std::vector<Metric> metrics;
    // Per program, per batch kind: samples of run and setup time.
    std::map<std::string, std::vector<double>> runS, setupS, tracedRunS;
    std::map<std::string, std::vector<double>> elabS, constructS, buildS,
        startS, writeS;
    std::map<std::string, ProgRun> last;

    RunOpts base;
    base.scheduler = w.cfg.scheduler;
    if (!args.trace) {
        RunOpts so = base;
        so.setupOnly = true;
        double spent = 0;
        for (int rep = 0; rep < kSetupReps || spent < kSetupBudgetS; rep++) {
            for (const std::string &p : w.programs) {
                double s =
                    runProgram(w, p, kvSeed, off, so, nullptr).setupS();
                setupS[p].push_back(s);
                spent += s;
            }
        }
    }

    LayerCounts lc;
    // Programs run round-robin until the deadline. A run stops at a
    // program boundary once every program has a sample (traced: an
    // untraced and a traced one), so a long program overshoots the
    // deadline by at most its own length.
    const uint64_t deadline = nowNs() + uint64_t(args.seconds * 1e9);
    auto covered = [&] {
        for (const std::string &p : w.programs)
            if (runS[p].empty() || (args.trace && tracedRunS[p].empty()))
                return false;
        return true;
    };
    uint32_t batch = 0;
    for (bool stop = false; !stop; batch++) {
        bool traced = args.trace && batch % 2 == 1;
        Tracer &t = traced ? tr : off;
        RunOpts o = base;
        o.traced = traced;
        // CPI sampling needs a hook at every cycle, which would pin
        // the parallel scheduler to per-cycle sync and distort the PDES
        // layer the traced run measures; the parallel workload takes
        // its CPI stacks from one extra pass below.
        o.cpi = traced && !par;
        t.setRun(batch);
        int bs = t.begin("batch");
        for (const std::string &p : w.programs) {
            ProgRun pr = runProgram(w, p, kvSeed, t, o,
                                    traced ? &lc : nullptr);
            check(p, pr, traced ? "traced run" : "run");
            if (traced) {
                tracedRunS[p].push_back(pr.runS);
                elabS[p].push_back(pr.elaborateS);
                constructS[p].push_back(pr.constructS);
                buildS[p].push_back(pr.buildS);
                startS[p].push_back(pr.startS);
                if (o.cpi)
                    writeS[p].push_back(pr.writeTracesS);
            } else {
                runS[p].push_back(pr.runS);
                setupS[p].push_back(pr.setupS());
            }
            last[p] = std::move(pr);
            if (nowNs() >= deadline && covered()) {
                stop = true;
                break;
            }
        }
        t.end(bs);
    }

    // Sum over programs of a per-program median.
    auto sumMedian = [&](std::map<std::string, std::vector<double>> &m) {
        double s = 0;
        for (const std::string &p : w.programs)
            s += median(m[p]);
        return s;
    };

    if (!args.trace) {
        double run = sumMedian(runS);
        uint64_t instret = 0, cycles = 0, region = 0;
        for (const std::string &p : w.programs) {
            instret += last[p].instret;
            cycles += last[p].cycles;
            region += last[p].region;
        }
        metrics = {
            {"sim_kips", "kips", double(instret) / run * 1e-3},
            {"sim_kcycles_per_s", "kcycles/s", double(cycles) / run * 1e-3},
            {"setup_s", "s", sumMedian(setupS)},
            {"peak_rss_mb", "MB", peakRssMb()},
            {"sim_cycles", "cycles", double(region)},
        };
    } else {
        if (par) {
            LayerCounts cpiPass;
            RunOpts o = base;
            o.cpi = true;
            tr.setRun(batch);
            int bs = tr.begin("batch.cpi");
            for (const std::string &p : w.programs) {
                ProgRun pr = runProgram(w, p, kvSeed, tr, o, &cpiPass);
                check(p, pr, "cpi pass");
                writeS[p].push_back(pr.writeTracesS);
            }
            tr.end(bs);
            lc.cpi = cpiPass.cpi;
            lc.cpiCycles = cpiPass.cpiCycles;
        }
        auto per = [](double n, double d, double scale = 1.0) {
            return d > 0 ? n / d * scale : 0.0;
        };
        double cyc = double(lc.cycles), ins = double(lc.instret);
        double runNs = double(lc.runNs);
        double untraced = sumMedian(runS), traced = sumMedian(tracedRunS);
        double simKips = per(ins, runNs, 1e6);
        uint64_t goldenInst = 0, goldenNs = 0;
        for (auto &g : golden) {
            goldenInst += g.second.instret;
            goldenNs += g.second.ns;
        }
        double goldenKips = per(double(goldenInst), double(goldenNs), 1e6);
        metrics = {
            {"core.elaborate_s", "s", sumMedian(elabS)},
            {"core.attempts_per_cycle", "1/cycle", per(lc.attempts, cyc)},
            {"core.fired_per_cycle", "1/cycle", per(lc.fired, cyc)},
            {"core.fire_ratio", "ratio", per(lc.fired, lc.attempts)},
            {"core.sleep_skip_ratio", "ratio",
             per(lc.sleepSkips, double(lc.sleepSkips + lc.attempts))},
            {"core.wakes_per_cycle", "1/cycle", per(lc.wakes, cyc)},
            {"core.guard_throws_per_kcycle", "1/kcycle",
             per(lc.guardThrows, cyc, 1e3)},
            {"core.fast_guard_fails_per_kcycle", "1/kcycle",
             per(lc.fastGuardFails, cyc, 1e3)},
            {"core.host_ns_per_cycle", "ns/cycle", per(runNs, cyc)},
            {"core.host_ns_per_attempt", "ns/attempt",
             per(runNs, lc.attempts)},
            {"core.framework_tax", "x", per(goldenKips, simKips)},
            // PDES layer: 0 except on the parallel workload.
            {"core.sync_epochs_per_cycle", "1/cycle", per(lc.syncEpochs, cyc)},
            {"core.barrier_wait_frac", "ratio", per(lc.barrierWaitNs, runNs)},
            {"core.max_domain_sync_wait_frac", "ratio",
             lc.maxDomainSyncWaitFrac},
            {"core.domain_exec_imbalance", "max/mean", lc.domainExecImbalance},
        };
        for (int m = 0; m < perfbench::kNumRuleModules; m++) {
            std::string mod = perfbench::kRuleModules[m];
            double f = double(lc.modFired[m]);
            double tried = f + double(lc.modGuard[m] + lc.modCm[m]);
            metrics.push_back({mod + ".fired", "count", f});
            metrics.push_back(
                {mod + ".guard_aborts", "count", double(lc.modGuard[m])});
            metrics.push_back(
                {mod + ".cm_aborts", "count", double(lc.modCm[m])});
            metrics.push_back({mod + ".fire_ratio", "ratio", per(f, tried)});
        }
        metrics.insert(
            metrics.end(),
            {
                {"tlb.dtlb_mpki", "1/kinst", per(lc.dtlbMisses, ins, 1e3)},
                {"tlb.l2tlb_mpki", "1/kinst", per(lc.l2tlbMisses, ins, 1e3)},
                {"frontend.mispredict_pki", "1/kinst",
                 per(lc.mispredicts, ins, 1e3)},
                {"cache.l1d_mpki", "1/kinst", per(lc.l1dMisses, ins, 1e3)},
                {"cache.l2_mpki", "1/kinst", per(lc.l2Misses, ins, 1e3)},
                {"lsq.ld_kills_pki", "1/kinst", per(lc.ldKills, ins, 1e3)},
                {"lsq.evict_kills_pki", "1/kinst",
                 per(lc.evictKills, ins, 1e3)},
                {"mem.dram_reads", "count", double(lc.dramReads)},
                {"mem.dram_row_hit_rate", "ratio",
                 per(lc.rowHits, lc.rowAccesses)},
                {"mem.bank_occ_mean_max", "requests", lc.bankOccMeanMax},
            });
        for (uint32_t c = 0; c < obs::kNumStallCauses; c++)
            metrics.push_back(
                {std::string("obs.cpi.") + obs::toString(obs::StallCause(c)),
                 "ratio", per(lc.cpi[c], lc.cpiCycles)});
        metrics.insert(
            metrics.end(),
            {
                {"obs.trace_overhead_frac", "ratio",
                 untraced > 0 ? traced / untraced - 1.0 : 0.0},
                {"obs.write_traces_s", "s", sumMedian(writeS)},
                {"server.pop_calls_per_kcycle", "1/kcycle",
                 per(lc.kv.pops, cyc, 1e3)},
                {"server.pop_empty_ratio", "ratio",
                 per(lc.kv.emptyPops, lc.kv.pops)},
                {"server.host_ns_per_pop", "ns", per(lc.kv.popNs, lc.kv.pops)},
                {"server.mean_queue_depth", "requests",
                 per(lc.queueDepth, lc.kvRequests)},
                {"server.p99_cycles", "cycles", double(lc.p99)},
                {"proc.construct_s", "s", sumMedian(constructS)},
                {"workloads.build_s", "s", sumMedian(buildS)},
                {"proc.start_s", "s", sumMedian(startS)},
                {"isa.golden_kips", "kips", goldenKips},
            });

        // Spans + provenance + the metrics, for offline inspection.
        std::string path = args.traceDir + "/" + w.name + "-seed" + seedStr +
                           ".trace.json";
        std::string meta = "{\"provenance\": " + prov +
                           ", \"metrics\": " + metricsJson(metrics) + "}";
        if (!tr.writeChromeTrace(path, meta))
            chk.record("span file", "cannot write " + path);
        else
            std::fprintf(stderr, "spans: %zu written to %s\n",
                         tr.spans().size(), path.c_str());
    }

    for (const std::string &p : w.programs) {
        for (auto *m : {&runS, &setupS}) {
            std::fprintf(stderr, "samples %s %s:", m == &runS ? "run" : "setup",
                         p.c_str());
            for (double v : (*m)[p])
                std::fprintf(stderr, " %.5f", v);
            std::fprintf(stderr, "\n");
        }
    }
    for (const std::string &why : chk.why)
        std::fprintf(stderr, "FAILED %s\n", why.c_str());
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                chk.failed ? "false" : "true",
                (unsigned long long)chk.attempted,
                (unsigned long long)chk.failed, metricsJson(metrics).c_str());
    return chk.failed ? 1 : 0;
}
