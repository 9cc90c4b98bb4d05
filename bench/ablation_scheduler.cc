/**
 * @file
 * CMD-kernel scheduler ablation: exhaustive (attempt every rule every
 * cycle) and event-driven (sensitivity tracking + sleep/wake) side by
 * side, on workloads spanning the idleness spectrum:
 *
 *  - idle_pipeline: a deep FIFO pipeline fed one token every 128
 *    cycles, so a couple of stages carry tokens while ~190 sit empty
 *    — the idle-LSQ/TLB/L2 shape that dominates real system
 *    simulations, and the headline case for the event-driven win.
 *  - idle_guards: 64 permanently not-ready rules — the pure
 *    sleep-forever case.
 *  - busy_pipeline / busy_deep: the pipeline saturated with tokens at
 *    two depths, so no rule can sleep and event-driven pays its
 *    sensitivity capture for nothing.
 *  - busy_chain: a saturated dual-lane pipeline whose move rules
 *    advance both lanes per firing — the widest-rule shape.
 *
 * Every stage rule goes through a per-stage StageCtl block: the
 * status probes and bookkeeping calls (epoch check, scoreboard
 * search, credit check, perf counter) that the paper's fig 15-20
 * stage rules make on every firing besides their fifo moves. A bare
 * fifo shuffle under-represents that interface-method traffic, and
 * per-method-call enforcement is a tax every scheduler pays.
 *
 * Every run is checked for architectural equivalence (snapshot
 * digest) across both modes — a divergence exits non-zero — and
 * results are written both as a human-readable table and as
 * machine-readable BENCH_scheduler.json so the perf trajectory can be
 * tracked across changes. --ci additionally fails the run when
 * BENCH_scheduler.json could not be written.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/cmd.hh"

using namespace cmd;

namespace {

constexpr unsigned kIdleStages = 192;
constexpr unsigned kIdleFeedInterval = 128;
constexpr unsigned kBusyStages = 48;
constexpr unsigned kDeepStages = 192;
constexpr unsigned kChainLanes = 2;
constexpr unsigned kChainStages = 48;
uint64_t gCycles = 200000;
int gReps = 3;

/** FNV-1a over a snapshot buffer: the architectural-state digest. */
uint64_t
digest(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** The measured modes, with their BENCH_scheduler.json key prefixes. */
struct Mode {
    const char *name;
    SchedulerKind kind;
};

constexpr Mode kModes[] = {{"exhaustive", SchedulerKind::Exhaustive},
                           {"event", SchedulerKind::EventDriven}};
constexpr size_t kExhaustive = 0, kEvent = 1;

/**
 * Per-stage control block: the interface-method traffic a processor
 * stage rule generates besides its fifo moves. Each firing of the
 * owning stage rule probes the redirect epoch, the scoreboard, the
 * downstream credit counter and the unit-busy flag, then bumps a perf
 * counter — the method-call mix of the paper's stage rules (fetch
 * consults the epoch and the BTB, execute searches the scoreboard and
 * the bypass network, ...). Every block is private to one stage rule,
 * so all its methods are conflict-free.
 */
struct StageCtl : Module {
    Method &epochM = method("epoch");
    Method &scoreM = method("score");
    Method &creditM = method("credit");
    Method &busyM = method("busy");
    Method &phaseM = method("phase");
    Method &bypassM = method("bypass");
    Method &stallM = method("stall");
    Method &robM = method("rob");
    Method &noteM = method("note");
    Reg<uint64_t> epoch_;
    Reg<uint64_t> score_;
    Reg<uint64_t> credit_;
    Reg<uint64_t> busy_;
    Reg<uint64_t> phase_;
    Reg<uint64_t> bypass_;
    Reg<uint64_t> stall_;
    Reg<uint64_t> rob_;
    Reg<uint64_t> moved_;

    StageCtl(Kernel &k, const std::string &name)
        : Module(k, name, Conflict::CF),
          epoch_(k, name + ".epoch", 0x9e3779b97f4a7c15ull),
          score_(k, name + ".score", 0),
          credit_(k, name + ".credit", ~0ull),
          busy_(k, name + ".busy", 0),
          phase_(k, name + ".phase", 1),
          bypass_(k, name + ".bypass", 0),
          stall_(k, name + ".stall", 0),
          rob_(k, name + ".rob", 3),
          moved_(k, name + ".moved", 0)
    {
    }

    /** Redirect epoch to stamp the moved token with. */
    uint64_t epoch() { epochM(); return epoch_.read(); }
    /** Scoreboard search result for the moved token. */
    uint64_t score() { scoreM(); return score_.read(); }
    /** Downstream credit available? */
    bool haveCredit() { creditM(); return credit_.read() != 0; }
    /** Functional-unit busy flag. */
    uint64_t busy() { busyM(); return busy_.read(); }
    /** Arbitration phase of this stage's issue port. */
    uint64_t phase() { phaseM(); return phase_.read(); }
    /** Bypass-network search result for the moved token. */
    uint64_t bypass() { bypassM(); return bypass_.read(); }
    /** Structural-stall predicate of the downstream unit. */
    bool stalled() { stallM(); return stall_.read() != 0; }
    /** Reorder-buffer occupancy credit for this stage. */
    uint64_t rob() { robM(); return rob_.read(); }
    /** Count one token moved through this stage. */
    void note(uint64_t v) { noteM(); moved_.write(moved_.read() + (v & 1)); }

    /** The method set a stage rule using this block must declare. */
    std::vector<const Method *>
    methods() const
    {
        return {&epochM, &scoreM, &creditM, &busyM, &phaseM,
                &bypassM, &stallM, &robM, &noteM};
    }

    /**
     * One stage's worth of probe/bookkeeping calls, folded into the
     * moved token so every scheduler must execute them to reach the
     * matching state digest.
     */
    uint64_t
    touch(uint64_t v)
    {
        v ^= epoch() + score();
        if (haveCredit())
            v += (v >> 7) | 1;
        v += busy() + phase() + bypass();
        if (!stalled())
            v ^= rob() << 1;
        note(v);
        return v;
    }
};

/** N-stage FIFO pipeline; feed throttled to one token per interval. */
struct Pipeline {
    Kernel k;
    std::vector<std::unique_ptr<PipelineFifo<uint64_t>>> q;
    std::vector<std::unique_ptr<StageCtl>> ctl;
    Reg<uint64_t> tick;
    Reg<uint64_t> src;
    Reg<uint64_t> sink;

    Pipeline(unsigned stages, unsigned feedInterval, SchedulerKind kind)
        : tick(k, "tick", 0), src(k, "src", 0), sink(k, "sink", 0)
    {
        for (unsigned i = 0; i < stages; i++) {
            q.push_back(std::make_unique<PipelineFifo<uint64_t>>(
                k, strfmt("q%u", i), 2));
            ctl.push_back(
                std::make_unique<StageCtl>(k, strfmt("ctl%u", i)));
        }
        k.rule("tick", [this] { tick.write(tick.read() + 1); });
        // requireFast: the exception-free implicit-guard exit.
        k.rule("feed", [this, feedInterval] {
            if (!requireFast(tick.read() % feedInterval == 0))
                return;
            q.front()->enq(src.read());
            src.write(src.read() + 1);
        }).uses({&q.front()->enqM});
        for (unsigned i = 0; i + 1 < stages; i++) {
            auto *a = q[i].get();
            auto *b = q[i + 1].get();
            auto *c = ctl[i].get();
            std::vector<const Method *> used = c->methods();
            used.push_back(&a->deqM);
            used.push_back(&b->enqM);
            k.rule(strfmt("move%u", i),
                   [a, b, c] { b->enq(c->touch(a->deq())); })
                .when([a, b] { return a->canDeq() && b->canEnq(); })
                .uses(used);
        }
        k.rule("drain", [this] {
            sink.write(sink.read() + q.back()->deq());
        }).when([this] { return q.back()->canDeq(); })
            .uses({&q.back()->deqM});
        k.setScheduler(kind);
        k.elaborate();
    }
};

/**
 * Saturated multi-lane pipeline: one move rule per stage advances all
 * lanes together, so each firing makes lanes*2 interface-method calls.
 */
struct ChainPipeline {
    Kernel k;
    std::vector<std::unique_ptr<PipelineFifo<uint64_t>>> q; // lane-major
    std::vector<std::unique_ptr<StageCtl>> ctl;              // lane-major
    Reg<uint64_t> src;
    Reg<uint64_t> sink;

    ChainPipeline(unsigned lanes, unsigned stages, SchedulerKind kind)
        : src(k, "src", 0), sink(k, "sink", 0)
    {
        for (unsigned l = 0; l < lanes; l++) {
            for (unsigned i = 0; i < stages; i++) {
                q.push_back(std::make_unique<PipelineFifo<uint64_t>>(
                    k, strfmt("q%u_%u", l, i), 2));
                ctl.push_back(std::make_unique<StageCtl>(
                    k, strfmt("ctl%u_%u", l, i)));
            }
        }
        auto at = [this, stages](unsigned l, unsigned i) {
            return q[l * stages + i].get();
        };
        auto ctlAt = [this, stages](unsigned l, unsigned i) {
            return ctl[l * stages + i].get();
        };
        k.rule("feed", [this, at, lanes, stages] {
            for (unsigned l = 0; l < lanes; l++)
                at(l, 0)->enq(src.read() + l);
            src.write(src.read() + 1);
        })
            .when([at, lanes] {
                for (unsigned l = 0; l < lanes; l++)
                    if (!at(l, 0)->canEnq())
                        return false;
                return true;
            })
            .uses({&at(0, 0)->enqM, &at(1, 0)->enqM});
        for (unsigned i = 0; i + 1 < stages; i++) {
            std::vector<const Method *> used;
            for (unsigned l = 0; l < lanes; l++) {
                for (const Method *m : ctlAt(l, i)->methods())
                    used.push_back(m);
                used.push_back(&at(l, i)->deqM);
                used.push_back(&at(l, i + 1)->enqM);
            }
            k.rule(strfmt("move%u", i), [at, ctlAt, lanes, i] {
                for (unsigned l = 0; l < lanes; l++)
                    at(l, i + 1)->enq(ctlAt(l, i)->touch(at(l, i)->deq()));
            })
                .when([at, lanes, i] {
                    for (unsigned l = 0; l < lanes; l++) {
                        if (!at(l, i)->canDeq() || !at(l, i + 1)->canEnq())
                            return false;
                    }
                    return true;
                })
                .uses(used);
        }
        k.rule("drain", [this, at, lanes, stages] {
            uint64_t s = sink.read();
            for (unsigned l = 0; l < lanes; l++)
                s += at(l, stages - 1)->deq();
            sink.write(s);
        })
            .when([at, lanes, stages] {
                for (unsigned l = 0; l < lanes; l++)
                    if (!at(l, stages - 1)->canDeq())
                        return false;
                return true;
            })
            .uses({&at(0, stages - 1)->deqM, &at(1, stages - 1)->deqM});
        k.setScheduler(kind);
        k.elaborate();
    }
};

/** 64 permanently not-ready rules behind when() guards. */
struct IdleGuards {
    Kernel k;
    Reg<int> never;

    explicit IdleGuards(SchedulerKind kind) : never(k, "never", 0)
    {
        for (int i = 0; i < 64; i++) {
            k.rule(strfmt("idle%d", i), [] { require(false); })
                .when([this] { return never.read() != 0; });
        }
        k.setScheduler(kind);
        k.elaborate();
    }
};

struct RunStats {
    double cps = 0;
    uint64_t stateDigest = 0;
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
};

template <typename MakeDesign>
RunStats
measure(MakeDesign make, SchedulerKind kind, int reps)
{
    RunStats best;
    for (int rep = 0; rep < reps; rep++) {
        auto d = make(kind);
        Kernel &k = d->k;
        auto t0 = std::chrono::steady_clock::now();
        k.run(gCycles);
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        double cps = double(gCycles) / secs;
        if (cps > best.cps) {
            best.cps = cps;
            best.stateDigest = digest(k.snapshot());
            best.attempts = k.ruleAttemptCount();
            best.sleepSkips = k.sleepSkipCount();
        }
    }
    return best;
}

struct Workload {
    std::string name;
    std::function<RunStats(SchedulerKind, int)> run;
    RunStats m[std::size(kModes)]; ///< indexed in kModes order
};

bool
digestsMatch(const Workload &w)
{
    for (const RunStats &s : w.m) {
        if (s.stateDigest != w.m[kExhaustive].stateDigest)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool ci = false;
    std::string outPath; // default: BENCH_scheduler.json in the cwd
    for (int i = 1; i < argc; i++) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--ci")) {
            ci = true;
        } else if (!std::strcmp(argv[i], "--cycles")) {
            gCycles = std::strtoull(need("--cycles"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--reps")) {
            gReps = int(std::strtol(need("--reps"), nullptr, 0));
        } else if (!std::strcmp(argv[i], "--out")) {
            outPath = need("--out");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--ci] [--cycles N] [--reps N] "
                         "[--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<Workload> work;
    work.push_back({"idle_pipeline",
                    [](SchedulerKind kind, int reps) {
                        return measure(
                            [](SchedulerKind kk) {
                                return std::make_unique<Pipeline>(
                                    kIdleStages, kIdleFeedInterval, kk);
                            },
                            kind, reps);
                    },
                    {}});
    work.push_back({"idle_guards",
                    [](SchedulerKind kind, int reps) {
                        return measure(
                            [](SchedulerKind kk) {
                                return std::make_unique<IdleGuards>(kk);
                            },
                            kind, reps);
                    },
                    {}});
    work.push_back({"busy_pipeline",
                    [](SchedulerKind kind, int reps) {
                        return measure(
                            [](SchedulerKind kk) {
                                return std::make_unique<Pipeline>(
                                    kBusyStages, 1, kk);
                            },
                            kind, reps);
                    },
                    {}});
    work.push_back({"busy_deep",
                    [](SchedulerKind kind, int reps) {
                        return measure(
                            [](SchedulerKind kk) {
                                return std::make_unique<Pipeline>(
                                    kDeepStages, 1, kk);
                            },
                            kind, reps);
                    },
                    {}});
    work.push_back({"busy_chain",
                    [](SchedulerKind kind, int reps) {
                        return measure(
                            [](SchedulerKind kk) {
                                return std::make_unique<ChainPipeline>(
                                    kChainLanes, kChainStages, kk);
                            },
                            kind, reps);
                    },
                    {}});

    for (Workload &w : work) {
        for (size_t i = 0; i < std::size(kModes); i++)
            w.m[i] = w.run(kModes[i].kind, gReps);
    }

    printf("%-14s %13s %13s %7s %5s\n", "workload", "exhaustive", "event",
           "ev/ex", "state");
    for (const Workload &w : work) {
        printf("%-14s %13.0f %13.0f %6.2fx %5s\n", w.name.c_str(),
               w.m[kExhaustive].cps, w.m[kEvent].cps,
               w.m[kEvent].cps / w.m[kExhaustive].cps,
               digestsMatch(w) ? "match" : "DIVERGE");
    }

    using riscy::bench::JsonObject;
    JsonObject cfg;
    cfg.put("cycles_per_run", gCycles)
        .put("reps", gReps)
        .put("idle_stages", kIdleStages)
        .put("idle_feed_interval", kIdleFeedInterval)
        .put("busy_stages", kBusyStages)
        .put("deep_stages", kDeepStages)
        .put("chain_lanes", kChainLanes)
        .put("chain_stages", kChainStages);
    std::vector<JsonObject> out;
    for (const Workload &w : work) {
        JsonObject o;
        o.put("workload", w.name)
            .put("cycles", gCycles)
            .put("digest_match", digestsMatch(w));
        for (size_t i = 0; i < std::size(kModes); i++) {
            std::string p = kModes[i].name;
            o.put(p + "_cps", w.m[i].cps).put(p + "_attempts", w.m[i].attempts);
        }
        o.put("event_sleep_skips", w.m[kEvent].sleepSkips)
            .put("speedup_event", w.m[kEvent].cps / w.m[kExhaustive].cps);
        // Kernel-only microbench: the retired unit is a cycle, and the
        // headline (event-driven) run provides the wall time.
        riscy::bench::putSimSpeed(
            o, gCycles, uint64_t(1e9 * double(gCycles) / w.m[kEvent].cps));
        out.push_back(std::move(o));
    }
    bool wrote =
        riscy::bench::writeBenchJson("scheduler", cfg, out, outPath);
    if (ci && !wrote) {
        std::fprintf(stderr,
                     "GATE: --ci requires BENCH_scheduler.json to be "
                     "written (open failed: %s)\n",
                     outPath.empty() ? "BENCH_scheduler.json"
                                     : outPath.c_str());
        return 1;
    }

    bool ok = true;
    for (const Workload &w : work)
        ok = ok && digestsMatch(w);
    return ok ? 0 : 1;
}
