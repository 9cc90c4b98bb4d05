/**
 * @file
 * Parallel (domain-partitioned) scheduler tests: partitioning unit
 * behavior — TimedFifo boundaries cut, shared modules merge — plus
 * lockstep bit-equivalence against the exhaustive scheduler on
 * randomized multi-domain rule soups and on the full quad-core system.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "core/cmd.hh"
#include "cosim.hh"
#include "workloads/workloads.hh"

using namespace cmd;
using riscy::test::digest;

/**
 * A TimedFifo between two hint groups is a domain boundary: the two
 * sides partition into distinct domains and tokens still flow across.
 */
TEST(Parallel, TimedFifoCutsDomains)
{
    Kernel k;
    // The fifo is deliberately built outside any hint scope: its
    // endpoint modules detach from the construction scope regardless,
    // and each joins the domain of the rules that call it.
    TimedFifo<uint64_t> q(k, "q", 4, 1);
    std::unique_ptr<Reg<uint64_t>> a, b;
    Rule *produce = nullptr, *consume = nullptr;
    {
        DomainHint hl(k, "left");
        a = std::make_unique<Reg<uint64_t>>(k, "a", 1);
        produce = &k.rule("produce", [&] {
                       q.enq(a->read());
                       a->write(a->read() + 1);
                   }).when([&] { return q.canEnq(); }).uses({&q.enqM});
    }
    {
        DomainHint hr(k, "right");
        b = std::make_unique<Reg<uint64_t>>(k, "b", 0);
        consume = &k.rule("consume", [&] {
                       b->write(b->read() + q.deq());
                   }).when([&] { return q.canDeq(); }).uses({&q.deqM});
    }
    k.setScheduler(SchedulerKind::Parallel);
    k.elaborate();

    EXPECT_EQ(k.domainCount(), 2u);
    EXPECT_TRUE(k.parallelActive());
    EXPECT_NE(k.domainOf(*produce), k.domainOf(*consume));

    k.run(50);
    EXPECT_GT(produce->firedCount(), 10u);
    EXPECT_GT(consume->firedCount(), 10u);
    EXPECT_GT(b->read(), 0u); // tokens really crossed the boundary
}

/**
 * The graceful-merge fallback: two hint groups whose rules share one
 * ordinary module (a PipelineFifo — same-cycle coupled state) collapse
 * into a single domain, and Parallel degrades to the sequential walk
 * (parallelActive() false) rather than racing or refusing to run.
 */
namespace {

struct MergedPair {
    Kernel k;
    std::unique_ptr<Reg<uint64_t>> a, b;
    std::unique_ptr<PipelineFifo<uint64_t>> q;
    Rule *produce = nullptr, *consume = nullptr;

    MergedPair(SchedulerKind kind, uint32_t threads)
    {
        {
            DomainHint hl(k, "left");
            a = std::make_unique<Reg<uint64_t>>(k, "a", 1);
            q = std::make_unique<PipelineFifo<uint64_t>>(k, "q", 4);
            produce = &k.rule("produce", [this] {
                           q->enq(a->read());
                           a->write(a->read() + 1);
                       }).when([this] { return q->canEnq(); })
                           .uses({&q->enqM});
        }
        {
            DomainHint hr(k, "right");
            b = std::make_unique<Reg<uint64_t>>(k, "b", 0);
            consume = &k.rule("consume", [this] {
                           b->write(b->read() + q->deq());
                       }).when([this] { return q->canDeq(); })
                           .uses({&q->deqM});
        }
        k.setParallelThreads(threads);
        k.setScheduler(kind);
        k.elaborate();
    }
};

} // namespace

TEST(Parallel, SharedModuleMergesDomains)
{
    MergedPair par(SchedulerKind::Parallel, 4);
    EXPECT_EQ(par.k.domainCount(), 1u);
    EXPECT_FALSE(par.k.parallelActive());
    EXPECT_EQ(par.k.domainOf(*par.produce), par.k.domainOf(*par.consume));

    // Degraded-mode execution still matches the exhaustive scheduler
    // bit for bit (uint64-only state, so cross-instance digests are
    // comparable).
    MergedPair ex(SchedulerKind::Exhaustive, 0);
    for (int c = 0; c < 200; c++) {
        par.k.cycle();
        ex.k.cycle();
        ASSERT_EQ(digest(ex.k.snapshot()), digest(par.k.snapshot()))
            << "diverged at cycle " << c + 1;
    }
    EXPECT_GT(par.b->read(), 0u);
}

namespace {

/**
 * A deterministic random multi-domain rule soup: kDomains hint groups,
 * each with private registers and randomized internal rules, connected
 * in a ring by cross-domain TimedFifos. All state is uint64/uint32
 * scalars, so snapshot digests are comparable across instances (unlike
 * struct payloads, whose padding is instance-dependent). Building
 * twice with one seed yields structurally identical designs; kernels
 * differing only in scheduler/threads must stay bit-identical cycle by
 * cycle.
 */
struct DomainSoup {
    static constexpr uint32_t kDomains = 4;
    static constexpr int kRegsPerDomain = 6;
    static constexpr int kRulesPerDomain = 8;

    Kernel k;
    std::vector<std::unique_ptr<Reg<uint64_t>>> regs; // kDomains x kRegs
    std::vector<std::unique_ptr<Reg<uint64_t>>> ticks; // one per domain
    std::vector<std::unique_ptr<TimedFifo<uint64_t>>> ring;

    Reg<uint64_t> *reg(uint32_t d, int i)
    {
        return regs[d * kRegsPerDomain + i].get();
    }

    DomainSoup(uint32_t seed, SchedulerKind kind, uint32_t threads,
               uint32_t minDelay = 1)
    {
        std::mt19937 rng(seed);
        // Ring fifos first (outside any hint scope; the endpoints
        // detach and join the caller domains). Randomized capacity and
        // delay exercise different lookahead windows; a cross-domain
        // channel needs latency >= 1, and the windowed tests raise
        // minDelay to guarantee multi-cycle lookahead.
        for (uint32_t d = 0; d < kDomains; d++) {
            ring.push_back(std::make_unique<TimedFifo<uint64_t>>(
                k, strfmt("ring%u", d), 2 + rng() % 3,
                minDelay + rng() % 3));
        }
        for (uint32_t d = 0; d < kDomains; d++) {
            DomainHint hint(k, strfmt("dom%u", d));
            for (int i = 0; i < kRegsPerDomain; i++) {
                regs.push_back(std::make_unique<Reg<uint64_t>>(
                    k, strfmt("d%ur%d", d, i), uint64_t(d) * 31 + i + 1));
            }
            for (int i = 0; i < kRulesPerDomain; i++) {
                auto *ra = reg(d, rng() % kRegsPerDomain);
                auto *rb = reg(d, rng() % kRegsPerDomain);
                auto *rc = reg(d, rng() % kRegsPerDomain);
                uint64_t mod = 2 + rng() % 7;
                uint64_t rem = rng() % mod;
                uint64_t add = 1 + rng() % 9;
                switch (rng() % 3) {
                  case 0:
                    k.rule(strfmt("d%uw%d", d, i),
                           [=] { rc->write(rc->read() + ra->read() + add); })
                        .when([=] { return ra->read() % mod == rem; });
                    break;
                  case 1:
                    k.rule(strfmt("d%ut%d", d, i), [=] {
                        require((ra->read() + rb->read()) % mod == rem);
                        rc->write(rb->read() ^ (rc->read() << 1));
                    });
                    break;
                  default:
                    k.rule(strfmt("d%uq%d", d, i), [=] {
                        require(ra->read() % mod == rem);
                        rc->write(rc->read() + add);
                    });
                }
            }
            // Ring hookup: domain d feeds ring[d], drains ring[d-1].
            // The send gate runs off a dedicated tick register only
            // the heartbeat writes, so traffic is guaranteed no matter
            // what the random rules do to the shared registers.
            ticks.push_back(std::make_unique<Reg<uint64_t>>(
                k, strfmt("d%utick", d), 0));
            auto *tick = ticks.back().get();
            auto *out = ring[d].get();
            auto *in = ring[(d + kDomains - 1) % kDomains].get();
            auto *src = reg(d, 0);
            auto *sink = reg(d, kRegsPerDomain - 1);
            k.rule(strfmt("d%usend", d),
                   [=] { out->enq(src->read() + tick->read()); })
                .when([=] {
                    return tick->read() % 3 == 0 && out->canEnq();
                })
                .uses({&out->enqM});
            k.rule(strfmt("d%urecv", d), [=] {
                 sink->write(sink->read() + in->deq());
             }).when([=] { return in->canDeq(); }).uses({&in->deqM});
            // Per-domain heartbeat: no domain ever goes quiescent.
            k.rule(strfmt("d%ubeat", d),
                   [=] { tick->write(tick->read() + 1); });
        }
        k.setParallelThreads(threads);
        k.setScheduler(kind);
        k.elaborate();
    }
};

} // namespace

/**
 * The soup acceptance test: parallel execution at 1 to 4 threads (3
 * packs the 4 domains unevenly) is bit-identical, cycle by cycle, to
 * the exhaustive reference, over several seeds — and not vacuously
 * (the partition really is multi-domain and tokens really cross it).
 */
TEST(Parallel, LockstepRandomSoups)
{
    constexpr int kCycles = 1500;
    for (uint32_t seed : {1u, 7u, 42u, 1234u}) {
        DomainSoup ex(seed, SchedulerKind::Exhaustive, 0);
        std::vector<uint64_t> exDigests;
        for (int c = 0; c < kCycles; c++) {
            ex.k.cycle();
            exDigests.push_back(digest(ex.k.snapshot()));
        }
        // Every domain's ring sink must have accumulated something, or
        // the cross-domain path was never exercised.
        for (uint32_t d = 0; d < DomainSoup::kDomains; d++) {
            EXPECT_GT(ex.reg(d, DomainSoup::kRegsPerDomain - 1)->read(),
                      uint64_t(d) * 31 + DomainSoup::kRegsPerDomain)
                << "seed " << seed << " domain " << d;
        }

        for (uint32_t threads : {1u, 2u, 3u, 4u}) {
            DomainSoup par(seed, SchedulerKind::Parallel, threads);
            ASSERT_EQ(par.k.domainCount(), DomainSoup::kDomains)
                << "seed " << seed;
            ASSERT_TRUE(par.k.parallelActive());
            for (int c = 0; c < kCycles; c++) {
                par.k.cycle();
                ASSERT_EQ(exDigests[c], digest(par.k.snapshot()))
                    << "seed " << seed << " threads " << threads
                    << " diverged at cycle " << c + 1;
            }
        }
    }
}

/**
 * Multi-cycle lookahead PDES acceptance: parallel execution under
 * sync windows wider than one cycle — lookahead caps {1, 2, 8} x
 * threads {1, 2, 3, 4} — stays bit-identical to the exhaustive
 * reference at every window-aligned observation point, and the
 * barrier count really drops by the window width.
 *
 * The soups are built with minDelay 2 so every cross-domain channel
 * has latency >= 2 and the fifo-min lookahead is genuinely > 1
 * (otherwise the sweep would be vacuous: effective = min(cap,
 * fifo-min)).
 */
TEST(Parallel, WindowedLookaheadCosim)
{
    constexpr uint64_t kChunk = 250;
    constexpr uint64_t kTotal = 1500;
    for (uint32_t seed : {3u, 11u, 77u}) {
        DomainSoup ex(seed, SchedulerKind::Exhaustive, 0, 2);
        std::vector<uint64_t> exDigests;
        for (uint64_t c = 0; c < kTotal; c += kChunk) {
            ex.k.run(kChunk);
            exDigests.push_back(digest(ex.k.snapshot()));
        }

        for (uint32_t threads : {1u, 2u, 3u, 4u}) {
            for (uint32_t la : {1u, 2u, 8u}) {
                DomainSoup par(seed, SchedulerKind::Parallel, threads, 2);
                par.k.setLookahead(la);
                ASSERT_TRUE(par.k.parallelActive());
                ASSERT_GE(par.k.fifoMinLookahead(), 2u);
                uint32_t eff = par.k.effectiveLookahead();
                ASSERT_EQ(eff, std::min(la, par.k.fifoMinLookahead()));
                for (uint64_t c = 0; c < kTotal; c += kChunk) {
                    par.k.run(kChunk);
                    ASSERT_EQ(exDigests[c / kChunk],
                              digest(par.k.snapshot()))
                        << "seed " << seed << " threads " << threads
                        << " lookahead " << la << " diverged by cycle "
                        << c + kChunk;
                }
                // Each run(kChunk) call syncs ceil(kChunk / eff)
                // times; the whole point of the window is that this
                // is ~eff-times fewer than one-per-cycle.
                uint64_t expect =
                    (kTotal / kChunk) * ((kChunk + eff - 1) / eff);
                EXPECT_EQ(par.k.syncEpochs(), expect)
                    << "seed " << seed << " threads " << threads
                    << " lookahead " << la;
            }
        }
    }
}

/**
 * Per-domain sync wait is the idle time of the thread that runs the
 * domain: every domain a thread runs is charged the same wait, from
 * the finish of the thread's last domain to the barrier release, no
 * matter in which order the thread ran them.
 */
TEST(Parallel, SyncWaitIsChargedPerThread)
{
    for (uint32_t threads : {1u, 2u}) {
        DomainSoup par(5u, SchedulerKind::Parallel, threads);
        ASSERT_TRUE(par.k.parallelActive());
        par.k.run(400);
        KernelReport rep = par.k.report();
        ASSERT_EQ(rep.threads, threads);
        ASSERT_EQ(rep.domainLines.size(), DomainSoup::kDomains);
        // Thread t runs domains t, t + T, ...: each shares the wait of
        // the thread's first domain.
        for (uint32_t d = threads; d < DomainSoup::kDomains; d++) {
            EXPECT_EQ(rep.domainLines[d].syncWaitNs,
                      rep.domainLines[d % threads].syncWaitNs)
                << threads << " threads, domain " << d;
        }
    }
}

namespace {

/**
 * Two domains joined by a TimedFifo: "left" produces tokens, "right"
 * consumes them into its own register and owns a module with a method
 * no rule of "left" declares. The producer takes one illegal route
 * into "right" once its counter reaches kTrigger, after staging
 * writes of its own; Leg::None is the decoupled design.
 */
struct CrossPair {
    enum class Leg { None, BodyRead, GuardRead, Write, Call };
    static constexpr uint64_t kTrigger = 20;

    struct Sink : Module
    {
        explicit Sink(Kernel &k)
            : Module(k, "sink"), pokeM(method("poke")), r(k, "sink.r")
        {
        }
        void
        poke()
        {
            pokeM();
            r.write(r.read() + 1);
        }
        Method &pokeM;
        Reg<uint64_t> r;
    };

    Kernel k;
    TimedFifo<uint64_t> q{k, "q", 4, 2};
    std::unique_ptr<Reg<uint64_t>> a, b;
    std::unique_ptr<Sink> sink;

    explicit CrossPair(Leg leg)
    {
        {
            DomainHint hl(k, "left");
            a = std::make_unique<Reg<uint64_t>>(k, "a", 0);
            k.rule("produce", [this, leg] {
                 uint64_t v = a->read();
                 a->write(v + 1);
                 q.enq(v);
                 if (v != kTrigger)
                     return;
                 if (leg == Leg::BodyRead)
                     (void)b->read();
                 else if (leg == Leg::Write)
                     b->write(0);
                 else if (leg == Leg::Call)
                     sink->poke();
             })
                .when([this, leg] {
                    // A guard-read leg reads "right" only at the
                    // trigger, so the run commits up to it first.
                    if (leg == Leg::GuardRead && a->read() == kTrigger)
                        return b->read() != ~0ull;
                    return q.canEnq();
                })
                .uses({&q.enqM});
        }
        {
            DomainHint hr(k, "right");
            b = std::make_unique<Reg<uint64_t>>(k, "b", 0);
            sink = std::make_unique<Sink>(k);
            k.rule("consume", [this] { b->write(b->read() + q.deq()); })
                .when([this] { return q.canDeq(); })
                .uses({&q.deqM});
            k.rule("tick", [this] { sink->poke(); }).uses({&sink->pokeM});
        }
        k.setParallelThreads(2);
        k.setScheduler(SchedulerKind::Parallel);
        k.elaborate();
    }
};

} // namespace

/**
 * Every route by which a rule of one domain can reach another
 * domain's state at run time raises KernelFault{CrossDomain} under
 * Parallel, and the faulting rule's staged writes are rolled back:
 * its own counter stays at the trigger value, and draining the fifo
 * afterwards yields exactly the tokens committed before the fault.
 * The body-read leg runs after a passing when(), where the read check
 * is the inline domain compare in StateBase::noteRead().
 */
TEST(Parallel, CrossDomainAccessFaults)
{
    using Leg = CrossPair::Leg;
    {
        CrossPair clean(Leg::None);
        ASSERT_EQ(clean.k.domainCount(), 2u);
        ASSERT_TRUE(clean.k.parallelActive());
        clean.k.run(200);
        EXPECT_GT(clean.a->read(), CrossPair::kTrigger);
        EXPECT_GT(clean.b->read(), 0u);
    }
    const std::pair<Leg, const char *> legs[] = {
        {Leg::BodyRead, "b"},
        {Leg::GuardRead, "b"},
        {Leg::Write, "b"},
        {Leg::Call, "sink.poke"},
    };
    for (const auto &[leg, culprit] : legs) {
        SCOPED_TRACE(int(leg));
        CrossPair p(leg);
        ASSERT_EQ(p.k.domainCount(), 2u);
        try {
            p.k.run(200);
            ADD_FAILURE() << "cross-domain access ran clean";
        } catch (const KernelFault &f) {
            EXPECT_EQ(f.kind(), FaultKind::CrossDomain) << f.what();
            EXPECT_EQ(f.context().module, culprit) << f.what();
            // A when() guard runs before the rule's transaction opens.
            if (leg != Leg::GuardRead) {
                EXPECT_EQ(f.context().rule, "produce") << f.what();
            }
        }
        EXPECT_FALSE(p.k.inRule());
        // The staged a + 1 is gone...
        EXPECT_EQ(p.a->read(), CrossPair::kTrigger);
        // ...and so is the staged enqueue of kTrigger: with the
        // producer off, the consumer drains exactly 0 + 1 + ... +
        // (kTrigger - 1).
        p.k.rules()[0]->setEnabled(false);
        p.k.setScheduler(SchedulerKind::EventDriven);
        p.k.run(50);
        EXPECT_EQ(p.q.size(), 0u);
        EXPECT_EQ(p.b->read(),
                  CrossPair::kTrigger * (CrossPair::kTrigger - 1) / 2);
    }
}

/**
 * A latency-0 TimedFifo crossing a domain cut provides no PDES
 * lookahead; elaboration must reject it with a catchable DesignError
 * naming the channel and the domain pair — not deadlock or race at
 * run time.
 */
TEST(Parallel, LatencyZeroCrossChannelFaults)
{
    Kernel k;
    TimedFifo<uint64_t> q(k, "combo", 4, 0);
    EXPECT_EQ(q.latency(), 0u);
    std::unique_ptr<Reg<uint64_t>> a, b;
    {
        DomainHint hl(k, "left");
        a = std::make_unique<Reg<uint64_t>>(k, "a", 1);
        k.rule("produce", [&] { q.enq(a->read()); })
            .when([&] { return q.canEnq(); })
            .uses({&q.enqM});
    }
    {
        DomainHint hr(k, "right");
        b = std::make_unique<Reg<uint64_t>>(k, "b", 0);
        k.rule("consume", [&] { b->write(b->read() + q.deq()); })
            .when([&] { return q.canDeq(); })
            .uses({&q.deqM});
    }
    k.setScheduler(SchedulerKind::Parallel);
    try {
        k.elaborate();
        FAIL() << "latency-0 cross-domain channel must not elaborate";
    } catch (const KernelFault &f) {
        EXPECT_EQ(f.kind(), FaultKind::DesignError);
        EXPECT_NE(f.message().find("combo"), std::string::npos)
            << f.message();
        EXPECT_NE(f.message().find("latency 0"), std::string::npos)
            << f.message();
        EXPECT_NE(f.message().find("left"), std::string::npos)
            << f.message();
        EXPECT_NE(f.message().find("right"), std::string::npos)
            << f.message();
    }
}

/**
 * Scheduler switching on a live multi-domain design: run a stretch
 * exhaustive, switch to parallel mid-flight, then back — digests must
 * track a pure-exhaustive twin the whole way.
 */
TEST(Parallel, SwitchingSchedulersMidRun)
{
    DomainSoup ex(7u, SchedulerKind::Exhaustive, 0);
    DomainSoup sw(7u, SchedulerKind::Exhaustive, 2);
    auto step = [&](int n) {
        for (int c = 0; c < n; c++) {
            ex.k.cycle();
            sw.k.cycle();
            ASSERT_EQ(digest(ex.k.snapshot()), digest(sw.k.snapshot()));
        }
    };
    step(300);
    sw.k.setScheduler(SchedulerKind::Parallel);
    ASSERT_TRUE(sw.k.parallelActive());
    step(300);
    sw.k.setScheduler(SchedulerKind::EventDriven);
    step(300);
    sw.k.setScheduler(SchedulerKind::Parallel);
    step(300);
}

/**
 * The full-system acceptance test: the quad-core TSO system partitions
 * into cores + memory = 5 domains, and parallel 4- and 3-thread
 * replays of a fixed cycle window (3 threads pack the 5 domains
 * unevenly: 2 + 2 + 1) are bit-identical to the exhaustive run.
 *
 * One System instance is rewound and replayed (cross-instance digest
 * comparison is invalid — struct padding; see test_scheduler.cc). The
 * workload is load-only so PhysMem, which sits outside the kernel
 * snapshot, is identical across the two runs.
 */
TEST(Parallel, QuadCoreSystemReplay)
{
    using namespace riscy;
    using namespace riscy::test;

    Assembler a(kEntry);
    // Endless load loop with a data-dependent accumulator and a short
    // branch pattern (same shape as the scheduler lockstep test):
    // every hart runs it, hammering private L1s/TLBs and the shared
    // L2 through the cross-domain channels.
    a.li(5, kEntry + 0x10000);
    a.li(6, 0);
    a.li(7, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    a.andi(28, 6, 511);
    a.slli(28, 28, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28);
    a.add(7, 7, 29);
    a.andi(30, 6, 7);
    auto skip = a.newLabel();
    a.bnez(30, skip);
    a.xor_(7, 7, 6);
    a.bind(skip);
    a.addi(6, 6, 1);
    a.j(loop);

    SystemConfig cfg = SystemConfig::multicore(true);
    cfg.scheduler = cmd::SchedulerKind::Exhaustive;
    System sys(cfg);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0,
              {kStackTop, kStackTop + 0x10000, kStackTop + 0x20000,
               kStackTop + 0x30000});
    auto snap0 = sys.kernel().snapshot();

    // ruleRelation() recomputes each pair from the method masks, so
    // antisymmetry does not hold by construction: check every pair.
    const std::vector<cmd::Rule *> &rules = sys.kernel().rules();
    for (const cmd::Rule *ra : rules) {
        for (const cmd::Rule *rb : rules) {
            if (ra == rb)
                continue;
            ASSERT_EQ(sys.kernel().ruleRelation(*ra, *rb),
                      cmd::invert(sys.kernel().ruleRelation(*rb, *ra)))
                << ra->name() << " vs " << rb->name();
        }
    }

    constexpr uint64_t kChunk = 3000;
    constexpr uint64_t kTotal = 24000;
    std::vector<uint64_t> exDigests;
    for (uint64_t c = 0; c < kTotal; c += kChunk) {
        sys.kernel().run(kChunk);
        exDigests.push_back(digest(sys.kernel().snapshot()));
    }
    std::vector<uint64_t> exInstret;
    for (uint32_t i = 0; i < cfg.cores; i++) {
        exInstret.push_back(sys.instret(i));
        EXPECT_GT(sys.instret(i), 100u) << "hart " << i << " barely ran";
    }

    for (uint32_t threads : {4u, 3u}) {
        sys.kernel().restore(snap0);
        sys.kernel().setParallelThreads(threads);
        sys.kernel().setScheduler(cmd::SchedulerKind::Parallel);
        ASSERT_EQ(sys.kernel().domainCount(), cfg.cores + 1);
        ASSERT_TRUE(sys.kernel().parallelActive());
        for (uint64_t c = 0; c < kTotal; c += kChunk) {
            sys.kernel().run(kChunk);
            ASSERT_EQ(exDigests[c / kChunk],
                      digest(sys.kernel().snapshot()))
                << threads << " threads: parallel diverged by cycle "
                << c + kChunk;
        }
        // instret is architectural state inside the snapshot, so the
        // restore rewound it; the replay must land on exactly the
        // exhaustive run's retirement count.
        for (uint32_t i = 0; i < cfg.cores; i++) {
            EXPECT_EQ(sys.instret(i), exInstret[i])
                << threads << " threads, hart " << i;
        }
    }
}

/**
 * Guard-throw budget on a real design: riscyooTPlus running mcf for a
 * fixed 50k-cycle window throws fewer than 500 GuardFails per kcycle,
 * under EventDriven and under Parallel. A rule that must wait says so
 * in its when() guard or through retry(); a throw costs an unwind and
 * a rollback. Before doFetch3 and doCommit stated their waits that
 * way, this window threw 1,013 per kcycle. The two runs must also
 * agree on every event count: stats staged by rule bodies commit on
 * the domain worker threads exactly as they do sequentially.
 */
TEST(Parallel, McfGuardThrowBudget)
{
    using namespace riscy;
    constexpr uint64_t kWindow = 50000;
    std::vector<System::EventCounts> evs;
    for (cmd::SchedulerKind kind :
         {cmd::SchedulerKind::EventDriven, cmd::SchedulerKind::Parallel}) {
        SCOPED_TRACE(cmd::toString(kind));
        SystemConfig cfg = SystemConfig::riscyooTPlus();
        cfg.scheduler = kind;
        cfg.threads = 2;
        System sys(cfg);
        workloads::Image img;
        for (const workloads::Workload &w : workloads::specWorkloads())
            if (w.name == "mcf")
                img = w.build(sys, 1);
        sys.elaborate();
        sys.start(img.entry, img.satp, img.stacks);
        sys.run(kWindow);
        ASSERT_EQ(sys.kernel().cycleCount(), kWindow);
        EXPECT_EQ(sys.kernel().parallelActive(),
                  kind == cmd::SchedulerKind::Parallel);
        cmd::KernelReport rep = sys.kernel().report();
        double perKcycle = 1000.0 * double(rep.guardThrows) / kWindow;
        EXPECT_LT(perKcycle, 500.0) << rep.text();
        evs.push_back(sys.events(0));
    }
    EXPECT_GT(evs[0].instret, 1000u);
    EXPECT_EQ(evs[0].instret, evs[1].instret);
    EXPECT_EQ(evs[0].dtlbMisses, evs[1].dtlbMisses);
    EXPECT_EQ(evs[0].l2tlbMisses, evs[1].l2tlbMisses);
    EXPECT_EQ(evs[0].branchMispredicts, evs[1].branchMispredicts);
    EXPECT_EQ(evs[0].l1dMisses, evs[1].l1dMisses);
    EXPECT_EQ(evs[0].l2Misses, evs[1].l2Misses);
}

/**
 * Cross-scheduler commit-stream equivalence on the quad-core with
 * *shared-memory stores* (all four harts hammer one array through the
 * coherent L2). Two System instances; commits are architectural, so
 * they compare validly across instances where raw snapshots do not.
 */
TEST(Parallel, QuadCoreCommitStream)
{
    using namespace riscy;
    using namespace riscy::test;

    Assembler a(kEntry);
    // mem[i & 63] = checksum += mem[i & 63] + i, forever — every hart,
    // same 64-dword window, so lines migrate between all four L1s.
    a.li(5, kEntry + 0x10000);
    a.li(6, 0);
    a.li(7, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    a.andi(28, 6, 63);
    a.slli(28, 28, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28);
    a.add(29, 29, 6);
    a.add(7, 7, 29);
    a.sd(7, 0, 28);
    a.addi(6, 6, 1);
    a.j(loop);

    struct Log {
        std::vector<std::tuple<Addr, uint32_t, uint64_t>> entries;
    };
    auto mkSys = [&](cmd::SchedulerKind kind, uint32_t threads,
                     std::vector<Log> &logs) {
        SystemConfig cfg = SystemConfig::multicore(true);
        cfg.scheduler = kind;
        cfg.threads = threads;
        auto sys = std::make_unique<System>(cfg);
        a.load(sys->mem(), kEntry);
        sys->elaborate();
        logs.resize(cfg.cores);
        for (uint32_t i = 0; i < cfg.cores; i++) {
            sys->setOnCommit(i, [&logs, i](const CommitRecord &r) {
                logs[i].entries.emplace_back(
                    r.pc, r.raw,
                    r.hasRd && !r.volatileRd ? r.rdVal : 0);
            });
        }
        sys->start(kEntry, 0,
                   {kStackTop, kStackTop + 0x10000, kStackTop + 0x20000,
                    kStackTop + 0x30000});
        return sys;
    };

    std::vector<Log> exLogs, parLogs;
    auto ex = mkSys(cmd::SchedulerKind::Exhaustive, 0, exLogs);
    auto par = mkSys(cmd::SchedulerKind::Parallel, 4, parLogs);
    ASSERT_EQ(par->kernel().domainCount(), 5u);
    ASSERT_TRUE(par->kernel().parallelActive());

    constexpr uint64_t kCycles = 12000;
    ex->kernel().run(kCycles);
    par->kernel().run(kCycles);

    for (uint32_t i = 0; i < 4; i++) {
        ASSERT_EQ(exLogs[i].entries.size(), parLogs[i].entries.size())
            << "hart " << i;
        ASSERT_GT(exLogs[i].entries.size(), 500u)
            << "hart " << i << " barely ran";
        for (size_t n = 0; n < exLogs[i].entries.size(); n++) {
            ASSERT_EQ(exLogs[i].entries[n], parLogs[i].entries[n])
                << "hart " << i << " commit #" << n;
        }
        EXPECT_EQ(ex->instret(i), par->instret(i)) << "hart " << i;
    }
}
