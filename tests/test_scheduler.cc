/**
 * @file
 * Event-driven scheduler tests: sleep/wake unit behavior, the
 * conservative stay-awake fallbacks, snapshot()/restore() of sleep
 * bookkeeping, and lockstep equivalence against the exhaustive
 * scheduler — on randomized rule soups and on the full OOO core.
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/cmd.hh"
#include "cosim.hh"

using namespace cmd;
using riscy::test::digest;

TEST(Scheduler, SleepsOnFalseGuardAndWakesOnRuleCommit)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> flag(k, "flag", 0);
    Reg<int> out(k, "out", 0);
    Rule &consumer =
        k.rule("consumer", [&] { out.write(out.read() + 1); }).when([&] {
            return flag.read() != 0;
        });
    Rule &producer =
        k.rule("producer", [&] { flag.write(1); }).setEnabled(false);
    k.elaborate();

    // One real attempt (guard false), then asleep: no re-attempts.
    k.run(4);
    EXPECT_EQ(consumer.guardAbortCount(), 1u);
    EXPECT_TRUE(consumer.asleep());
    EXPECT_EQ(consumer.lastOutcome(), Rule::Outcome::Sleeping);
    EXPECT_EQ(k.report().sleeps, 1u);
    EXPECT_GT(k.report().sleepSkips, 0u);
    EXPECT_EQ(out.read(), 0);

    // A rule committing the sensitivity register wakes the consumer.
    producer.setEnabled(true);
    k.run(2);
    EXPECT_FALSE(consumer.asleep());
    EXPECT_GE(k.report().wakes, 1u);
    EXPECT_GT(consumer.firedCount(), 0u);
    EXPECT_GT(out.read(), 0);
}

TEST(Scheduler, WakesOnRunAtomically)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> flag(k, "flag", 0);
    Reg<int> out(k, "out", 0);
    Rule &consumer =
        k.rule("consumer", [&] { out.write(1); }).when([&] {
            return flag.read() != 0;
        });
    k.elaborate();

    k.run(3);
    ASSERT_TRUE(consumer.asleep());

    // An action that fails a guard after a write rolls back: the
    // write is discarded, one GuardFail is counted, nothing wakes.
    const uint64_t throws = k.report().guardThrows;
    EXPECT_FALSE(k.runAtomically([&] {
        flag.write(1);
        require(false);
    }));
    EXPECT_EQ(flag.read(), 0);
    EXPECT_EQ(k.report().guardThrows, throws + 1);
    EXPECT_TRUE(consumer.asleep());

    // The testbench poke commits flag, which must wake the consumer.
    EXPECT_TRUE(k.runAtomically([&] { flag.write(1); }));
    EXPECT_FALSE(consumer.asleep());
    k.run(1);
    EXPECT_EQ(out.read(), 1);
    EXPECT_EQ(consumer.lastOutcome(), Rule::Outcome::Fired);
}

TEST(Scheduler, TimeDependentGuardStaysAwake)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> out(k, "out", 0);
    Rule &timer =
        k.rule("timer", [&] { out.write(1); }).when([&] {
            return k.cycleCount() >= 5;
        });
    k.elaborate();

    // Nothing ever commits before cycle 5, so a sleeping timer would
    // never wake; the cycleCount() read must keep it always-awake.
    k.run(4);
    EXPECT_FALSE(timer.asleep());
    EXPECT_EQ(timer.lastOutcome(), Rule::Outcome::GuardFalse);
    EXPECT_EQ(timer.guardAbortCount(), 4u);
    k.run(2);
    EXPECT_GT(timer.firedCount(), 0u);
    EXPECT_EQ(out.read(), 1);
}

TEST(Scheduler, ReadSetOverflowStaysAwake)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    std::vector<std::unique_ptr<Reg<int>>> regs;
    for (int i = 0; i < 70; i++)
        regs.push_back(
            std::make_unique<Reg<int>>(k, strfmt("r%d", i), 0));
    Reg<int> two(k, "two", 0);

    // Guard reads 70 distinct state elements: past the sensitivity
    // cap, so the read set is not captured exactly.
    Rule &wide = k.rule("wide", [] {}).when([&] {
        int sum = 0;
        for (auto &r : regs)
            sum += r->read();
        return sum != 0;
    });
    // Control: a two-element read set sleeps normally.
    Rule &narrow = k.rule("narrow", [] {}).when(
        [&] { return regs[0]->read() + two.read() != 0; });
    k.elaborate();

    k.run(3);
    EXPECT_FALSE(wide.asleep());
    EXPECT_EQ(wide.guardAbortCount(), 3u);
    EXPECT_TRUE(narrow.asleep());
    EXPECT_EQ(narrow.guardAbortCount(), 1u);
}

TEST(Scheduler, CmBlockedRuleStaysAwake)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    PipelineFifo<int> q(k, "q", 16);
    Reg<int> src(k, "src", 0);
    Rule &first =
        k.rule("first", [&] { q.enq(src.read()); }).when([&] {
            return q.canEnq();
        }).uses({&q.enqM});
    // Same-cycle second enq is CM-illegal (enq conflicts with itself):
    // the rule is blocked out of the cycle, not put to sleep — it must
    // retry every cycle because CM pressure can clear without any
    // commit to its own read set.
    Rule &second =
        k.rule("second", [&] { q.enq(src.read()); }).uses({&q.enqM});
    k.elaborate();

    k.run(5);
    EXPECT_EQ(first.firedCount(), 5u);
    EXPECT_EQ(second.cmAbortCount(), 5u);
    EXPECT_EQ(second.lastOutcome(), Rule::Outcome::CmBlocked);
    EXPECT_FALSE(second.asleep());
}

TEST(Scheduler, GuardedBodyImplicitFailStaysAwake)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> gate(k, "gate", 1);
    Reg<int> out(k, "out", 0);
    // The when() guard passes but the body then fails via require():
    // body reads are untracked once a guard has passed, so the read
    // set is incomplete and the rule must stay awake.
    Rule &r = k.rule("halfway", [&] {
                   require(false);
                   out.write(1);
               }).when([&] { return gate.read() != 0; });
    k.elaborate();

    k.run(3);
    EXPECT_FALSE(r.asleep());
    EXPECT_EQ(r.guardAbortCount(), 3u);
    EXPECT_GE(k.report().guardThrows, 3u);
    EXPECT_EQ(out.read(), 0);
}

TEST(Scheduler, SnapshotRestoreResetsSleepBookkeeping)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> flag(k, "flag", 0);
    Reg<int> out(k, "out", 0);
    Rule &consumer =
        k.rule("consumer", [&] { out.write(out.read() + 1); }).when([&] {
            return flag.read() != 0;
        });
    k.elaborate();

    k.run(3);
    ASSERT_TRUE(consumer.asleep());
    auto snap = k.snapshot();

    // Wake and fire past the snapshot point...
    k.runAtomically([&] { flag.write(1); });
    k.run(2);
    ASSERT_GT(out.read(), 0);

    // ...then rewind. All sleep state is discarded with the restore:
    // the consumer re-attempts (flag is 0 again), sleeps afresh, and
    // a post-restore wake still lands.
    k.restore(snap);
    EXPECT_FALSE(consumer.asleep());
    EXPECT_EQ(flag.read(), 0);
    EXPECT_EQ(out.read(), 0);
    uint64_t abortsBefore = consumer.guardAbortCount();
    k.run(3);
    EXPECT_EQ(consumer.guardAbortCount(), abortsBefore + 1);
    EXPECT_TRUE(consumer.asleep());
    EXPECT_EQ(out.read(), 0);
    k.runAtomically([&] { flag.write(1); });
    k.run(1);
    EXPECT_EQ(out.read(), 1);
}

TEST(Scheduler, SwitchingSchedulersWakesEverything)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<int> flag(k, "flag", 0);
    Rule &consumer = k.rule("consumer", [] {}).when([&] {
        return flag.read() != 0;
    });
    k.elaborate();
    k.run(3);
    ASSERT_TRUE(consumer.asleep());

    // Exhaustive mode must attempt everything again.
    k.setScheduler(SchedulerKind::Exhaustive);
    EXPECT_FALSE(consumer.asleep());
    uint64_t aborts = consumer.guardAbortCount();
    k.run(2);
    EXPECT_EQ(consumer.guardAbortCount(), aborts + 2);
}

namespace {

/**
 * A deterministic random rule soup: registers plus a FIFO chain, with
 * guards and bodies drawn from a seeded generator. Building twice with
 * the same seed yields structurally identical designs, so two kernels
 * differing only in scheduler must stay bit-identical cycle by cycle.
 */
struct Soup {
    Kernel k;
    std::vector<std::unique_ptr<Reg<uint64_t>>> regs;
    std::vector<std::unique_ptr<PipelineFifo<uint64_t>>> fifos;

    Soup(uint32_t seed, SchedulerKind kind)
    {
        std::mt19937 rng(seed);
        for (int i = 0; i < 16; i++)
            regs.push_back(std::make_unique<Reg<uint64_t>>(
                k, strfmt("r%d", i), uint64_t(i) * 7 + 1));
        for (int i = 0; i < 3; i++)
            fifos.push_back(std::make_unique<PipelineFifo<uint64_t>>(
                k, strfmt("f%d", i), 2));

        for (int i = 0; i < 32; i++) {
            auto *ra = regs[rng() % regs.size()].get();
            auto *rb = regs[rng() % regs.size()].get();
            auto *rc = regs[rng() % regs.size()].get();
            uint64_t mod = 2 + rng() % 7;
            uint64_t rem = rng() % mod;
            uint64_t add = 1 + rng() % 9;
            switch (rng() % 3) {
              case 0: // explicit when() guard
                k.rule(strfmt("w%d", i),
                       [=] { rc->write(rc->read() + ra->read() + add); })
                    .when([=] { return ra->read() % mod == rem; });
                break;
              case 1: // implicit guard via require() (throwing path)
                k.rule(strfmt("t%d", i), [=] {
                    require((ra->read() + rb->read()) % mod == rem);
                    rc->write(rb->read() ^ (rc->read() << 1));
                });
                break;
              default: // implicit guard on a single register
                k.rule(strfmt("q%d", i), [=] {
                    require(ra->read() % mod == rem);
                    rc->write(rc->read() + add);
                });
            }
        }
        // FIFO chain: producer gated on a register, movers, drain.
        auto *r0 = regs[0].get();
        auto *rl = regs.back().get();
        auto *f0 = fifos[0].get();
        k.rule("produce", [=] { f0->enq(r0->read()); })
            .when([=] { return r0->read() % 3 == 0 && f0->canEnq(); })
            .uses({&f0->enqM});
        for (size_t i = 0; i + 1 < fifos.size(); i++) {
            auto *a = fifos[i].get();
            auto *b = fifos[i + 1].get();
            k.rule(strfmt("move%zu", i), [=] { b->enq(a->deq()); })
                .when([=] { return a->canDeq() && b->canEnq(); })
                .uses({&a->deqM, &b->enqM});
        }
        auto *last = fifos.back().get();
        k.rule("drain", [=] { rl->write(rl->read() + last->deq()); })
            .when([=] { return last->canDeq(); })
            .uses({&last->deqM});
        // Heartbeat guarantees the soup never goes fully quiescent.
        k.rule("beat", [=] { r0->write(r0->read() + 1); });
        k.setScheduler(kind);
        k.elaborate();
    }
};

} // namespace

/**
 * Three-way lockstep over the seeded soups: the event-driven and the
 * Parallel kernel (single-domain here, so the sequential event walk)
 * are digest-compared against the exhaustive reference every cycle.
 */
TEST(Scheduler, LockstepRandomSoups)
{
    for (uint32_t seed : {1u, 7u, 42u, 1234u}) {
        Soup ex(seed, SchedulerKind::Exhaustive);
        Soup ev(seed, SchedulerKind::EventDriven);
        Soup pa(seed, SchedulerKind::Parallel);
        for (int c = 0; c < 2000; c++) {
            ex.k.cycle();
            ev.k.cycle();
            pa.k.cycle();
            uint64_t dx = digest(ex.k.snapshot());
            ASSERT_EQ(dx, digest(ev.k.snapshot()))
                << "seed " << seed << ": event-driven diverged at cycle "
                << c + 1;
            ASSERT_EQ(dx, digest(pa.k.snapshot()))
                << "seed " << seed << ": parallel diverged at cycle "
                << c + 1;
        }
        // The equivalence must not be vacuous: the event-driven run
        // actually slept rules and actually fired work.
        EXPECT_GT(ev.k.report().sleepSkips, 0u) << "seed " << seed;
        EXPECT_LT(ev.k.report().attempts, ex.k.report().attempts)
            << "seed " << seed;
    }
}

TEST(Scheduler, SwitchingSchedulersMidRunStaysBitIdentical)
{
    // Bounce one soup across every scheduler kind mid-run and digest
    // against an uninterrupted exhaustive reference each cycle.
    Soup ex(7u, SchedulerKind::Exhaustive);
    Soup sw(7u, SchedulerKind::EventDriven);
    const SchedulerKind kinds[] = {
        SchedulerKind::EventDriven, SchedulerKind::Exhaustive,
        SchedulerKind::Parallel, SchedulerKind::EventDriven,
        SchedulerKind::Exhaustive};
    int cycleNum = 0;
    for (SchedulerKind kind : kinds) {
        sw.k.setScheduler(kind);
        for (int c = 0; c < 200; c++) {
            ex.k.cycle();
            sw.k.cycle();
            cycleNum++;
            ASSERT_EQ(digest(ex.k.snapshot()), digest(sw.k.snapshot()))
                << "diverged at cycle " << cycleNum;
        }
    }
}

TEST(Scheduler, CompiledKindIsRejected)
{
    Kernel k;
    Reg<int> r(k, "r", 0);
    k.rule("bump", [&] { r.write(r.read() + 1); });
    for (bool elaborated : {false, true}) {
        if (elaborated)
            k.elaborate();
        try {
            k.setScheduler(SchedulerKind::Compiled);
            FAIL() << "setScheduler(Compiled) did not fault";
        } catch (const KernelFault &f) {
            EXPECT_EQ(f.kind(), FaultKind::ApiMisuse);
        }
        // The rejected switch left the previous scheduler in place.
        EXPECT_EQ(k.scheduler(), SchedulerKind::Exhaustive);
    }
    k.run(3);
    EXPECT_EQ(r.read(), 3);

    // A SystemConfig naming the retired kind fails the same way.
    riscy::SystemConfig cfg = riscy::SystemConfig::riscyooB();
    cfg.scheduler = SchedulerKind::Compiled;
    EXPECT_THROW(riscy::System sys(cfg), KernelFault);
}

/**
 * Requests for the retired compiled scheduler, made mid-run on the
 * seeded soups, fault without disturbing the run: the event-driven and
 * Parallel kernels keep their kind, keep sleeping rules, and stay on the
 * exhaustive reference's digest trajectory every cycle.
 */
TEST(Scheduler, CompiledLockstepRandomSoups)
{
    for (uint32_t seed : {1u, 7u, 42u, 1234u}) {
        Soup ex(seed, SchedulerKind::Exhaustive);
        Soup ev(seed, SchedulerKind::EventDriven);
        Soup pa(seed, SchedulerKind::Parallel);
        for (int c = 0; c < 2000; c++) {
            if (c % 500 == 250) {
                for (Soup *s : {&ev, &pa}) {
                    SchedulerKind before = s->k.scheduler();
                    try {
                        s->k.setScheduler(SchedulerKind::Compiled);
                        FAIL() << "setScheduler(Compiled) did not fault";
                    } catch (const KernelFault &f) {
                        EXPECT_EQ(f.kind(), FaultKind::ApiMisuse);
                    }
                    EXPECT_EQ(s->k.scheduler(), before);
                }
            }
            ex.k.cycle();
            ev.k.cycle();
            pa.k.cycle();
            uint64_t dx = digest(ex.k.snapshot());
            ASSERT_EQ(dx, digest(ev.k.snapshot()))
                << "seed " << seed << ": event-driven diverged at cycle "
                << c + 1;
            ASSERT_EQ(dx, digest(pa.k.snapshot()))
                << "seed " << seed << ": parallel diverged at cycle "
                << c + 1;
        }
        EXPECT_GT(ev.k.report().sleepSkips, 0u) << "seed " << seed;
        EXPECT_LT(ev.k.report().attempts, ex.k.report().attempts)
            << "seed " << seed;
    }
}

namespace {

struct CommitLog {
    struct Entry {
        riscy::Addr pc;
        uint32_t raw;
        bool hasRd;
        uint8_t rd;
        uint64_t rdVal;
        bool volatileRd;
    };
    std::vector<Entry> entries;

    void
    attach(riscy::System &sys)
    {
        sys.setOnCommit(0, [this](const riscy::CommitRecord &r) {
            entries.push_back(
                {r.pc, r.raw, r.hasRd, r.rd, r.rdVal, r.volatileRd});
        });
    }
};

} // namespace

/**
 * The acceptance-criterion test: the full OOO core (RiscyOO-B config)
 * under the exhaustive and event-driven schedulers for
 * >= 100k cycles, proven bit-identical by whole-kernel snapshot
 * digests.
 *
 * One System is run twice from the same start-of-time snapshot
 * (snapshots embed the cycle counter, so the replay re-executes the
 * same absolute cycle numbers). Comparing two *separate* System
 * instances by digest would be invalid: Reg<T> payloads are structs
 * whose padding bytes are instance-dependent. The workload is
 * load-only so PhysMem — which is outside the kernel snapshot — is
 * bit-identical across the two runs too.
 */
TEST(Scheduler, LockstepOooCore100kCycles)
{
    using namespace riscy;
    using namespace riscy::test;

    Assembler a(kEntry);
    // Endless load loop over a 512-dword window with a data-dependent
    // accumulator and a short branch pattern: exercises fetch, branch
    // prediction, rename, IQ, the LSQ load path, caches and TLBs.
    a.li(5, kEntry + 0x10000); // t0 = array base
    a.li(6, 0);                // t1 = i
    a.li(7, 0);                // t2 = checksum
    auto loop = a.newLabel();
    a.bind(loop);
    a.andi(28, 6, 511); // t3 = i & 511
    a.slli(28, 28, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28); // t4 = mem[t3]
    a.add(7, 7, 29);
    a.andi(30, 6, 7); // t5: taken 7 of 8 iterations
    auto skip = a.newLabel();
    a.bnez(30, skip);
    a.xor_(7, 7, 6);
    a.bind(skip);
    a.addi(6, 6, 1);
    a.j(loop);

    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.cores = 1;
    cfg.scheduler = cmd::SchedulerKind::Exhaustive;
    System sys(cfg);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0, {kStackTop});
    auto snap0 = sys.kernel().snapshot();

    constexpr uint64_t kChunk = 5000;
    constexpr uint64_t kTotal = 110000;
    std::vector<uint64_t> exDigests;
    for (uint64_t c = 0; c < kTotal; c += kChunk) {
        sys.kernel().run(kChunk);
        exDigests.push_back(digest(sys.kernel().snapshot()));
    }
    uint64_t exAttempts = sys.kernel().report().attempts;

    // Rewind to the start of time and replay under the event-driven
    // scheduler: every periodic digest must match the exhaustive run.
    sys.kernel().restore(snap0);
    sys.kernel().setScheduler(cmd::SchedulerKind::EventDriven);
    for (uint64_t c = 0; c < kTotal; c += kChunk) {
        sys.kernel().run(kChunk);
        ASSERT_EQ(exDigests[c / kChunk], digest(sys.kernel().snapshot()))
            << "schedulers diverged by cycle " << c + kChunk;
    }
    // The equivalence must not be vacuous: the OOO core really slept.
    uint64_t evAttempts = sys.kernel().report().attempts - exAttempts;
    EXPECT_GT(sys.kernel().report().sleepSkips, 0u);
    EXPECT_LT(evAttempts, exAttempts);
}

/**
 * Cross-scheduler commit-stream equivalence on a store+load loop (two
 * System instances; commits are architectural, so they compare validly
 * across instances where raw snapshots do not).
 */
TEST(Scheduler, LockstepOooCommitStream)
{
    using namespace riscy;
    using namespace riscy::test;

    Assembler a(kEntry);
    // mem[i & 511] = checksum += mem[i & 511] + i, forever.
    a.li(5, kEntry + 0x10000);
    a.li(6, 0);
    a.li(7, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    a.andi(28, 6, 511);
    a.slli(28, 28, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28);
    a.add(29, 29, 6);
    a.add(7, 7, 29);
    a.sd(7, 0, 28);
    a.addi(6, 6, 1);
    a.j(loop);

    auto mkSys = [&](cmd::SchedulerKind kind) {
        SystemConfig cfg = SystemConfig::riscyooB();
        cfg.cores = 1;
        cfg.scheduler = kind;
        auto sys = std::make_unique<System>(cfg);
        a.load(sys->mem(), kEntry);
        sys->elaborate();
        sys->start(kEntry, 0, {kStackTop});
        return sys;
    };
    auto ex = mkSys(cmd::SchedulerKind::Exhaustive);
    auto ev = mkSys(cmd::SchedulerKind::EventDriven);
    CommitLog exLog, evLog;
    exLog.attach(*ex);
    evLog.attach(*ev);

    constexpr uint64_t kCycles = 40000;
    ex->kernel().run(kCycles);
    ev->kernel().run(kCycles);

    // Same commits, in the same order, with the same values.
    ASSERT_EQ(exLog.entries.size(), evLog.entries.size());
    ASSERT_GT(exLog.entries.size(), 1000u) << "loop barely ran";
    for (size_t i = 0; i < exLog.entries.size(); i++) {
        const auto &x = exLog.entries[i];
        const auto &v = evLog.entries[i];
        ASSERT_EQ(x.pc, v.pc) << "commit #" << i;
        ASSERT_EQ(x.raw, v.raw) << "commit #" << i;
        ASSERT_EQ(x.hasRd, v.hasRd) << "commit #" << i;
        if (x.hasRd && !x.volatileRd && !v.volatileRd) {
            ASSERT_EQ(x.rdVal, v.rdVal) << "commit #" << i;
        }
    }
    EXPECT_EQ(ex->instret(0), ev->instret(0));
}
