/**
 * @file
 * Kernel-hardening tests (core/harden.hh): snapshot round-trips for
 * every state type, deterministic fault injection, the forward-
 * progress watchdog under all three schedulers, the stuck-worker
 * barrier timeout, checkpoint/restore to disk with corruption
 * detection, HardenedRunner (a fault ends the run; resuming is an
 * explicit checkpoint load), and System-level crash recovery with
 * commit-stream digest equality.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/cmd.hh"
#include "cosim.hh"
#include "workloads/workloads.hh"

using namespace cmd;
using riscy::test::digest;

namespace {

/** Temp file path unique to this test process. */
std::string
tmpPath(const char *tag)
{
    return strfmt("/tmp/test_harden_%d_%s.ckpt", int(::getpid()), tag);
}

struct TmpFile
{
    explicit TmpFile(const char *tag) : path(tmpPath(tag))
    {
        std::remove(path.c_str());
    }
    ~TmpFile() { std::remove(path.c_str()); }
    std::string path;
};

/**
 * A design exercising every snapshot-able state type: Reg, RegArray,
 * Ehr, a PipelineFifo, and a TimedFifo (whose state is split across
 * its two endpoint modules). Deterministic and never quiescent.
 */
struct AllState
{
    Kernel k;
    Reg<uint64_t> tick;
    RegArray<uint64_t> arr;
    Ehr<uint64_t> ehr;
    PipelineFifo<uint64_t> pf;
    TimedFifo<uint64_t> tf;
    Reg<uint64_t> sink;

    explicit AllState(SchedulerKind kind = SchedulerKind::Exhaustive)
        : tick(k, "tick", 0), arr(k, "arr", 4, 0), ehr(k, "ehr", 2, 0),
          pf(k, "pf", 4), tf(k, "tf", 4, 3), sink(k, "sink", 0)
    {
        k.rule("beat", [this] {
            uint64_t t = tick.read();
            tick.write(t + 1);
            arr.write(t % 4, arr.read(t % 4) + t);
            ehr.write(0, ehr.read(0) ^ (t * 0x9e3779b97f4a7c15ull));
        });
        k.rule("feedPf", [this] { pf.enq(tick.read()); })
            .when([this] { return pf.canEnq(); })
            .uses({&pf.enqM});
        k.rule("pfToTf", [this] { tf.enq(pf.deq() * 3 + 1); })
            .when([this] { return pf.canDeq() && tf.canEnq(); })
            .uses({&pf.deqM, &tf.enqM});
        k.rule("drain", [this] { sink.write(sink.read() + tf.deq()); })
            .when([this] { return tf.canDeq(); })
            .uses({&tf.deqM});
        k.setScheduler(kind);
        k.elaborate();
    }
};

} // namespace

// ----------------------------------------------------- snapshot round-trips

TEST(Snapshot, RoundTripEveryStateType)
{
    AllState d;
    d.k.run(37);

    // Direct value checks around a restore for each element kind.
    auto snap = d.k.snapshot();
    uint64_t tick0 = d.tick.read();
    uint64_t arr0 = d.arr.read(1);
    uint64_t ehr0 = d.ehr.read(0);
    uint64_t sink0 = d.sink.read();
    uint32_t tfOcc0 = d.tf.size();
    bool pfDeq0 = d.pf.canDeq();

    d.k.run(23);
    ASSERT_NE(d.tick.read(), tick0);

    d.k.restore(snap);
    EXPECT_EQ(d.tick.read(), tick0);
    EXPECT_EQ(d.arr.read(1), arr0);
    EXPECT_EQ(d.ehr.read(0), ehr0);
    EXPECT_EQ(d.sink.read(), sink0);
    EXPECT_EQ(d.tf.size(), tfOcc0);
    EXPECT_EQ(d.pf.canDeq(), pfDeq0);
    EXPECT_EQ(digest(d.k.snapshot()), digest(snap));
}

/**
 * Restore-then-run equality: the cycles after a restore must replay
 * bit-exactly — including TimedFifo age stamps, whose semantics depend
 * on the (restored) cycle counter.
 */
TEST(Snapshot, RestoreThenRunReplaysBitExactly)
{
    for (SchedulerKind kind :
         {SchedulerKind::Exhaustive, SchedulerKind::EventDriven}) {
        AllState d(kind);
        d.k.run(50);
        auto snap = d.k.snapshot();

        std::vector<uint64_t> ref;
        for (int i = 0; i < 40; i++) {
            d.k.cycle();
            ref.push_back(digest(d.k.snapshot()));
        }

        d.k.restore(snap);
        for (int i = 0; i < 40; i++) {
            d.k.cycle();
            ASSERT_EQ(digest(d.k.snapshot()), ref[i])
                << "diverged " << i + 1 << " cycles after restore";
        }
    }
}

/**
 * Snapshots carry no host state: two builds of one design in one
 * process snapshot to the same bytes, before the first cycle and after
 * a run. Committed values of padded structs (TLB entries, ...) must
 * hold zeroed padding, not whatever the heap held.
 */
TEST(Snapshot, TwoBuildsSnapshotIdentically)
{
    using namespace riscy;
    constexpr uint64_t kCycles = 20000;
    const std::vector<workloads::Workload> ws = workloads::parsecWorkloads();
    const workloads::Workload &w = ws.front(); // blackscholes
    auto build = [&] {
        SystemConfig cfg = SystemConfig::multicore(true);
        auto sys = std::make_unique<System>(cfg);
        workloads::Image img = w.build(*sys, cfg.cores);
        sys->elaborate();
        sys->start(img.entry, img.satp, img.stacks);
        return sys;
    };
    auto differingBytes = [](const std::vector<uint8_t> &a,
                             const std::vector<uint8_t> &b) {
        EXPECT_EQ(a.size(), b.size());
        size_t n = 0;
        for (size_t i = 0; i < std::min(a.size(), b.size()); i++)
            n += a[i] != b[i];
        return n;
    };

    auto a = build();
    auto b = build();
    EXPECT_EQ(differingBytes(a->kernel().snapshot(), b->kernel().snapshot()),
              0u)
        << "before the first cycle";
    a->kernel().run(kCycles);
    b->kernel().run(kCycles);
    EXPECT_EQ(differingBytes(a->kernel().snapshot(), b->kernel().snapshot()),
              0u)
        << "after " << kCycles << " cycles";
}

// ---------------------------------------------------------- fault injection

TEST(Injector, CampaignPlansAreDeterministic)
{
    AllState d;
    FaultInjector inj(d.k);
    auto a = inj.planCampaign(0xfeedface, 64, 10000);
    auto b = inj.planCampaign(0xfeedface, 64, 10000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].describe(), b[i].describe()) << "plan " << i;

    // Plans arrive sorted by injection cycle and cover several types.
    bool sorted = true, sawFlip = false, sawChan = false;
    for (size_t i = 0; i < a.size(); i++) {
        if (i && a[i].cycle < a[i - 1].cycle)
            sorted = false;
        sawFlip |= a[i].type == FaultType::BitFlip;
        sawChan |= a[i].type == FaultType::MsgDrop ||
                   a[i].type == FaultType::MsgDelay;
    }
    EXPECT_TRUE(sorted);
    EXPECT_TRUE(sawFlip);
    EXPECT_TRUE(sawChan);

    auto c = inj.planCampaign(0xfeedface + 1, 64, 10000);
    bool anyDiff = c.size() != a.size();
    for (size_t i = 0; !anyDiff && i < a.size(); i++)
        anyDiff = c[i].describe() != a[i].describe();
    EXPECT_TRUE(anyDiff) << "different seeds drew identical campaigns";
}

TEST(Injector, SameSeedSameOutcome)
{
    // Two fresh instances of the same design, the same campaign applied
    // to both: the final architectural state must match bit-for-bit
    // (within one instance's own snapshot space; run A's digest
    // schedule is replayed on A itself after a restore, B likewise, and
    // the per-cycle fired counts are compared across the two).
    auto runCampaign = [](AllState &d) {
        FaultInjector inj(d.k);
        auto plans = inj.planCampaign(77, 16, 400);
        std::vector<uint64_t> fired;
        size_t next = 0;
        for (uint64_t c = 1; c <= 500; c++) {
            while (next < plans.size() && plans[next].cycle == c)
                inj.apply(plans[next++]);
            fired.push_back(d.k.cycle());
        }
        return fired;
    };
    AllState a, b;
    auto refFired = runCampaign(a);
    EXPECT_EQ(refFired, runCampaign(b));
    EXPECT_EQ(digest(a.k.snapshot()), digest(b.k.snapshot()));

    // The same campaign under the event-driven scheduler lands on the
    // same per-cycle fired counts and the same final state: fault
    // injection composes with sleep/wake.
    AllState c(SchedulerKind::EventDriven);
    EXPECT_EQ(runCampaign(c), refFired);
    EXPECT_EQ(digest(c.k.snapshot()), digest(a.k.snapshot()));
}

TEST(Injector, BitFlipWakesSleepingRules)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<uint64_t> flag(k, "flag", 0);
    Reg<uint64_t> out(k, "out", 0);
    Rule &consumer =
        k.rule("consumer", [&] { out.write(out.read() + 1); }).when([&] {
            return flag.read() != 0;
        });
    k.elaborate();
    k.run(3);
    ASSERT_TRUE(consumer.asleep());

    // Hand-built plan: flip bit 0 of "flag". The poke must wake the
    // sleeping consumer exactly as a committed write would.
    FaultPlan p;
    p.type = FaultType::BitFlip;
    p.bit = 0;
    p.target = ~0u;
    for (uint32_t i = 0; i < k.stateCount(); i++) {
        if (k.stateAt(i)->name() == "flag")
            p.target = i;
    }
    ASSERT_NE(p.target, ~0u);
    FaultInjector inj(k);
    EXPECT_TRUE(inj.apply(p));
    EXPECT_FALSE(consumer.asleep());
    k.run(2);
    EXPECT_GT(out.read(), 0u);
}

TEST(Injector, ChannelDropAndDelayLand)
{
    AllState d;
    d.k.run(20);
    ASSERT_GT(d.tf.size(), 0u);
    uint32_t occ = d.tf.size();
    uint64_t sinkBefore = d.sink.read();

    FaultInjector inj(d.k);
    FaultPlan drop;
    drop.type = FaultType::MsgDrop;
    drop.target = 0; // the design's only TimedFifo
    ASSERT_EQ(d.k.channelPorts().size(), 1u);
    EXPECT_TRUE(inj.apply(drop));
    EXPECT_EQ(d.tf.size(), occ - 1);

    FaultPlan delay;
    delay.type = FaultType::MsgDelay;
    delay.target = 0;
    delay.param = 1000;
    EXPECT_TRUE(inj.apply(delay));
    // The head message is now 1000 cycles out: the drain rule must not
    // consume anything for the next stretch.
    d.k.run(50);
    EXPECT_EQ(d.sink.read(), sinkBefore);
}

namespace {

/**
 * Producer/consumer over one TimedFifo that folds every drained
 * payload into an order-sensitive digest register, so two runs can be
 * compared value-by-value at equal drain counts. The digest lives in
 * a Reg (not a host-side vector) so speculative rule aborts cannot
 * corrupt it.
 */
struct DrainDigest
{
    Kernel k;
    Reg<uint64_t> next;
    TimedFifo<uint64_t> tf;
    Reg<uint64_t> sig, cnt;

    DrainDigest()
        : next(k, "next", 1), tf(k, "tf", 4, 2), sig(k, "sig", 0),
          cnt(k, "cnt", 0)
    {
        k.rule("feed", [this] {
             tf.enq(next.read() * 0x9e3779b97f4a7c15ull);
             next.write(next.read() + 1);
         })
            .when([this] { return tf.canEnq(); })
            .uses({&tf.enqM});
        k.rule("drain", [this] {
             sig.write(sig.read() * 1099511628211ull ^ tf.deq());
             cnt.write(cnt.read() + 1);
         })
            .when([this] { return tf.canDeq(); })
            .uses({&tf.deqM});
        k.elaborate();
    }
};

} // namespace

TEST(Injector, TimingCampaignPlansAreDelayOnlyAndDecorrelated)
{
    AllState d;
    FaultInjector inj(d.k);

    auto plans = inj.planTimingCampaign(99, 40, 500, 16);
    ASSERT_EQ(plans.size(), 40u);
    uint64_t prev = 0;
    for (const auto &p : plans) {
        EXPECT_EQ(p.type, FaultType::MsgDelay);
        EXPECT_GE(p.cycle, 1u);
        EXPECT_LE(p.cycle, 500u);
        EXPECT_GE(p.cycle, prev); // sorted
        EXPECT_LT(p.target, d.k.channelPorts().size());
        EXPECT_GE(p.param, 1u);
        EXPECT_LE(p.param, 16u);
        prev = p.cycle;
    }

    // Deterministic in the seed...
    auto again = inj.planTimingCampaign(99, 40, 500, 16);
    for (size_t i = 0; i < plans.size(); i++) {
        EXPECT_EQ(plans[i].cycle, again[i].cycle);
        EXPECT_EQ(plans[i].param, again[i].param);
    }
    // ...but its own stream: the same seed handed to planCampaign()
    // must not replay the same injection cycles.
    auto mixed = inj.planCampaign(99, 40, 500);
    bool differ = false;
    for (size_t i = 0; i < plans.size(); i++)
        differ |= plans[i].cycle != mixed[i].cycle;
    EXPECT_TRUE(differ);
}

TEST(Injector, TimingCampaignPreservesPayloadsByteIdentically)
{
    // Timing-only faults reshape WHEN messages move, never WHAT they
    // carry: after draining the same number of messages, a jittered
    // run's order-sensitive payload digest must equal the golden
    // run's. This is the property the litmus shaker leans on — it may
    // only explore schedules of the intended design.
    DrainDigest jit;
    FaultInjector inj(jit.k);
    auto plans = inj.planTimingCampaign(7, 24, 400, 12);
    size_t pi = 0;
    uint64_t landed = 0;
    for (int c = 0; c < 400; c++) {
        while (pi < plans.size() && plans[pi].cycle <= jit.k.cycleCount())
            landed += inj.apply(plans[pi++]) ? 1 : 0;
        jit.k.cycle();
    }
    ASSERT_GT(landed, 0u);
    uint64_t nd = jit.cnt.read();
    ASSERT_GT(nd, 0u);
    // Delays held messages back relative to an unperturbed run...
    DrainDigest gold;
    while (gold.cnt.read() < nd)
        gold.k.cycle();
    EXPECT_LT(gold.k.cycleCount(), 400u);
    // ...but every payload that did drain is byte-identical, in order.
    EXPECT_EQ(gold.sig.read(), jit.sig.read());
}

// ----------------------------------------------------------------- watchdog

namespace {

/**
 * A two-domain producer/consumer design that can be wedged: the
 * producer (domain "left") stops feeding the TimedFifo when fed_
 * reaches a cap, after which the consumer (domain "right") starves.
 * The left-side beat rule keeps firing forever, so only a heartbeat
 * watchdog notices — and the starved domain is "right".
 */
struct Wedgeable
{
    Kernel k;
    std::unique_ptr<DomainHint> leftHint, rightHint;
    std::unique_ptr<Reg<uint64_t>> beat, fed, consumed;
    std::unique_ptr<TimedFifo<uint64_t>> chan;

    explicit Wedgeable(SchedulerKind kind, uint64_t feedCap,
                       uint32_t chanDelay = 1, uint32_t threads = 1)
    {
        {
            DomainHint left(k, "left");
            beat = std::make_unique<Reg<uint64_t>>(k, "beat", 0);
            fed = std::make_unique<Reg<uint64_t>>(k, "fed", 0);
        }
        {
            DomainHint right(k, "right");
            consumed = std::make_unique<Reg<uint64_t>>(k, "consumed", 0);
        }
        chan = std::make_unique<TimedFifo<uint64_t>>(k, "chan", 4,
                                                     chanDelay);
        {
            DomainHint left(k, "left");
            k.rule("beat", [this] { beat->write(beat->read() + 1); });
            k.rule("produce", [this] {
                 chan->enq(fed->read());
                 fed->write(fed->read() + 1);
             })
                .when([this, feedCap] {
                    return fed->read() < feedCap && chan->canEnq();
                })
                .uses({&chan->enqM});
        }
        {
            DomainHint right(k, "right");
            k.rule("consume", [this] {
                 consumed->write(consumed->read() + chan->deq());
             })
                .when([this] { return chan->canDeq(); })
                .uses({&chan->deqM});
        }
        k.setScheduler(kind);
        k.setParallelThreads(threads);
        k.elaborate();
    }
};

} // namespace

TEST(Watchdog, NamesStarvedDomainUnderEverySchedulerKind)
{
    for (SchedulerKind kind :
         {SchedulerKind::Exhaustive, SchedulerKind::EventDriven,
          SchedulerKind::Parallel}) {
        Wedgeable d(kind, 50);
        ASSERT_EQ(d.k.domainCount(), 2u);
        Watchdog wd(d.k, 200);
        wd.setHeartbeat([&] { return d.consumed->read(); });

        bool tripped = false;
        try {
            for (int c = 0; c < 5000; c++) {
                d.k.cycle();
                wd.observe();
            }
        } catch (const KernelFault &f) {
            tripped = true;
            EXPECT_EQ(f.kind(), FaultKind::Watchdog);
            // The starved domain is named in the message; the trace
            // carries the structured diagnostics dump.
            EXPECT_NE(f.message().find("right"), std::string::npos)
                << f.describe();
            EXPECT_NE(f.context().trace.find("occupancy"),
                      std::string::npos)
                << "diagnostics dump missing from the fault trace";
            EXPECT_NE(f.context().trace.find("beat"), std::string::npos)
                << "fired-ring tail missing from the fault trace";
        }
        EXPECT_TRUE(tripped)
            << "watchdog never fired under scheduler " << int(kind);
        // The wedge is architectural, not a watchdog artifact: all 50
        // fed elements were consumed before the starvation.
        EXPECT_EQ(d.consumed->read(), 50ull * 49 / 2);
    }
}

TEST(Watchdog, NoHeartbeatModeTripsOnGlobalQuiescence)
{
    // Gate every rule off after a while: with no heartbeat configured
    // the watchdog trips only when *nothing* fires for the window.
    Kernel k;
    Reg<uint64_t> t(k, "t", 0);
    k.rule("run", [&] { t.write(t.read() + 1); }).when([&] {
        return t.read() < 100;
    });
    k.elaborate();
    Watchdog wd(k, 150);
    EXPECT_THROW(
        {
            for (int c = 0; c < 5000; c++) {
                k.cycle();
                wd.observe();
            }
        },
        KernelFault);
}

TEST(Watchdog, QuietWhileProgressing)
{
    AllState d;
    Watchdog wd(d.k, 50);
    wd.setHeartbeat([&] { return d.tick.read(); });
    for (int c = 0; c < 2000; c++) {
        d.k.cycle();
        wd.observe();
    }
    SUCCEED();
}

// ------------------------------------------------- stuck-worker detection

TEST(Watchdog, BarrierTimeoutNamesStuckDomain)
{
    Kernel k;
    std::atomic<bool> release{false};
    std::atomic<bool> bodyDone{false};
    std::unique_ptr<Reg<uint64_t>> a, b;
    {
        DomainHint ha(k, "stuck");
        a = std::make_unique<Reg<uint64_t>>(k, "a", 0);
    }
    {
        DomainHint hb(k, "fine");
        b = std::make_unique<Reg<uint64_t>>(k, "b", 0);
    }
    // Keep the domains disjoint with a channel between them.
    TimedFifo<uint64_t> chan(k, "chan", 2, 1);
    {
        DomainHint ha(k, "stuck");
        k.rule("spin", [&] {
            a->write(a->read() + 1);
            auto t0 = std::chrono::steady_clock::now();
            while (!release.load()) {
                // Safety valve so a broken test cannot hang forever.
                if (std::chrono::steady_clock::now() - t0 >
                    std::chrono::seconds(10))
                    break;
                detail::cpuRelax();
            }
            bodyDone.store(true);
        });
    }
    {
        DomainHint hb(k, "fine");
        k.rule("tick", [&] { b->write(b->read() + 1); });
    }
    k.setScheduler(SchedulerKind::Parallel);
    k.setParallelThreads(2);
    // Drive from the main thread only: it stays responsive at the
    // barrier and can detect the wedged worker.
    k.setParallelMainParticipates(false);
    k.setBarrierTimeoutNs(50'000'000); // 50 ms
    k.elaborate();
    ASSERT_EQ(k.domainCount(), 2u);

    bool tripped = false;
    try {
        k.cycle();
    } catch (const KernelFault &f) {
        tripped = true;
        EXPECT_EQ(f.kind(), FaultKind::Watchdog);
        EXPECT_NE(f.message().find("stuck"), std::string::npos)
            << f.describe();
    }
    EXPECT_TRUE(tripped) << "barrier timeout never fired";

    // Unwedge, then wait until every worker has finished its slice of
    // the aborted cycle (bodyDone alone races with the worker's
    // end-of-cycle commit bookkeeping, which must not overlap the
    // sequential run below).
    release.store(true);
    auto b0 = std::chrono::steady_clock::now();
    while (!bodyDone.load() &&
           std::chrono::steady_clock::now() - b0 < std::chrono::seconds(30))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(bodyDone.load());
    auto q0 = std::chrono::steady_clock::now();
    while (!k.parallelQuiesced() &&
           std::chrono::steady_clock::now() - q0 < std::chrono::seconds(30))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(k.parallelQuiesced());

    // Recovery: the sequential schedulers still work.
    k.setScheduler(SchedulerKind::EventDriven);
    uint64_t before = b->read();
    k.run(3);
    EXPECT_EQ(b->read(), before + 3);
}

// -------------------------------------------------------------- checkpoints

TEST(Checkpoint, DiskRoundTripReplaysBitExactly)
{
    TmpFile f("roundtrip");
    AllState d;
    CheckpointManager ck(d.k, f.path);
    EXPECT_FALSE(ck.load());

    d.k.run(64);
    ck.save();
    EXPECT_EQ(ck.savedCount(), 1u);

    std::vector<uint64_t> ref;
    for (int i = 0; i < 30; i++) {
        d.k.cycle();
        ref.push_back(digest(d.k.snapshot()));
    }

    ASSERT_TRUE(ck.load());
    for (int i = 0; i < 30; i++) {
        d.k.cycle();
        ASSERT_EQ(digest(d.k.snapshot()), ref[i])
            << "diverged " << i + 1 << " cycles after disk restore";
    }
}

TEST(Checkpoint, PayloadHooksCarryUserBytes)
{
    TmpFile f("payload");
    AllState d;
    CheckpointManager ck(d.k, f.path);
    std::vector<uint8_t> stash{1, 2, 3, 42};
    std::vector<uint8_t> got;
    ck.setPayloadHooks([&] { return stash; },
                       [&](const std::vector<uint8_t> &b) { got = b; });
    d.k.run(10);
    ck.save();
    stash.clear();
    ASSERT_TRUE(ck.load());
    EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 42}));
}

TEST(Checkpoint, CorruptionIsDetected)
{
    TmpFile f("corrupt");
    AllState d;
    CheckpointManager ck(d.k, f.path);
    d.k.run(16);
    ck.save();

    // Flip one byte in the middle of the file.
    std::fstream io(f.path,
                    std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.good());
    io.seekg(0, std::ios::end);
    auto size = io.tellg();
    ASSERT_GT(size, 32);
    io.seekp(int(size) / 2);
    char byte = 0;
    io.seekg(int(size) / 2);
    io.read(&byte, 1);
    byte ^= 0x10;
    io.seekp(int(size) / 2);
    io.write(&byte, 1);
    io.close();

    try {
        ck.load();
        FAIL() << "corrupt checkpoint loaded";
    } catch (const KernelFault &f2) {
        EXPECT_EQ(f2.kind(), FaultKind::Checkpoint);
    }

    // Truncation is detected too.
    std::vector<char> head(size_t(size) / 3);
    {
        std::ifstream in(f.path, std::ios::binary);
        in.read(head.data(), std::streamsize(head.size()));
    }
    {
        std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
        out.write(head.data(), std::streamsize(head.size()));
    }
    EXPECT_THROW(ck.load(), KernelFault);

    // A valid checkpoint of a different design passes the checksum;
    // the kernel must reject it on size before writing any state,
    // whether the file holds fewer bytes than the design needs or more.
    TmpFile fOther("corrupt_other");
    DrainDigest other;
    other.k.run(20);
    CheckpointManager ckOther(other.k, fOther.path);
    ckOther.save();
    ck.save();
    ASSERT_NE(d.k.snapshot().size(), other.k.snapshot().size());
    auto expectRejected = [](Kernel &k, const std::string &path) {
        const uint64_t snapBefore = digest(k.snapshot());
        CheckpointManager foreign(k, path);
        try {
            foreign.load();
            ADD_FAILURE() << "checkpoint of another design loaded";
        } catch (const KernelFault &f2) {
            EXPECT_EQ(f2.kind(), FaultKind::Checkpoint) << f2.describe();
        }
        EXPECT_EQ(digest(k.snapshot()), snapBefore)
            << "a rejected restore wrote state";
    };
    expectRejected(d.k, fOther.path);  // shorter than the design needs
    expectRejected(other.k, f.path);   // longer than the design needs

    // A correctly checksummed file whose kernel length overruns the
    // file must be rejected before any bytes are copied.
    std::vector<uint8_t> bytes;
    {
        std::ifstream in(f.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 36u);
    const uint64_t kernLen = ~0ull - 15;
    for (int i = 0; i < 8; i++) // kernLen follows magic, version, cycle
        bytes[20 + i] = uint8_t(kernLen >> (8 * i));
    uint64_t sum = CheckpointManager::fnv1a(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; i++)
        bytes[bytes.size() - 8 + i] = uint8_t(sum >> (8 * i));
    {
        std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  std::streamsize(bytes.size()));
    }
    const uint64_t before = digest(d.k.snapshot());
    try {
        ck.load();
        FAIL() << "checkpoint with an overrunning length loaded";
    } catch (const KernelFault &f2) {
        EXPECT_EQ(f2.kind(), FaultKind::Checkpoint);
    }
    EXPECT_EQ(digest(d.k.snapshot()), before);
}

// ---------------------------------------------------------- HardenedRunner

TEST(HardenedRunner, FaultPropagatesAndKeepsScheduler)
{
    Kernel k;
    k.setScheduler(SchedulerKind::EventDriven);
    Reg<uint64_t> t(k, "t", 0);
    bool armed = true;
    k.rule("run", [&] {
        if (armed && t.read() == 100) {
            armed = false;
            kfault(FaultKind::DesignError, "testmod", "injected failure");
        }
        t.write(t.read() + 1);
    });
    k.elaborate();

    HardenedConfig hc;
    hc.watchdogStallCycles = 0; // this test exercises the fault path
    HardenedRunner hr(k, hc);
    try {
        hr.run([&] { return t.read() >= 300; }, 10000);
        FAIL() << "the runner absorbed the fault";
    } catch (const KernelFault &f) {
        EXPECT_EQ(f.kind(), FaultKind::DesignError);
        EXPECT_NE(f.message().find("injected failure"), std::string::npos);
    }
    EXPECT_EQ(t.read(), 100u) << "the faulting rule's write must roll back";
    EXPECT_EQ(k.scheduler(), SchedulerKind::EventDriven)
        << "a fault must not switch the scheduler";
}

namespace {

/**
 * Drive a permanently wedged design under a runner with checkpoints
 * every 64 cycles until the watchdog trips. The trip must end the run
 * at once: one fault, no checkpoint restored behind the caller's back,
 * the scheduler unchanged. The last checkpoint then loads at a cycle
 * that is both a checkpoint multiple and a sync epoch.
 */
void
expectWatchdogTripEndsRun(Wedgeable &d, const std::string &path)
{
    constexpr uint64_t kEvery = 64;
    const SchedulerKind kind = d.k.scheduler();
    HardenedConfig hc;
    hc.watchdogStallCycles = 100;
    hc.checkpointEvery = kEvery;
    hc.checkpointPath = path;
    HardenedRunner hr(d.k, hc);
    hr.watchdog().setHeartbeat([&] { return d.consumed->read(); });
    uint32_t loads = 0;
    hr.checkpoints()->setPayloadHooks(
        [] { return std::vector<uint8_t>(); },
        [&](const std::vector<uint8_t> &) { loads++; });

    uint32_t faults = 0;
    try {
        hr.run([] { return false; }, 100000);
    } catch (const KernelFault &f) {
        faults++;
        EXPECT_EQ(f.kind(), FaultKind::Watchdog) << f.describe();
    }
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(loads, 0u) << "the runner restored a checkpoint itself";
    EXPECT_EQ(d.k.scheduler(), kind);
    // The runner clamps its stride at checkpoint boundaries, so saves
    // really happened (a checkpoint misaligned with the window would
    // simply never be reached and this count would be zero).
    EXPECT_GT(hr.checkpoints()->savedCount(), 0u);

    const uint64_t window = d.k.syncStride();
    ASSERT_TRUE(hr.checkpoints()->load());
    EXPECT_EQ(loads, 1u);
    EXPECT_GT(d.k.cycleCount(), 0u);
    EXPECT_EQ(d.k.cycleCount() % kEvery, 0u);
    EXPECT_EQ(d.k.cycleCount() % window, 0u);
}

} // namespace

TEST(HardenedRunner, WatchdogTripPropagatesWithCheckpoints)
{
    TmpFile f("wdtrip");
    Wedgeable d(SchedulerKind::EventDriven, 10);
    expectWatchdogTripEndsRun(d, f.path);
}

// ------------------------------------- hardening under lookahead > 1
//
// The multi-cycle lookahead PDES lets each domain run several cycles
// between barriers, so every hardening mechanism has to stay sound at
// window granularity: checkpoints may only be taken at sync epochs
// (the only points where all domains are coherent), faults thrown
// mid-window surface at the next barrier, and the watchdog still
// trips while stepping in windows.

TEST(Checkpoint, WindowedDiskRoundTripReplaysBitExactly)
{
    TmpFile f("windowtrip");
    // Healthy (never-wedging) two-domain design, channel latency 4 so
    // the parallel scheduler really runs 4-cycle windows.
    Wedgeable d(SchedulerKind::Parallel, ~0ull, 4, 2);
    ASSERT_TRUE(d.k.parallelActive());
    ASSERT_EQ(d.k.effectiveLookahead(), 4u);
    CheckpointManager ck(d.k, f.path);

    d.k.run(64); // windowed stepping: 16 sync epochs
    ck.save();
    std::vector<uint64_t> ref;
    for (int i = 0; i < 10; i++) {
        d.k.run(8); // 2 windows per observation
        ref.push_back(digest(d.k.snapshot()));
    }

    ASSERT_TRUE(ck.load()); // rewind to cycle 64
    EXPECT_EQ(d.k.cycleCount(), 64u);
    for (int i = 0; i < 10; i++) {
        d.k.run(8);
        ASSERT_EQ(digest(d.k.snapshot()), ref[i])
            << "windowed replay diverged " << (i + 1) * 8
            << " cycles after restore";
    }
}

TEST(HardenedRunner, WindowedWatchdogTripLeavesSyncEpochCheckpoint)
{
    TmpFile f("wdwindow");
    // Permanently wedged under 4-cycle windows.
    Wedgeable d(SchedulerKind::Parallel, 10, 4, 2);
    ASSERT_TRUE(d.k.parallelActive());
    ASSERT_EQ(d.k.effectiveLookahead(), 4u);
    expectWatchdogTripEndsRun(d, f.path);
}

namespace {

/**
 * Two domains over a latency-4 channel; when armed, the producer
 * faults once, mid-window, at t == 500.
 */
struct WindowedBlip
{
    Kernel k;
    std::unique_ptr<Reg<uint64_t>> t, consumed;
    std::unique_ptr<TimedFifo<uint64_t>> chan;
    bool armed;

    explicit WindowedBlip(bool arm) : armed(arm)
    {
        {
            DomainHint left(k, "left");
            t = std::make_unique<Reg<uint64_t>>(k, "t", 0);
        }
        {
            DomainHint right(k, "right");
            consumed = std::make_unique<Reg<uint64_t>>(k, "consumed", 0);
        }
        chan = std::make_unique<TimedFifo<uint64_t>>(k, "chan", 4, 4);
        {
            DomainHint left(k, "left");
            k.rule("produce", [this] {
                 if (armed && t->read() == 500) {
                     armed = false;
                     kfault(FaultKind::DesignError, "testmod",
                            "mid-window blip");
                 }
                 if (chan->canEnq())
                     chan->enq(t->read());
                 t->write(t->read() + 1);
             }).uses({&chan->enqM});
        }
        {
            DomainHint right(k, "right");
            k.rule("consume", [this] {
                 consumed->write(consumed->read() + chan->deq());
             })
                .when([this] { return chan->canDeq(); })
                .uses({&chan->deqM});
        }
        k.setScheduler(SchedulerKind::Parallel);
        k.setParallelThreads(2);
        k.elaborate();
    }
};

} // namespace

TEST(HardenedRunner, WindowedTransientFaultCompletesAfterRestore)
{
    TmpFile f("wtransient");
    // The mid-window fault surfaces at the next sync barrier and ends
    // the run. The caller loads the last sync-epoch checkpoint (which
    // rewinds the skewed window) and runs again, still in parallel;
    // the result matches a run that never faulted.
    WindowedBlip d(true);
    ASSERT_TRUE(d.k.parallelActive());
    const uint64_t window = d.k.effectiveLookahead();
    ASSERT_EQ(window, 4u);

    HardenedConfig hc;
    hc.watchdogStallCycles = 0;
    hc.checkpointEvery = 128;
    hc.checkpointPath = f.path;
    HardenedRunner hr(d.k, hc);
    auto done = [&] { return d.t->read() >= 1000; };
    try {
        hr.run(done, 100000);
        FAIL() << "the runner absorbed the fault";
    } catch (const KernelFault &e) {
        EXPECT_EQ(e.kind(), FaultKind::DesignError);
        EXPECT_NE(e.message().find("mid-window blip"), std::string::npos);
    }
    // Surfaced at the barrier: the window that faulted has been
    // counted in full, while the producer's domain stopped at t == 500.
    EXPECT_EQ(d.t->read(), 500u);
    EXPECT_GT(d.k.cycleCount(), 500u);
    EXPECT_EQ(d.k.cycleCount() % window, 0u);
    EXPECT_EQ(d.k.scheduler(), SchedulerKind::Parallel);

    ASSERT_TRUE(hr.checkpoints()->load());
    EXPECT_EQ(d.k.cycleCount(), 384u); // last multiple of 128 before 504
    EXPECT_TRUE(hr.run(done, 100000));
    // done() is polled at window boundaries, so the target may be
    // overshot by at most stride-1 cycles.
    EXPECT_GE(d.t->read(), 1000u);
    EXPECT_LE(d.t->read(), 1003u);
    EXPECT_GT(d.consumed->read(), 0u);

    WindowedBlip clean(false);
    clean.k.run(d.k.cycleCount());
    EXPECT_EQ(digest(clean.k.snapshot()), digest(d.k.snapshot()))
        << "the resumed run diverged from a fault-free one";
}

// ------------------------------------------------- System crash recovery

namespace {

/** Order-sensitive FNV-1a digest of a commit stream. */
struct CommitDigest
{
    uint64_t h = 1469598103934665603ull;

    void
    add(const riscy::CommitRecord &r)
    {
        auto mix = [this](uint64_t v) {
            for (int i = 0; i < 8; i++) {
                h ^= uint8_t(v >> (8 * i));
                h *= 1099511628211ull;
            }
        };
        mix(r.pc);
        mix(r.raw);
        if (r.hasRd && !r.volatileRd)
            mix(r.rdVal);
    }

    std::vector<uint8_t>
    bytes() const
    {
        std::vector<uint8_t> out(8);
        for (int i = 0; i < 8; i++)
            out[i] = uint8_t(h >> (8 * i));
        return out;
    }
    void
    restore(const std::vector<uint8_t> &b)
    {
        ASSERT_EQ(b.size(), 8u);
        h = 0;
        for (int i = 0; i < 8; i++)
            h |= uint64_t(b[i]) << (8 * i);
    }
};

riscy::test::Assembler
storeLoadLoop()
{
    using namespace riscy::test;
    Assembler a(kEntry);
    // mem[i & 255] = checksum += mem[i & 255] + i, forever.
    a.li(5, kEntry + 0x10000);
    a.li(6, 0);
    a.li(7, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    a.andi(28, 6, 255);
    a.slli(28, 28, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28);
    a.add(29, 29, 6);
    a.add(7, 7, 29);
    a.sd(7, 0, 28);
    a.addi(6, 6, 1);
    a.j(loop);
    return a;
}

} // namespace

/**
 * The crash-recovery acceptance test: a run killed mid-flight resumes
 * from its checkpoint in a *new process-equivalent* System and ends
 * with a commit-stream digest identical to an uninterrupted run.
 */
TEST(SystemRecovery, ResumeFromCheckpointMatchesUninterruptedRun)
{
    using namespace riscy;
    TmpFile f("sysresume");
    auto a = storeLoadLoop();
    constexpr uint64_t kTotal = 24000;
    constexpr uint64_t kKillAt = 9000;

    auto mkCfg = [&](bool withCkpt) {
        SystemConfig cfg = SystemConfig::riscyooB();
        cfg.cores = 1;
        cfg.scheduler = cmd::SchedulerKind::EventDriven;
        if (withCkpt) {
            cfg.checkpointEvery = 2000;
            cfg.checkpointPath = f.path;
        }
        return cfg;
    };

    // Golden: uninterrupted.
    CommitDigest golden;
    {
        System sys(mkCfg(false));
        a.load(sys.mem(), test::kEntry);
        sys.elaborate();
        sys.setOnCommit(0, [&](const CommitRecord &r) { golden.add(r); });
        sys.start(test::kEntry, 0, {test::kStackTop});
        sys.run(kTotal);
        EXPECT_EQ(sys.stopReason(), StopReason::MaxCycles);
    }

    // Victim: checkpoints every 2000 cycles, killed mid-flight (the
    // System is simply destroyed; the checkpoint file survives).
    {
        System sys(mkCfg(true));
        CommitDigest dig;
        sys.setCheckpointUserHooks(
            [&] { return dig.bytes(); },
            [&](const std::vector<uint8_t> &b) { dig.restore(b); });
        a.load(sys.mem(), test::kEntry);
        sys.elaborate();
        sys.setOnCommit(0, [&](const CommitRecord &r) { dig.add(r); });
        sys.start(test::kEntry, 0, {test::kStackTop});
        sys.run(kKillAt);
    }

    // Survivor: same config, restored from disk instead of start().
    {
        System sys(mkCfg(true));
        CommitDigest dig;
        sys.setCheckpointUserHooks(
            [&] { return dig.bytes(); },
            [&](const std::vector<uint8_t> &b) { dig.restore(b); });
        a.load(sys.mem(), test::kEntry); // stale; overwritten by restore
        sys.elaborate();
        sys.setOnCommit(0, [&](const CommitRecord &r) { dig.add(r); });
        ASSERT_TRUE(sys.restoreCheckpoint());
        uint64_t resumedAt = sys.kernel().cycleCount();
        EXPECT_GT(resumedAt, 0u);
        EXPECT_LE(resumedAt, kKillAt);
        sys.run(kTotal - resumedAt);
        EXPECT_EQ(sys.kernel().cycleCount(), kTotal);
        EXPECT_EQ(dig.h, golden.h)
            << "commit stream diverged after crash recovery";
    }
}

TEST(SystemRun, WallClockBudgetTrips)
{
    using namespace riscy;
    auto a = storeLoadLoop();
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.cores = 1;
    cfg.maxWallSeconds = 1;
    System sys(cfg);
    a.load(sys.mem(), test::kEntry);
    sys.elaborate();
    sys.start(test::kEntry, 0, {test::kStackTop});
    // A budget of ~0ull means "none" at any starting cycle, not a
    // target that wraps below the current one.
    EXPECT_FALSE(sys.run(100));
    EXPECT_EQ(sys.stopReason(), StopReason::MaxCycles);
    EXPECT_FALSE(sys.run(~0ull));
    EXPECT_EQ(sys.stopReason(), StopReason::WallClock);
    EXPECT_STREQ(toString(sys.stopReason()), "wall-clock");
}

/**
 * A hang ends System::run with the first watchdog trip, on the
 * scheduler the config chose: no retry on a slower scheduler first.
 */
TEST(SystemRun, WatchdogTripEndsRun)
{
    using namespace riscy;
    constexpr uint64_t kStall = 5000;
    auto a = storeLoadLoop();
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.cores = 1;
    cfg.scheduler = cmd::SchedulerKind::EventDriven;
    cfg.watchdogStallCycles = kStall;
    System sys(cfg);
    a.load(sys.mem(), test::kEntry);
    sys.elaborate();
    Rule *commit = nullptr;
    for (Rule *r : sys.kernel().rules()) {
        if (r->name() == "hart0.doCommit")
            commit = r;
    }
    ASSERT_NE(commit, nullptr);
    commit->setEnabled(false);
    sys.start(test::kEntry, 0, {test::kStackTop});

    try {
        sys.run(100 * kStall);
        FAIL() << "a run that commits nothing finished without a fault";
    } catch (const KernelFault &f) {
        EXPECT_EQ(f.kind(), FaultKind::Watchdog) << f.describe();
    }
    EXPECT_LE(sys.kernel().cycleCount(), 2 * kStall);
    EXPECT_EQ(sys.kernel().scheduler(), cmd::SchedulerKind::EventDriven);
    EXPECT_EQ(sys.instret(0), 0u);
}
