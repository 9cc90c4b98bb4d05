/**
 * @file
 * Tests for TimedFifo (latency-modeling FIFO), the EpochCounter
 * behind its PDES views, and GroupFifo (superscalar enq/deq ports).
 */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/timed_fifo.hh"
#include "ooo/group_fifo.hh"

using namespace cmd;

namespace {

TEST(TimedFifo, ElementsAgeBeforeVisible)
{
    Kernel k;
    TimedFifo<int> f(k, "f", 4, 3);
    k.elaborate();
    ASSERT_TRUE(k.runAtomically([&] { f.enq(42); }));
    EXPECT_FALSE(f.canDeq()); // age 0
    k.cycle();
    EXPECT_FALSE(f.canDeq()); // age 1
    k.cycle();
    EXPECT_FALSE(f.canDeq()); // age 2
    k.cycle();
    EXPECT_TRUE(f.canDeq()); // age 3
    int v = 0;
    ASSERT_TRUE(k.runAtomically([&] { v = f.deq(); }));
    EXPECT_EQ(v, 42);
}

TEST(TimedFifo, PreservesOrderUnderPipelining)
{
    Kernel k;
    TimedFifo<int> f(k, "f", 8, 5);
    Reg<int> next(k, "next", 0);
    std::vector<int> out;
    k.rule("feed", [&] {
        f.enq(next.read());
        next.write(next.read() + 1);
    }).uses({&f.enqM});
    k.rule("drain", [&] { out.push_back(f.deq()); })
        .when([&] { return f.canDeq(); })
        .uses({&f.deqM});
    k.elaborate();
    k.run(40);
    // After the 5-cycle fill delay, one element per cycle.
    ASSERT_GE(out.size(), 30u);
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(TimedFifo, LatencyAccessorReportsDelay)
{
    Kernel k;
    TimedFifo<int> a(k, "a", 4, 3);
    TimedFifo<int> b(k, "b", 4, 1);
    TimedFifo<int> c(k, "c", 4, 0);
    // latency() is the ChannelPort view the kernel uses to size the
    // PDES lookahead window at elaboration.
    EXPECT_EQ(a.latency(), 3u);
    EXPECT_EQ(b.latency(), 1u);
    EXPECT_EQ(c.latency(), 0u);
    ChannelPort &p = a;
    EXPECT_EQ(p.latency(), 3u);
}

TEST(TimedFifo, CapacityBackpressure)
{
    Kernel k;
    TimedFifo<int> f(k, "f", 2, 100);
    k.elaborate();
    ASSERT_TRUE(k.runAtomically([&] { f.enq(1); }));
    k.cycle();
    ASSERT_TRUE(k.runAtomically([&] { f.enq(2); }));
    k.cycle();
    EXPECT_FALSE(f.canEnq());
    EXPECT_FALSE(k.runAtomically([&] { f.enq(3); }));
}

TEST(EpochCounter, PublishedRingMatchesLiveRing)
{
    // publish() copies only the ring slots written since the last
    // publish. Drive random commits (0-3 per cycle: an append plus
    // same-cycle bumps in place), gaps, ring wraps and snapshot
    // restores; after every publish the published history must answer
    // every epoch exactly as the live one.
    Kernel k;
    EpochCounter ec(k, "ec", 2); // ring of 2*2+8 = 12 records
    k.elaborate();
    std::mt19937 rng(7);
    std::vector<uint8_t> snap;
    uint64_t publishes = 0, restores = 0;
    for (int cyc = 0; cyc < 400; cyc++) {
        uint32_t bumps = rng() % 4;
        for (uint32_t b = 0; b < bumps; b++) {
            ASSERT_TRUE(k.runAtomically(
                [&] { ec.write(ec.read() + 1 + rng() % 5); }));
        }
        if (rng() % 37 == 0)
            snap = k.snapshot();
        if (!snap.empty() && rng() % 53 == 0) {
            k.restore(snap);
            restores++;
        }
        if (rng() % 3 == 0) {
            ec.publish();
            publishes++;
            uint64_t now = k.cycleCount();
            EXPECT_EQ(ec.readPublished(), ec.read()) << "cycle " << now;
            for (uint64_t c = 0; c <= now + 1; c++)
                ASSERT_EQ(ec.readPublishedAt(c), ec.readAt(c))
                    << "cycle " << now << " epoch " << c;
        }
        k.cycle();
    }
    EXPECT_GT(publishes, 100u);
    EXPECT_GT(restores, 2u);
}

TEST(GroupFifo, GroupEnqAndPartialDeq)
{
    Kernel k;
    riscy::GroupFifo<int> f(k, "f", 8);
    k.elaborate();
    int g1[3] = {10, 11, 12};
    ASSERT_TRUE(k.runAtomically([&] { f.enqGroup(g1, 3); }));
    k.cycle();
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.peek(0), 10);
    EXPECT_EQ(f.peek(2), 12);
    ASSERT_TRUE(k.runAtomically([&] { f.deqN(2); }));
    k.cycle();
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.peek(0), 12);
}

TEST(GroupFifo, SameCycleDeqThenEnq)
{
    // deq < enq: a full queue can still accept a group in the cycle
    // that drains one (pipeline behavior).
    Kernel k;
    riscy::GroupFifo<int> f(k, "f", 4);
    Reg<int> seen(k, "seen", 0);
    k.rule("drain", [&] {
        seen.write(f.peek(0));
        f.deqN(1);
    }).when([&] { return f.size() > 0; })
        .uses({&f.deqM});
    Reg<int> n(k, "n", 0);
    k.rule("feed", [&] {
        int g[2] = {n.read(), n.read() + 1};
        f.enqGroup(g, 2);
        n.write(n.read() + 2);
    }).uses({&f.enqM});
    k.elaborate();
    k.run(20);
    EXPECT_GT(seen.read(), 10);
}

TEST(GroupFifo, RejectsOversizeGroup)
{
    Kernel k;
    riscy::GroupFifo<int> f(k, "f", 4);
    k.elaborate();
    int g[3] = {1, 2, 3};
    ASSERT_TRUE(k.runAtomically([&] { f.enqGroup(g, 3); }));
    k.cycle();
    EXPECT_FALSE(f.canEnq(2));
    EXPECT_FALSE(k.runAtomically([&] { f.enqGroup(g, 2); }));
    EXPECT_TRUE(f.canEnq(1));
}

} // namespace
