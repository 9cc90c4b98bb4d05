/**
 * @file
 * Tests for the CMD FIFO library: CM flavors, same-cycle behavior,
 * throughput properties, and the paper's high-throughput GCD (Fig. 4).
 */
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>

#include "core/cmd.hh"

using namespace cmd;

namespace {

/**
 * Producer/consumer harness: producer enqueues an increasing sequence,
 * consumer dequeues into a log. Used to probe per-kind same-cycle
 * concurrency.
 */
struct ProdCons
{
    Kernel k;
    Fifo<uint32_t> fifo;
    Reg<uint32_t> next;
    std::vector<uint32_t> out;
    Rule *prod;
    Rule *cons;

    explicit ProdCons(FifoKind kind, uint32_t cap)
        : fifo(k, "fifo", cap, kind), next(k, "next", 0)
    {
        // Register the consumer first so that any same-cycle
        // concurrency is due to the CM, not registration luck.
        cons = &k.rule("cons", [this] {
            out.push_back(fifo.deq());
        });
        cons->uses({&fifo.deqM});
        prod = &k.rule("prod", [this] {
            fifo.enq(next.read());
            next.write(next.read() + 1);
        });
        prod->uses({&fifo.enqM});
        k.elaborate();
    }
};

TEST(Fifo, PipelineSustainsOneElementPerCycleWhenFull)
{
    ProdCons pc(FifoKind::Pipeline, 2);
    EXPECT_EQ(pc.k.ruleRelation(*pc.cons, *pc.prod), Conflict::LT);
    pc.k.run(100);
    // After warm-up the FIFO stays full and both rules fire each
    // cycle: ~1 element/cycle of throughput.
    EXPECT_GE(pc.out.size(), 97u);
    for (size_t i = 0; i < pc.out.size(); i++)
        EXPECT_EQ(pc.out[i], i);
}

TEST(Fifo, PipelineHasOneCycleLatency)
{
    ProdCons pc(FifoKind::Pipeline, 2);
    pc.k.cycle();
    // Cycle 1: deq < enq means the consumer attempted before the
    // producer filled the FIFO, so nothing came out yet.
    EXPECT_EQ(pc.out.size(), 0u);
    pc.k.cycle();
    EXPECT_EQ(pc.out.size(), 1u);
}

TEST(Fifo, BypassDeliversSameCycle)
{
    ProdCons pc(FifoKind::Bypass, 2);
    EXPECT_EQ(pc.k.ruleRelation(*pc.prod, *pc.cons), Conflict::LT);
    pc.k.cycle();
    // enq < deq: the element flows through combinationally.
    ASSERT_EQ(pc.out.size(), 1u);
    EXPECT_EQ(pc.out[0], 0u);
}

TEST(Fifo, CfFullThroughputWithCapacityTwo)
{
    ProdCons pc(FifoKind::Cf, 2);
    EXPECT_EQ(pc.k.ruleRelation(*pc.prod, *pc.cons), Conflict::CF);
    pc.k.run(100);
    EXPECT_GE(pc.out.size(), 97u);
    for (size_t i = 0; i < pc.out.size(); i++)
        EXPECT_EQ(pc.out[i], i);
}

TEST(Fifo, CfGuardsSeeCycleStartState)
{
    // With a CF FIFO, a deq in the same cycle as an enq into an empty
    // FIFO must NOT observe the new element (both act on cycle-start
    // state), regardless of schedule order.
    Kernel k;
    CfFifo<int> f(k, "f", 2);
    std::vector<int> got;
    Rule &prod = k.rule("prod", [&] { f.enq(7); });
    prod.uses({&f.enqM});
    Rule &cons = k.rule("cons", [&] { got.push_back(f.deq()); });
    cons.uses({&f.deqM});
    k.elaborate();
    k.cycle();
    EXPECT_TRUE(got.empty()); // empty at cycle start: deq blocked
    k.cycle();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 7);
}

TEST(Fifo, ClearConflictsWithEnqAndDeq)
{
    Kernel k;
    PipelineFifo<int> f(k, "f", 4);
    Rule &re = k.rule("re", [&] { f.enq(1); });
    re.uses({&f.enqM});
    Rule &rc = k.rule("rc", [&] { f.clear(); });
    rc.uses({&f.clearM});
    k.elaborate();
    EXPECT_EQ(k.ruleRelation(re, rc), Conflict::C);
}

TEST(Fifo, ClearEmptiesAndRestartsCleanly)
{
    Kernel k;
    PipelineFifo<int> f(k, "f", 4);
    k.elaborate();
    // Each poke gets its own cycle: enq may only be called once per
    // cycle (CM(enq, enq) = C), exactly as in the hardware.
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(k.runAtomically([&] { f.enq(i); }));
        k.cycle();
    }
    ASSERT_TRUE(k.runAtomically([&] { f.clear(); }));
    k.cycle();
    EXPECT_FALSE(f.notEmpty());
    ASSERT_TRUE(k.runAtomically([&] { f.enq(42); }));
    k.cycle();
    int v = -1;
    ASSERT_TRUE(k.runAtomically([&] { v = f.deq(); }));
    EXPECT_EQ(v, 42);
}

TEST(Fifo, EnqOnFullBlocksAndDeqOnEmptyBlocks)
{
    Kernel k;
    PipelineFifo<int> f(k, "f", 2);
    k.elaborate();
    EXPECT_TRUE(k.runAtomically([&] { f.enq(1); }));
    k.cycle();
    EXPECT_TRUE(k.runAtomically([&] { f.enq(2); }));
    k.cycle();
    EXPECT_FALSE(k.runAtomically([&] { f.enq(3); }));
    k.cycle();
    int v = 0;
    EXPECT_TRUE(k.runAtomically([&] { v = f.deq(); }));
    EXPECT_EQ(v, 1);
    k.cycle();
    EXPECT_TRUE(k.runAtomically([&] { v = f.deq(); }));
    EXPECT_EQ(v, 2);
    k.cycle();
    EXPECT_FALSE(k.runAtomically([&] { v = f.deq(); }));
}

TEST(Fifo, FirstPeeksWithoutRemoving)
{
    Kernel k;
    PipelineFifo<int> f(k, "f", 2);
    k.elaborate();
    ASSERT_TRUE(k.runAtomically([&] { f.enq(9); }));
    k.cycle();
    int v = 0;
    ASSERT_TRUE(k.runAtomically([&] { v = f.first(); }));
    EXPECT_EQ(v, 9);
    EXPECT_TRUE(f.notEmpty());
    ASSERT_TRUE(k.runAtomically([&] { v = f.deq(); }));
    EXPECT_EQ(v, 9);
}

TEST(Fifo, PeekFirstMatchesFirst)
{
    // A rule reads peekFirst() and then calls first() in the same
    // attempt: whenever first() returns, peekFirst() held the same
    // element; whenever first() failed its guard, peekFirst() held
    // nothing. A producer enqueues every cycle and a drain dequeues on
    // two cycles of three, so the head moves, wraps and, on a Cf fifo,
    // is enqueued into while empty in the same cycle it is looked at.
    for (FifoKind kind : {FifoKind::Pipeline, FifoKind::Bypass,
                          FifoKind::Cf}) {
        SCOPED_TRACE(int(kind));
        Kernel k;
        Fifo<uint32_t> f(k, "f", 3, kind);
        Reg<uint32_t> next(k, "next", 1);
        Reg<uint32_t> tick(k, "tick", 0);
        std::optional<uint32_t> peeked;
        uint32_t got = 0;
        k.rule("prod", [&] {
             f.enq(next.read());
             next.write(next.read() + 1);
         }).uses({&f.enqM});
        Rule &look = k.rule("look", [&] {
                          peeked = f.peekFirst();
                          got = f.first();
                      }).uses({&f.firstM});
        k.rule("drain", [&] {
             tick.write(tick.read() + 1);
             if (tick.read() % 3 != 0)
                 f.deq();
         }).uses({&f.deqM});
        k.elaborate();

        uint32_t fired = 0, empty = 0;
        for (int c = 0; c < 60; c++) {
            peeked.reset();
            got = 0;
            k.cycle();
            if (kind == FifoKind::Cf && c == 0) {
                // prod enqueued into the empty fifo before look ran,
                // but both calls see the start-of-cycle (empty) view.
                EXPECT_EQ(f.size(), 1u);
                EXPECT_EQ(look.lastOutcome(), Rule::Outcome::GuardFalse);
            }
            if (look.lastOutcome() == Rule::Outcome::Fired) {
                ASSERT_TRUE(peeked.has_value()) << "cycle " << c;
                EXPECT_EQ(*peeked, got) << "cycle " << c;
                fired++;
            } else if (look.lastOutcome() == Rule::Outcome::GuardFalse) {
                EXPECT_FALSE(peeked.has_value()) << "cycle " << c;
                empty++;
            }
        }
        EXPECT_GT(fired, 20u);
        if (kind != FifoKind::Bypass) { // look sees cycle 0's empty fifo
            EXPECT_GE(empty, 1u);
        }
    }
}

/** Randomized FIFO-vs-std::deque model check, one per kind. */
class FifoModelTest : public ::testing::TestWithParam<FifoKind>
{
};

TEST_P(FifoModelTest, MatchesReferenceModel)
{
    Kernel k;
    Fifo<uint64_t> f(k, "f", 5, GetParam());
    k.elaborate();
    std::deque<uint64_t> model;
    std::mt19937_64 rng(12345);
    uint64_t seq = 0;
    for (int step = 0; step < 2000; step++) {
        if (rng() & 1) {
            bool ok = k.runAtomically([&] { f.enq(seq); });
            EXPECT_EQ(ok, model.size() < 5);
            if (ok) {
                model.push_back(seq);
                seq++;
            }
        } else {
            uint64_t got = ~0ull;
            bool ok = k.runAtomically([&] { got = f.deq(); });
            EXPECT_EQ(ok, !model.empty());
            if (ok) {
                EXPECT_EQ(got, model.front());
                model.pop_front();
            }
        }
        EXPECT_EQ(f.size(), model.size());
        // One op per cycle: methods may be called once per cycle.
        k.cycle();
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FifoModelTest,
                         ::testing::Values(FifoKind::Pipeline,
                                           FifoKind::Bypass, FifoKind::Cf),
                         [](const auto &info) {
                             switch (info.param) {
                               case FifoKind::Pipeline:
                                 return "Pipeline";
                               case FifoKind::Bypass:
                                 return "Bypass";
                               default:
                                 return "Cf";
                             }
                         });

// ------------------------------------------------ high-throughput GCD

/** Paper Fig. 2 GCD, minimal re-statement for this test file. */
class Gcd : public Module
{
  public:
    Gcd(Kernel &k, const std::string &name)
        : Module(k, name),
          startM(method("start")), getResultM(method("getResult")),
          x_(k, name + ".x", 0u), y_(k, name + ".y", 0u),
          busy_(k, name + ".busy", false)
    {
        conflictPair(startM, getResultM);
        kernel().rule(name + ".doGCD", [this] {
            require(x_.read() != 0);
            if (x_.read() >= y_.read()) {
                x_.write(x_.read() - y_.read());
            } else {
                x_.write(y_.read());
                y_.write(x_.read());
            }
        }).when([this] { return x_.read() != 0; });
    }

    void
    start(uint32_t a, uint32_t b)
    {
        startM();
        require(!busy_.read());
        x_.write(a);
        y_.write(b == 0 ? a : b);
        busy_.write(true);
    }

    uint32_t
    getResult()
    {
        getResultM();
        require(busy_.read() && x_.read() == 0);
        busy_.write(false);
        return y_.read();
    }

    Method &startM, &getResultM;

  private:
    Reg<uint32_t> x_, y_;
    Reg<bool> busy_;
};

/** Paper Fig. 4: two GCDs behind one interface, round-robin. */
class TwoGcd : public Module
{
  public:
    TwoGcd(Kernel &k, const std::string &name)
        : Module(k, name),
          startM(method("start")), getResultM(method("getResult")),
          g1_(k, name + ".g1"), g2_(k, name + ".g2"),
          inTurn_(k, name + ".inTurn", true),
          outTurn_(k, name + ".outTurn", true)
    {
        cf(startM, getResultM); // distinct sub-GCDs: no conflict
        startM.subcalls({&g1_.startM, &g2_.startM});
        getResultM.subcalls({&g1_.getResultM, &g2_.getResultM});
    }

    void
    start(uint32_t a, uint32_t b)
    {
        startM();
        if (inTurn_.read())
            g1_.start(a, b);
        else
            g2_.start(a, b);
        inTurn_.write(!inTurn_.read());
    }

    uint32_t
    getResult()
    {
        getResultM();
        uint32_t y = outTurn_.read() ? g1_.getResult() : g2_.getResult();
        outTurn_.write(!outTurn_.read());
        return y;
    }

    Method &startM, &getResultM;

  private:
    Gcd g1_, g2_;
    Reg<bool> inTurn_, outTurn_;
};

/**
 * Stream GCD requests through a module and count the cycles needed;
 * the two-unit version should approach twice the throughput, without
 * any change to the interface (paper Section III-B).
 */
template <typename G>
uint64_t
streamGcdCycles(uint32_t jobs)
{
    Kernel k;
    G g(k, "g");
    Reg<uint32_t> started(k, "started", 0);
    Reg<uint32_t> done(k, "done", 0);
    std::vector<uint32_t> results;
    Rule &feed = k.rule("feed", [&] {
        require(started.read() < jobs);
        g.start(1071 + started.read() * 3, 462);
        started.write(started.read() + 1);
    });
    feed.uses({&g.startM});
    Rule &drain = k.rule("drain", [&] {
        results.push_back(g.getResult());
        done.write(done.read() + 1);
    });
    drain.uses({&g.getResultM});
    k.elaborate();
    EXPECT_TRUE(k.runUntil([&] { return done.read() == jobs; }, 1000000));
    EXPECT_EQ(results.size(), jobs);
    for (uint32_t i = 0; i < jobs; i++) {
        uint32_t a = 1071 + i * 3, b = 462;
        while (b) {
            uint32_t t = a % b;
            a = b;
            b = t;
        }
        EXPECT_EQ(results[i], a) << "job " << i;
    }
    return k.cycleCount();
}

TEST(Gcd, TwoUnitVersionNearlyDoublesThroughput)
{
    uint64_t oneUnit = streamGcdCycles<Gcd>(64);
    uint64_t twoUnit = streamGcdCycles<TwoGcd>(64);
    // Round-robin across two units should cut the streaming time
    // substantially (paper: "up to twice the throughput").
    EXPECT_LT(twoUnit * 10, oneUnit * 7)
        << "two-unit GCD should be well under 70% of one-unit cycles";
}

} // namespace
