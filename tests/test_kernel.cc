/**
 * @file
 * Unit tests for the CMD kernel: guarded methods, rule atomicity,
 * conflict-matrix enforcement, scheduling, snapshots, and the paper's
 * GCD example (Section III).
 */
#include <gtest/gtest.h>

#include "core/cmd.hh"

using namespace cmd;

namespace {

/** Expect @p body to raise a KernelFault whose message mentions @p what. */
template <typename Fn>
void
expectFault(Fn &&body, FaultKind kind, const char *what)
{
    try {
        body();
        FAIL() << "expected KernelFault mentioning '" << what << "'";
    } catch (const KernelFault &f) {
        EXPECT_EQ(f.kind(), kind) << f.describe();
        EXPECT_NE(f.message().find(what), std::string::npos)
            << f.describe();
    }
}

/** The paper's mkGCD module (Fig. 2), expressed in the framework. */
class Gcd : public Module
{
  public:
    Gcd(Kernel &k, const std::string &name)
        : Module(k, name),
          startM(method("start")), getResultM(method("getResult")),
          x_(k, name + ".x", 0u), y_(k, name + ".y", 0u),
          busy_(k, name + ".busy", false)
    {
        // start and getResult both update busy: they conflict, as the
        // paper notes the BSV compiler would derive.
        conflictPair(startM, getResultM);
        doGcd_ = &kernel().rule(name + ".doGCD", [this] { doGcd(); });
        doGcd_->when([this] { return x_.read() != 0; });
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

    bool resultReady() const { return busy_.read() && x_.read() == 0; }
    bool idle() const { return !busy_.read(); }

    Method &startM, &getResultM;

  private:
    void
    doGcd()
    {
        require(x_.read() != 0);
        if (x_.read() >= y_.read()) {
            x_.write(x_.read() - y_.read());
        } else {
            // The classic register swap: reads see rule-start values.
            x_.write(y_.read());
            y_.write(x_.read());
        }
    }

    Reg<uint32_t> x_, y_;
    Reg<bool> busy_;
    Rule *doGcd_;
};

uint32_t
refGcd(uint32_t a, uint32_t b)
{
    while (b != 0) {
        uint32_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

TEST(Gcd, ComputesGcdLatencyInsensitively)
{
    Kernel k;
    Gcd gcd(k, "gcd");
    k.elaborate();

    uint32_t result = 0;
    for (auto [a, b] : std::vector<std::pair<uint32_t, uint32_t>>{
             {105, 45}, {7, 13}, {1, 1}, {10000, 8}, {17, 0}}) {
        k.cycle(); // new cycle: start may not share a cycle with getResult
        ASSERT_TRUE(k.runAtomically([&] { gcd.start(a, b); }));
        ASSERT_TRUE(k.runUntil([&] { return gcd.resultReady(); }, 100000));
        ASSERT_TRUE(k.runAtomically([&] { result = gcd.getResult(); }));
        EXPECT_EQ(result, refGcd(a, b == 0 ? a : b)) << a << "," << b;
        EXPECT_TRUE(gcd.idle());
    }
}

TEST(Gcd, StartBlockedWhileBusy)
{
    Kernel k;
    Gcd gcd(k, "gcd");
    k.elaborate();

    ASSERT_TRUE(k.runAtomically([&] { gcd.start(48, 36); }));
    // Guard of start is false while busy: the action must not commit.
    EXPECT_FALSE(k.runAtomically([&] { gcd.start(5, 10); }));
    ASSERT_TRUE(k.runUntil([&] { return gcd.resultReady(); }, 1000));
    uint32_t r = 0;
    ASSERT_TRUE(k.runAtomically([&] { r = gcd.getResult(); }));
    EXPECT_EQ(r, 12u); // still the first request's answer
}

TEST(Gcd, StartAndGetResultConflictInOneCycle)
{
    Kernel k;
    Gcd gcd(k, "gcd");

    Reg<uint32_t> got(k, "got", 0);
    Reg<uint32_t> fedCount(k, "fed", 0);
    // Consumer first, producer second; they call conflicting methods
    // so only one of them may fire per cycle.
    Rule &consume = k.rule("consume", [&] {
        got.write(gcd.getResult());
    });
    consume.uses({&gcd.getResultM});
    Rule &feed = k.rule("feed", [&] {
        gcd.start(36, 48);
        fedCount.write(fedCount.read() + 1);
    });
    feed.uses({&gcd.startM});
    k.elaborate();

    EXPECT_EQ(k.ruleRelation(consume, feed), Conflict::C);

    k.runUntil([&] { return got.read() != 0; }, 1000);
    EXPECT_EQ(got.read(), 12u);
    // In the cycle where consume fired, feed must have been CM-blocked
    // at least once across the run (they were never in one cycle).
    EXPECT_GE(feed.cmAbortCount() + feed.guardAbortCount(), 1u);
}

// ---------------------------------------------------------------- atomicity

TEST(Atomicity, AbortedRuleLeavesNoTrace)
{
    Kernel k;
    Reg<int> a(k, "a", 1);
    Reg<int> b(k, "b", 2);
    Rule &r = k.rule("failLate", [&] {
        a.write(100);
        b.write(200);
        require(false); // guard fails after both writes
    });
    (void)r;
    k.elaborate();
    k.cycle();
    EXPECT_EQ(a.read(), 1);
    EXPECT_EQ(b.read(), 2);
    EXPECT_EQ(r.guardAbortCount(), 1u);
    EXPECT_EQ(r.firedCount(), 0u);
}

TEST(Stats, AbortedRuleCountsNothing)
{
    // Stats follow the transaction: an update inside an aborted body
    // (a GuardFail throw or a retry()) is dropped with its writes, one
    // inside a fired body lands at commit, one outside applies at once.
    Kernel k;
    StatGroup g;
    Stat &n = g.counter("n");
    Histogram &h = g.histogram("h", 0, 8, 4);
    Reg<int> mode(k, "mode", 0);
    Rule &r = k.rule("count", [&] {
        n.inc(5);
        h.sample(3);
        if (mode.read() == 0)
            require(false);
        if (mode.read() == 1) {
            retry();
            return;
        }
    });
    k.elaborate();

    k.cycle(); // throws
    EXPECT_EQ(n.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(r.guardAbortCount(), 1u);

    k.runAtomically([&] { mode.write(1); });
    k.cycle(); // retries
    EXPECT_EQ(n.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(r.guardAbortCount(), 2u);

    // An aborted atomic action drops its updates too.
    EXPECT_FALSE(k.runAtomically([&] {
        n.inc();
        h.sample(1);
        retry();
    }));
    EXPECT_FALSE(k.runAtomically([&] {
        n.inc();
        require(false);
    }));
    EXPECT_EQ(n.value(), 0u);
    EXPECT_EQ(h.count(), 0u);

    k.runAtomically([&] { mode.write(2); });
    k.cycle(); // fires: the staged updates commit
    EXPECT_EQ(r.firedCount(), 1u);
    EXPECT_EQ(n.value(), 5u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 3u);

    n.inc(); // outside any transaction: at once
    h.sample(7);
    EXPECT_EQ(n.value(), 6u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), 7u);
}

TEST(Atomicity, SwapSemantics)
{
    Kernel k;
    Reg<int> x(k, "x", 7);
    Reg<int> y(k, "y", 9);
    k.rule("swap", [&] {
        x.write(y.read());
        y.write(x.read());
    });
    k.elaborate();
    k.cycle();
    EXPECT_EQ(x.read(), 9);
    EXPECT_EQ(y.read(), 7);
}

TEST(Atomicity, DoubleWriteIsDesignError)
{
    Kernel k;
    Reg<int> x(k, "x", 0);
    k.rule("dw", [&] {
        x.write(1);
        x.write(2);
    });
    k.elaborate();
    expectFault([&] { k.cycle(); }, FaultKind::DesignError, "double write");
}

TEST(Atomicity, LaterRuleSeesEarlierCommit)
{
    Kernel k;
    Reg<int> x(k, "x", 0);
    Reg<int> seen(k, "seen", -1);
    k.rule("writer", [&] { x.write(42); });
    k.rule("reader", [&] { seen.write(x.read()); });
    k.elaborate();
    k.cycle();
    // Registration order is the schedule order here (no CM edges), so
    // reader observes writer's committed value within the same cycle.
    EXPECT_EQ(seen.read(), 42);
}

TEST(Atomicity, StableReadSeesCycleStart)
{
    Kernel k;
    Reg<int> x(k, "x", 5);
    Reg<int> stable(k, "stable", -1);
    Reg<int> cur(k, "cur", -1);
    k.rule("writer", [&] { x.write(42); });
    k.rule("reader", [&] {
        stable.write(x.readStable());
        cur.write(x.read());
    });
    k.elaborate();
    k.cycle();
    EXPECT_EQ(stable.read(), 5);
    EXPECT_EQ(cur.read(), 42);
    k.cycle();
    EXPECT_EQ(stable.read(), 42);
}

// --------------------------------------------------------- CM and schedule

/** Two-method counter used to exercise CM declarations. */
class Counter : public Module
{
  public:
    Counter(Kernel &k, const std::string &name, Conflict rel)
        : Module(k, name), incM(method("inc")), decM(method("dec")),
          v_(k, name + ".v", 0)
    {
        setCm(incM, decM, rel);
    }

    void
    inc()
    {
        incM();
        v_.write(v_.read() + 1);
    }

    void
    dec()
    {
        decM();
        v_.write(v_.read() - 1);
    }

    int value() const { return v_.read(); }

    /** Let inc be called by any number of rules per cycle. */
    void selfCfInc() { selfCf(incM); }

    Method &incM, &decM;

  private:
    Reg<int> v_;
};

TEST(Cm, ConflictingMethodsNeverShareACycle)
{
    Kernel k;
    Counter c(k, "c", Conflict::C);
    Rule &r1 = k.rule("r1", [&] { c.inc(); });
    r1.uses({&c.incM});
    Rule &r2 = k.rule("r2", [&] { c.dec(); });
    r2.uses({&c.decM});
    k.elaborate();
    EXPECT_EQ(k.ruleRelation(r1, r2), Conflict::C);
    k.cycle();
    // Only the first scheduled rule fires; the second is CM-blocked.
    EXPECT_EQ(c.value(), 1);
    EXPECT_EQ(r1.firedCount(), 1u);
    EXPECT_EQ(r2.cmAbortCount(), 1u);
}

TEST(Cm, OrderedMethodsShareACycleInCmOrder)
{
    Kernel k;
    Counter c(k, "c", Conflict::LT); // inc < dec
    // Register them in the *wrong* order: dec first. The scheduler
    // must still run inc before dec (topological order of "<").
    Reg<int> seenByDec(k, "seen", -1);
    Rule &rd = k.rule("rDec", [&] {
        c.dec();
        seenByDec.write(c.value());
    });
    rd.uses({&c.decM});
    Rule &ri = k.rule("rInc", [&] { c.inc(); });
    ri.uses({&c.incM});
    k.elaborate();
    EXPECT_EQ(k.ruleRelation(ri, rd), Conflict::LT);
    ASSERT_EQ(k.scheduleOrder().size(), 2u);
    EXPECT_EQ(k.scheduleOrder()[0], &ri);
    EXPECT_EQ(k.scheduleOrder()[1], &rd);
    k.cycle();
    EXPECT_EQ(c.value(), 0);      // both fired
    EXPECT_EQ(seenByDec.read(), 1); // dec observed inc's effect
    EXPECT_EQ(ri.firedCount(), 1u);
    EXPECT_EQ(rd.firedCount(), 1u);
}

TEST(Cm, ConflictFreeMethodsBothFire)
{
    Kernel k;
    Counter c(k, "c", Conflict::CF);
    Rule &r1 = k.rule("r1", [&] { c.inc(); });
    r1.uses({&c.incM});
    Rule &r2 = k.rule("r2", [&] { c.dec(); });
    r2.uses({&c.decM});
    k.elaborate();
    EXPECT_EQ(k.ruleRelation(r1, r2), Conflict::CF);
    k.cycle();
    EXPECT_EQ(c.value(), 0);
    EXPECT_EQ(r1.firedCount(), 1u);
    EXPECT_EQ(r2.firedCount(), 1u);
}

TEST(Cm, SameMethodTwicePerCycleIsConflictByDefault)
{
    Kernel k;
    Counter c(k, "c", Conflict::CF);
    Rule &r1 = k.rule("r1", [&] { c.inc(); });
    r1.uses({&c.incM});
    Rule &r2 = k.rule("r2", [&] { c.inc(); });
    r2.uses({&c.incM});
    k.elaborate();
    EXPECT_EQ(k.ruleRelation(r1, r2), Conflict::C);
    k.cycle();
    EXPECT_EQ(c.value(), 1);
}

TEST(Cm, CombinationalCycleDetected)
{
    // A two-rule "<" cycle collapses to C (mixed orderings conflict),
    // so a genuine combinational cycle needs three rules:
    // r1 < r2 (via c1), r2 < r3 (via c2), r3 < r1 (via c3).
    Kernel k;
    Counter c1(k, "c1", Conflict::LT); // inc < dec
    Counter c2(k, "c2", Conflict::LT);
    Counter c3(k, "c3", Conflict::LT);
    Rule &r1 = k.rule("r1", [&] {
        c1.inc();
        c3.dec();
    });
    r1.uses({&c1.incM, &c3.decM});
    Rule &r2 = k.rule("r2", [&] {
        c1.dec();
        c2.inc();
    });
    r2.uses({&c1.decM, &c2.incM});
    Rule &r3 = k.rule("r3", [&] {
        c2.dec();
        c3.inc();
    });
    r3.uses({&c2.decM, &c3.incM});
    EXPECT_THROW(k.elaborate(), ElaborationError);
}

TEST(Cm, MixedOrderingWithinOnePairIsConflict)
{
    Kernel k;
    Counter c1(k, "c1", Conflict::LT);
    Counter c2(k, "c2", Conflict::GT);
    Rule &r1 = k.rule("r1", [&] {
        c1.inc();
        c2.inc();
    });
    r1.uses({&c1.incM, &c2.incM});
    Rule &r2 = k.rule("r2", [&] {
        c1.dec();
        c2.dec();
    });
    r2.uses({&c1.decM, &c2.decM});
    k.elaborate();
    // c1 demands r1<r2, c2 demands r2<r1: the pair conflicts.
    EXPECT_EQ(k.ruleRelation(r1, r2), Conflict::C);
}

/** A module whose CM the test declares from outside. */
class Decl : public Module
{
  public:
    Decl(Kernel &k, Conflict defaultCm) : Module(k, "decl", defaultCm) {}
    using Module::method;
    using Module::setCm;
};

/** A rule that calls (and declares) only @p m. */
Rule &
callRule(Kernel &k, const std::string &name, Method &m)
{
    Rule &r = k.rule(name, [&m] { m(); });
    r.uses({&m});
    return r;
}

TEST(Cm, LtOrGtDefaultIsDesignError)
{
    // An ordered default would declare both a<b and b<a for every pair,
    // so the schedule would follow registration order.
    for (Conflict rel : {Conflict::LT, Conflict::GT}) {
        SCOPED_TRACE(toString(rel));
        Kernel k;
        expectFault([&] { Decl d(k, rel); }, FaultKind::DesignError,
                    "default CM");
    }
}

TEST(Cm, OrderedSelfEntryIsDesignError)
{
    for (Conflict rel : {Conflict::LT, Conflict::GT}) {
        SCOPED_TRACE(toString(rel));
        Kernel k;
        Decl d(k, Conflict::C);
        Method &a = d.method("a");
        expectFault([&] { d.setCm(a, a, rel); }, FaultKind::DesignError,
                    "self CM entry");
    }
}

TEST(Cm, LaterDeclarationWins)
{
    {
        SCOPED_TRACE("a later setCm on the same pair overrides");
        Kernel k;
        Decl d(k, Conflict::C);
        Method &a = d.method("a"), &b = d.method("b");
        d.setCm(a, b, Conflict::LT);
        d.setCm(b, a, Conflict::LT); // now b < a
        Rule &ra = callRule(k, "ra", a);
        Rule &rb = callRule(k, "rb", b);
        k.elaborate();
        EXPECT_EQ(k.ruleRelation(rb, ra), Conflict::LT);
        EXPECT_EQ(k.ruleRelation(ra, rb), Conflict::GT);
        EXPECT_EQ(k.scheduleOrder(), (std::vector<Rule *>{&rb, &ra}));
    }
    {
        SCOPED_TRACE("setCm overrides the default");
        Kernel k;
        Decl d(k, Conflict::CF);
        Method &a = d.method("a"), &b = d.method("b"), &c = d.method("c");
        d.setCm(b, a, Conflict::LT);
        Rule &ra = callRule(k, "ra", a);
        Rule &rb = callRule(k, "rb", b);
        Rule &rc = callRule(k, "rc", c);
        k.elaborate();
        EXPECT_EQ(k.ruleRelation(ra, rb), Conflict::GT);
        EXPECT_EQ(k.ruleRelation(ra, rc), Conflict::CF);
        EXPECT_EQ(k.ruleRelation(rb, rc), Conflict::CF);
        EXPECT_EQ(k.scheduleOrder(),
                  (std::vector<Rule *>{&rb, &rc, &ra}));
    }
    {
        SCOPED_TRACE("a later method gets defaults, the pair stays");
        Kernel k;
        Decl d(k, Conflict::C);
        Method &a = d.method("a"), &b = d.method("b");
        d.setCm(b, a, Conflict::LT);
        Method &c = d.method("c");
        Rule &ra = callRule(k, "ra", a);
        Rule &rb = callRule(k, "rb", b);
        Rule &rc = callRule(k, "rc", c);
        Rule &rc2 = callRule(k, "rc2", c);
        k.elaborate();
        EXPECT_EQ(k.ruleRelation(rb, ra), Conflict::LT);
        EXPECT_EQ(k.ruleRelation(ra, rc), Conflict::C);
        EXPECT_EQ(k.ruleRelation(rb, rc), Conflict::C);
        EXPECT_EQ(k.ruleRelation(rc, rc2), Conflict::C);
        EXPECT_EQ(k.scheduleOrder(),
                  (std::vector<Rule *>{&rb, &rc, &rc2, &ra}));
    }
}

// The declaration checks hold under every scheduler kind: no
// scheduler may trade enforcement for speed.
constexpr SchedulerKind kCheckedKinds[] = {SchedulerKind::Exhaustive,
                                           SchedulerKind::EventDriven,
                                           SchedulerKind::Parallel};

/** A wrapper module whose method internally calls inner.inc. */
class Wrapper : public Module
{
  public:
    Wrapper(Kernel &k, Counter &inner)
        : Module(k, "wrap"), inner_(inner), pokeM(method("poke"))
    {
        pokeM.subcalls({&inner.incM});
    }

    void
    poke()
    {
        pokeM();
        inner_.inc();
    }

    Counter &inner_;
    Method &pokeM;
};

TEST(Cm, UndeclaredMethodCallIsDesignError)
{
    for (SchedulerKind kind : kCheckedKinds) {
        SCOPED_TRACE(toString(kind));
        {
            Kernel k;
            k.setScheduler(kind);
            Counter c(k, "c", Conflict::CF);
            k.rule("sneaky", [&] { c.inc(); }); // no uses() declaration
            k.elaborate();
            expectFault([&] { k.cycle(); }, FaultKind::DesignError,
                        "did not declare");
        }
        {
            // The check asks whether the calling rule declared the
            // method, not whether some rule did: "a" declares c.inc
            // and fires, then "b" calls it undeclared and faults.
            Kernel k;
            k.setScheduler(kind);
            Counter c(k, "c", Conflict::CF);
            c.selfCfInc(); // b must reach the check, not a CM block
            Rule &a = k.rule("a", [&] { c.inc(); });
            a.uses({&c.incM});
            k.rule("b", [&] { c.inc(); });
            k.elaborate();
            expectFault([&] { k.cycle(); }, FaultKind::DesignError,
                        "did not declare");
            EXPECT_EQ(a.firedCount(), 1u);
            EXPECT_EQ(c.value(), 1); // a committed, b rolled back
        }
        {
            // A declared method's subcalls are in the closure: the
            // rule may call inner.inc directly.
            Kernel k;
            k.setScheduler(kind);
            Counter inner(k, "inner", Conflict::C);
            Wrapper w(k, inner);
            Rule &r = k.rule("direct", [&] { inner.inc(); });
            r.uses({&w.pokeM});
            k.elaborate();
            k.cycle();
            EXPECT_EQ(r.firedCount(), 1u);
            EXPECT_EQ(inner.value(), 1);
        }
    }
}

TEST(Cm, IntraRuleConflictIsDesignError)
{
    for (SchedulerKind kind : kCheckedKinds) {
        SCOPED_TRACE(toString(kind));
        Kernel k;
        k.setScheduler(kind);
        Counter c(k, "c", Conflict::C);
        Rule &r = k.rule("both", [&] {
            c.inc();
            c.dec();
        });
        r.uses({&c.incM, &c.decM});
        k.elaborate();
        expectFault([&] { k.cycle(); }, FaultKind::DesignError,
                    "conflicting methods");
    }
}

TEST(Cm, SubcallsPropagateIntoRuleRelation)
{
    Kernel k;
    Counter inner(k, "inner", Conflict::C);
    Wrapper w(k, inner);

    Rule &r1 = k.rule("viaWrapper", [&] { w.poke(); });
    r1.uses({&w.pokeM});
    Rule &r2 = k.rule("direct", [&] { inner.dec(); });
    r2.uses({&inner.decM});
    k.elaborate();
    // The hidden inner.inc C inner.dec conflict must surface.
    EXPECT_EQ(k.ruleRelation(r1, r2), Conflict::C);
    k.cycle();
    EXPECT_EQ(inner.value(), 1); // only r1 fired
}

// ------------------------------------------------------------- Ehr

TEST(Ehr, IntraRuleForwardingByPort)
{
    Kernel k;
    Ehr<int> e(k, "e", 3, 10);
    Reg<int> seen0(k, "s0", -1), seen1(k, "s1", -1), seen2(k, "s2", -1);
    k.rule("r", [&] {
        seen0.write(e.read(0)); // before any port write: committed value
        e.write(0, 20);
        seen1.write(e.read(1)); // sees port-0 write
        e.write(1, 30);
        seen2.write(e.read(2)); // sees port-1 write
    });
    k.elaborate();
    k.cycle();
    EXPECT_EQ(seen0.read(), 10);
    EXPECT_EQ(seen1.read(), 20);
    EXPECT_EQ(seen2.read(), 30);
    EXPECT_EQ(e.read(0), 30); // highest port wins at commit
}

TEST(Ehr, AbortDiscardsAllPorts)
{
    Kernel k;
    Ehr<int> e(k, "e", 2, 1);
    k.rule("r", [&] {
        e.write(0, 99);
        require(false);
    });
    k.elaborate();
    k.cycle();
    EXPECT_EQ(e.read(0), 1);
}

// ------------------------------------------------------------ snapshots

TEST(Snapshot, RoundTripsAllState)
{
    Kernel k;
    Reg<uint64_t> a(k, "a", 5);
    RegArray<uint32_t> arr(k, "arr", 8, 3);
    Ehr<int> e(k, "e", 2, -4);
    k.rule("mutate", [&] {
        a.write(a.read() + 1);
        arr.write(2, arr.read(2) + 10);
        e.write(0, e.read(0) - 1);
    });
    k.elaborate();
    k.run(3);
    auto snap = k.snapshot();
    uint64_t cyc = k.cycleCount();
    k.run(5);
    EXPECT_NE(a.read(), 8u);
    k.restore(snap);
    EXPECT_EQ(k.cycleCount(), cyc);
    EXPECT_EQ(a.read(), 8u);
    EXPECT_EQ(arr.read(2), 33u);
    EXPECT_EQ(e.read(0), -7);
}

// -------------------------------------------------------------- RegArray

TEST(RegArray, StableReadTracksOverwrites)
{
    Kernel k;
    RegArray<int> arr(k, "arr", 4, 0);
    Reg<int> stable(k, "st", -1);
    k.rule("w", [&] { arr.write(1, 55); });
    k.rule("r", [&] { stable.write(arr.readStable(1)); });
    k.elaborate();
    k.cycle();
    EXPECT_EQ(arr.read(1), 55);
    EXPECT_EQ(stable.read(), 0);
    k.cycle();
    EXPECT_EQ(stable.read(), 55);
}

TEST(RegArray, OutOfRangeFaults)
{
    Kernel k;
    RegArray<int> arr(k, "arr", 4, 0);
    k.rule("r", [&] { arr.write(9, 1); });
    k.elaborate();
    expectFault([&] { k.cycle(); }, FaultKind::DesignError, "out of range");
}

// -------------------------------------------------- one-rule-at-a-time

/**
 * Property: a cycle's fired-rule sequence, replayed one rule per
 * "cycle" from the pre-cycle state, reaches the same post-cycle state.
 * This is the paper's core semantic claim about CMD schedules.
 */
TEST(Semantics, FiredSequenceEqualsSequentialReplay)
{
    Kernel k;
    Counter a(k, "a", Conflict::LT);
    Counter b(k, "b", Conflict::CF);
    Reg<int> x(k, "x", 0);

    Rule &r1 = k.rule("r1", [&] {
        a.inc();
        x.write(x.read() + a.value());
    });
    r1.uses({&a.incM});
    Rule &r2 = k.rule("r2", [&] {
        require(x.read() % 3 != 2);
        a.dec();
        b.inc();
    });
    r2.uses({&a.decM, &b.incM});
    Rule &r3 = k.rule("r3", [&] {
        require(b.value() < 5);
        b.dec();
    });
    r3.uses({&b.decM});
    k.elaborate();

    for (int trial = 0; trial < 50; trial++) {
        auto pre = k.snapshot();
        k.cycle();
        auto post = k.snapshot();

        // Collect which rules fired, in schedule order.
        std::vector<Rule *> fired;
        for (Rule *r : k.scheduleOrder()) {
            if (r->lastOutcome() == Rule::Outcome::Fired)
                fired.push_back(r);
        }

        // Replay one-by-one from the pre-state.
        k.restore(pre);
        for (Rule *r : fired) {
            bool ok = false;
            if (r == &r1) {
                ok = k.runAtomically([&] {
                    a.inc();
                    x.write(x.read() + a.value());
                });
            } else if (r == &r2) {
                ok = k.runAtomically([&] {
                    require(x.read() % 3 != 2);
                    a.dec();
                    b.inc();
                });
            } else {
                ok = k.runAtomically([&] {
                    require(b.value() < 5);
                    b.dec();
                });
            }
            EXPECT_TRUE(ok) << "replayed rule must fire";
        }
        // Compare everything except the cycle counter.
        auto replayed = k.snapshot();
        ASSERT_EQ(replayed.size(), post.size());
        EXPECT_TRUE(std::equal(replayed.begin() + 8, replayed.end(),
                               post.begin() + 8))
            << "trial " << trial;
        k.restore(post);
    }
}

TEST(Kernel, ProgressReportMentionsRules)
{
    Kernel k;
    Reg<int> x(k, "x", 0);
    k.rule("tick", [&] { x.write(x.read() + 1); });
    k.rule("never", [&] { require(false); });
    k.rule("later", [&] { retry(); });
    k.elaborate();
    k.run(2);
    KernelReport kr = k.report();
    std::string rep = kr.text();
    EXPECT_NE(rep.find("tick"), std::string::npos);
    EXPECT_NE(rep.find("never"), std::string::npos);
    EXPECT_NE(rep.find("guard-false"), std::string::npos);
    // Each rule line names how its guard aborts ended: by a throw or
    // by a retry(). The report-wide guardThrows counts throws only.
    EXPECT_NE(rep.find("never: last=guard-false fired=0 guardAborts=2 "
                       "cmAborts=0 guardThrows=2 retries=0"),
              std::string::npos)
        << rep;
    EXPECT_NE(rep.find("later: last=guard-false fired=0 guardAborts=2 "
                       "cmAborts=0 guardThrows=0 retries=2"),
              std::string::npos)
        << rep;
    EXPECT_NE(rep.find("guardThrows=2 retries=2\n"), std::string::npos)
        << rep;
    EXPECT_EQ(kr.guardThrows, 2u);
    EXPECT_EQ(kr.retries, 2u);

    // A one-domain Parallel kernel runs on the main context, like
    // EventDriven: no pool ran, so the report carries no parallel
    // extras (a "domain 0" line would claim 0 fires).
    Kernel p;
    Reg<int> y(p, "y", 0);
    p.rule("solo", [&] { y.write(y.read() + 1); });
    p.setScheduler(SchedulerKind::Parallel);
    p.elaborate();
    p.run(5);
    ASSERT_FALSE(p.parallelActive());
    KernelReport pr = p.report();
    EXPECT_EQ(pr.threads, 0u);
    EXPECT_EQ(pr.parallelCycles, 0u);
    EXPECT_EQ(pr.syncEpochs, 0u);
    EXPECT_TRUE(pr.domainLines.empty());
    std::string ptext = pr.text();
    EXPECT_NE(ptext.find("solo: last=fired fired=5"), std::string::npos)
        << ptext;
    EXPECT_EQ(ptext.find("parallel:"), std::string::npos) << ptext;
    EXPECT_EQ(ptext.find("domain 0:"), std::string::npos) << ptext;
}

} // namespace
