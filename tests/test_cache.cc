/**
 * @file
 * Memory-system tests: L1 hit/miss behavior, MSI coherence across
 * cores (invalidations, M->S downgrades with data, write serialization),
 * LR/SC and AMO semantics at the cache, eviction hooks, the uncached
 * walker port, and a randomized multi-core coherence storm.
 */
#include <gtest/gtest.h>

#include <random>

#include "cache/hierarchy.hh"

using namespace riscy;
using namespace cmd;

namespace {

struct Sys {
    Kernel k;
    PhysMem mem;
    MemHierarchy hier;

    explicit Sys(uint32_t cores, MemHierarchyConfig cfg = {})
        : hier(k,
               "sys",
               mem,
               [&] {
                   cfg.cores = cores;
                   return cfg;
               }())
    {
        k.elaborate();
    }

    /** Blocking load of a line through core i's D$. */
    Line
    load(uint32_t i, Addr addr, uint64_t maxCycles = 100000)
    {
        L1Cache &c = hier.dcache(i);
        EXPECT_TRUE(k.runAtomically([&] { c.reqLd(1, addr); }));
        EXPECT_TRUE(
            k.runUntil([&] { return c.respLdReady(); }, maxCycles));
        Line out;
        EXPECT_TRUE(k.runAtomically([&] { out = c.respLd().line; }));
        k.cycle();
        return out;
    }

    /** Blocking store through core i's D$. */
    void
    store(uint32_t i, Addr addr, uint64_t value, uint8_t bytes = 8,
          uint64_t maxCycles = 100000)
    {
        L1Cache &c = hier.dcache(i);
        EXPECT_TRUE(k.runAtomically([&] { c.reqSt(2, addr); }));
        EXPECT_TRUE(
            k.runUntil([&] { return c.respStReady(); }, maxCycles));
        EXPECT_TRUE(k.runAtomically([&] {
            c.respSt();
            c.writeData(addr, value, bytes);
        }));
        k.cycle();
    }

    /** Blocking atomic through core i's D$. */
    uint64_t
    atomic(uint32_t i, Addr addr, isa::Op op, uint64_t operand,
           uint8_t bytes = 8, uint64_t maxCycles = 100000)
    {
        L1Cache &c = hier.dcache(i);
        EXPECT_TRUE(k.runAtomically(
            [&] { c.reqAtomic(3, addr, op, operand, bytes); }));
        EXPECT_TRUE(
            k.runUntil([&] { return c.respAtomicReady(); }, maxCycles));
        uint64_t v = 0;
        EXPECT_TRUE(k.runAtomically([&] { v = c.respAtomic().value; }));
        k.cycle();
        return v;
    }
};

constexpr Addr A = kDramBase + 0x4000;

TEST(Cache, MissFillThenHit)
{
    Sys s(1);
    s.mem.write(A, 0x1122334455667788ull, 8);
    uint64_t missBefore = s.hier.dcache(0).stats().get("ldMisses");
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 0x1122334455667788ull);
    EXPECT_EQ(s.hier.dcache(0).stats().get("ldMisses"), missBefore + 1);
    // Second access: hit, no new miss.
    l = s.load(0, A + 8);
    EXPECT_EQ(s.hier.dcache(0).stats().get("ldMisses"), missBefore + 1);
    EXPECT_EQ(s.hier.dcache(0).stats().get("ldHits"), 1u);
}

TEST(Cache, LoadLatencyIsRealistic)
{
    Sys s(1);
    uint64_t c0 = s.k.cycleCount();
    s.load(0, A);
    uint64_t missLat = s.k.cycleCount() - c0;
    // L1 miss -> L2 miss -> DRAM: should be > DRAM latency (120).
    EXPECT_GT(missLat, 120u);
    EXPECT_LT(missLat, 200u);
    c0 = s.k.cycleCount();
    s.load(0, A);
    uint64_t hitLat = s.k.cycleCount() - c0;
    EXPECT_LE(hitLat, 4u);
    // L2 hit from the other (I-side...) use a second line to measure
    // L2-hit-after-L1-evict later; here just sanity-check ordering.
    EXPECT_LT(hitLat, missLat);
}

TEST(Cache, StoreVisibleAfterL2WritebackPath)
{
    Sys s(1);
    s.store(0, A, 0xabcdefull);
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 0xabcdefull);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::M);
}

TEST(Cache, EvictionWritesBackDirtyData)
{
    MemHierarchyConfig cfg;
    cfg.l1d = {4, 2, 8, true}; // tiny: 4KB, 2-way, 32 sets
    Sys s(1, cfg);
    s.store(0, A, 77);
    // Touch enough lines in the same set to force the dirty victim out.
    uint32_t setSpan = 4 * 1024 / 64 / 2 * 64;
    s.load(0, A + setSpan);
    s.load(0, A + 2 * setSpan);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::I);
    EXPECT_GE(s.hier.dcache(0).stats().get("evictions"), 1u);
    // The dirty data now lives in L2; loading it again must return 77.
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 77u);
}

TEST(Cache, CoherentReadAfterRemoteWrite)
{
    Sys s(2);
    s.store(0, A, 42);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::M);
    Line l = s.load(1, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 42u);
    // Writer was downgraded to S (paper MSI), reader has S.
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::S);
    EXPECT_EQ(s.hier.dcache(1).probeState(A), Msi::S);
}

// Past 16 cores the L2 has more than 32 children (D + I per core): the
// holder here is child 32, core 16's D$. Exactly that child gets the
// downgrade, not child 32 mod 32 (the requester's own D$) as well.
TEST(Cache, DowngradeTargetsPast32Children)
{
    Sys s(17);
    s.store(16, A, 42);
    EXPECT_EQ(s.hier.dcache(16).probeState(A), Msi::M);
    uint64_t before = s.hier.l2().stats().get("downgrades");
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 42u);
    EXPECT_EQ(s.hier.l2().stats().get("downgrades"), before + 1);
    EXPECT_EQ(s.hier.dcache(16).probeState(A), Msi::S);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::S);
}

TEST(Cache, WriteInvalidatesSharers)
{
    Sys s(2);
    s.load(0, A);
    s.load(1, A);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::S);
    s.store(1, A, 99);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::I);
    EXPECT_EQ(s.hier.dcache(1).probeState(A), Msi::M);
    EXPECT_GE(s.hier.dcache(0).stats().get("invalidations"), 1u);
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 99u);
}

TEST(Cache, SingleWriterInvariantUnderPingPong)
{
    Sys s(2);
    for (int i = 0; i < 6; i++) {
        s.store(i % 2, A, i);
        bool m0 = s.hier.dcache(0).probeState(A) == Msi::M;
        bool m1 = s.hier.dcache(1).probeState(A) == Msi::M;
        EXPECT_FALSE(m0 && m1) << "two modified copies!";
        if (m0) {
            EXPECT_EQ(s.hier.dcache(1).probeState(A), Msi::I);
        }
        if (m1) {
            EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::I);
        }
    }
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 5u);
}

TEST(Cache, EvictHookFiresOnInvalidation)
{
    // Build by hand so the hook is installed before elaboration.
    Kernel k;
    PhysMem mem;
    MemHierarchyConfig cfg;
    cfg.cores = 2;
    MemHierarchy hier(k, "sys", mem, cfg);
    std::vector<Addr> evicted;
    hier.dcache(0).setEvictHook([&](Addr l) { evicted.push_back(l); }, {});
    k.elaborate();

    auto store = [&](uint32_t i, Addr addr, uint64_t v) {
        L1Cache &c = hier.dcache(i);
        ASSERT_TRUE(k.runAtomically([&] { c.reqSt(2, addr); }));
        ASSERT_TRUE(k.runUntil([&] { return c.respStReady(); }, 100000));
        ASSERT_TRUE(k.runAtomically([&] {
            c.respSt();
            c.writeData(addr, v, 8);
        }));
        k.cycle();
    };
    store(0, A, 1);
    EXPECT_TRUE(evicted.empty());
    store(1, A, 2); // invalidates core0's copy -> hook fires
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], lineAddr(A));
}

TEST(Cache, AmoFetchAddSequential)
{
    Sys s(1);
    s.mem.write(A, 100, 8);
    uint64_t old = s.atomic(0, A, isa::Op::AMOADD_D, 5);
    EXPECT_EQ(old, 100u);
    old = s.atomic(0, A, isa::Op::AMOADD_D, 5);
    EXPECT_EQ(old, 105u);
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 110u);
}

TEST(Cache, LrScSucceedsLocally)
{
    Sys s(1);
    s.mem.write(A, 7, 8);
    uint64_t v = s.atomic(0, A, isa::Op::LR_D, 0);
    EXPECT_EQ(v, 7u);
    uint64_t sc = s.atomic(0, A, isa::Op::SC_D, 123);
    EXPECT_EQ(sc, 0u); // success
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 123u);
}

TEST(Cache, ScFailsAfterRemoteWrite)
{
    Sys s(2);
    s.mem.write(A, 7, 8);
    s.atomic(0, A, isa::Op::LR_D, 0);
    s.store(1, A, 55); // invalidates core0's line + reservation
    uint64_t sc = s.atomic(0, A, isa::Op::SC_D, 123);
    EXPECT_EQ(sc, 1u); // failure
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 8), 55u);
}

TEST(Cache, AmoWFormSignExtends)
{
    Sys s(1);
    s.mem.write(A, 0x7fffffffull, 4);
    uint64_t old = s.atomic(0, A, isa::Op::AMOADD_W, 1, 4);
    EXPECT_EQ(old, 0x7fffffffull);
    Line l = s.load(0, A);
    EXPECT_EQ(l.read(lineOffset(A), 4), 0x80000000ull);
}

TEST(Cache, UncachedWalkerPortReadsThroughCoherence)
{
    Sys s(1);
    // Dirty the line in the D$, then read it through the walk port:
    // the L2 must recall the dirty data (downgrade M->S).
    s.store(0, A, 0x5150);
    UncachedPort &p = s.hier.walkPort(0);
    EXPECT_TRUE(s.k.runAtomically([&] { p.req.enq(A); }));
    EXPECT_TRUE(s.k.runUntil([&] { return p.resp.canDeq(); }, 100000));
    Line l;
    EXPECT_TRUE(s.k.runAtomically([&] { l = p.resp.deq().data; }));
    EXPECT_EQ(l.read(lineOffset(A), 8), 0x5150u);
    EXPECT_EQ(s.hier.dcache(0).probeState(A), Msi::S);
}

TEST(Cache, ConcurrentAmoStormIsAtomic)
{
    // All cores hammer fetch-and-add on two shared counters; every
    // returned "old" value must be unique per counter and the final
    // memory values must equal the total increment count.
    constexpr uint32_t kCores = 4;
    constexpr int kOpsPerCore = 20;
    Sys s(kCores);
    Addr ctr0 = A, ctr1 = A + 4096;
    s.mem.write(ctr0, 0, 8);
    s.mem.write(ctr1, 0, 8);

    struct Agent {
        int issued = 0;
        int done = 0;
        bool inflight = false;
        std::vector<uint64_t> seen0, seen1;
    };
    std::array<Agent, kCores> agents;
    std::mt19937 rng(99);

    uint64_t guard = 0;
    auto allDone = [&] {
        for (auto &a : agents) {
            if (a.done < 2 * kOpsPerCore)
                return false;
        }
        return true;
    };
    while (!allDone() && guard++ < 2000000) {
        for (uint32_t c = 0; c < kCores; c++) {
            Agent &a = agents[c];
            L1Cache &d = s.hier.dcache(c);
            if (!a.inflight && a.issued < 2 * kOpsPerCore) {
                Addr target = (rng() & 1) ? ctr0 : ctr1;
                if (s.k.runAtomically([&] {
                        d.reqAtomic(7, target, isa::Op::AMOADD_D, 1, 8);
                    })) {
                    a.inflight = true;
                    a.issued++;
                }
            }
            if (a.inflight && d.respAtomicReady()) {
                uint64_t v = 0;
                Addr dummy = 0;
                (void)dummy;
                ASSERT_TRUE(
                    s.k.runAtomically([&] { v = d.respAtomic().value; }));
                // We don't know which counter this came from; stash by
                // magnitude later (values are unique per counter).
                a.seen0.push_back(v);
                a.done++;
                a.inflight = false;
            }
        }
        s.k.cycle();
    }
    ASSERT_TRUE(allDone()) << "coherence storm deadlocked";

    uint64_t v0, v1;
    v0 = s.load(0, ctr0).read(lineOffset(ctr0), 8);
    v1 = s.load(0, ctr1).read(lineOffset(ctr1), 8);
    EXPECT_EQ(v0 + v1, 2ull * kOpsPerCore * kCores);
}

TEST(Cache, RandomLoadStoreAgainstFlatModel)
{
    // Single-core random ld/st sequence versus a flat memory model,
    // with small caches so evictions and refills churn constantly.
    MemHierarchyConfig cfg;
    cfg.l1d = {4, 2, 8, true};
    cfg.l2 = {64, 4, 16};
    Sys s(1, cfg);
    std::mt19937_64 rng(4242);
    std::map<Addr, uint64_t> model;
    for (int i = 0; i < 300; i++) {
        Addr addr = kDramBase + (rng() % 64) * 264; // straddle sets
        addr &= ~7ull;
        if (rng() & 1) {
            uint64_t v = rng();
            s.store(0, addr, v);
            model[addr] = v;
        } else {
            Line l = s.load(0, addr);
            uint64_t expect = model.count(addr) ? model[addr] : 0;
            ASSERT_EQ(l.read(lineOffset(addr), 8), expect)
                << "iteration " << i;
        }
    }
}

} // namespace
