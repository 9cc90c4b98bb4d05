/**
 * @file
 * Server-scale front tests: DramCtl row-buffer classification and
 * ordering, line interleaving across L2 bank slices, coherence through
 * the per-core BankRouter, and full-system smoke on the serverConfig
 * presets (MSI protocol end to end across router + banks + DramCtl).
 */
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "cache/hierarchy.hh"
#include "cosim.hh"
#include "mem/dram_ctl.hh"
#include "server/kv.hh"

using namespace riscy;
using namespace riscy::asmkit;
using namespace riscy::test;
using namespace cmd;

namespace {

// ------------------------------------------------ DramCtl unit tests

/** Drive a bare DramCtl through one client channel. */
struct CtlSys {
    Kernel k;
    PhysMem mem;
    DramCtl ctl;

    explicit CtlSys(DramCtl::Config cfg, uint32_t ports = 1)
        : ctl(k, "dram", mem, cfg, ports)
    {
        k.elaborate();
    }

    Line
    read(Addr line, uint32_t port = 0, uint64_t maxCycles = 10000)
    {
        DramChannel &ch = ctl.channel(port);
        EXPECT_TRUE(
            k.runAtomically([&] { ch.req.enq({false, line, {}}); }));
        EXPECT_TRUE(
            k.runUntil([&] { return ch.resp.canDeq(); }, maxCycles));
        MemResp r;
        EXPECT_TRUE(k.runAtomically([&] { r = ch.resp.deq(); }));
        EXPECT_EQ(r.line, line);
        k.cycle();
        return r.data;
    }

    void
    write(Addr line, const Line &data, uint32_t port = 0)
    {
        DramChannel &ch = ctl.channel(port);
        EXPECT_TRUE(
            k.runAtomically([&] { ch.req.enq({true, line, data}); }));
        k.cycle();
    }

    uint64_t stat(const std::string &n) { return ctl.stats().get(n); }
};

DramCtl::Config
smallDram()
{
    DramCtl::Config c;
    c.banks = 4;
    c.linesPerRow = 16; // row = lineIdx >> (2 + 4)
    c.issueInterval = 1;
    c.chanDelay = 1;
    return c;
}

TEST(DramCtl, RowBufferHitMissConflictClassification)
{
    CtlSys s(smallDram());
    Addr base = kDramBase;
    auto lineAt = [&](uint64_t idx) { return base + idx * kLineBytes; };

    // First touch of bank 0: no row open -> row miss.
    s.read(lineAt(0));
    EXPECT_EQ(s.stat("rowMisses"), 1u);
    // Same bank (idx % 4 == 0), same row (idx >> 6 unchanged) -> hit.
    s.read(lineAt(4));
    EXPECT_EQ(s.stat("rowHits"), 1u);
    // Same bank, different row (idx 64 >> 6 == 1) -> conflict.
    s.read(lineAt(64));
    EXPECT_EQ(s.stat("rowConflicts"), 1u);
    // Different bank, first touch -> second row miss.
    s.read(lineAt(1));
    EXPECT_EQ(s.stat("rowMisses"), 2u);
    EXPECT_EQ(s.stat("reads"), 4u);
    EXPECT_EQ(s.stat("bank0.reqs"), 3u);
    EXPECT_EQ(s.stat("bank1.reqs"), 1u);
}

TEST(DramCtl, RowHitIsFasterThanMissIsFasterThanConflict)
{
    CtlSys s(smallDram());
    Addr base = kDramBase;
    auto timeRead = [&](uint64_t idx) {
        uint64_t c0 = s.k.cycleCount();
        s.read(base + idx * kLineBytes);
        return s.k.cycleCount() - c0;
    };
    uint64_t missLat = timeRead(0);     // bank 0, cold
    uint64_t hitLat = timeRead(4);      // bank 0, same row
    uint64_t conflictLat = timeRead(64); // bank 0, other row
    EXPECT_LT(hitLat, missLat);
    EXPECT_LT(missLat, conflictLat);
    // The classified latencies dominate the fixed channel overhead.
    EXPECT_GE(hitLat, s.ctl.config().rowHitLat);
    EXPECT_GE(conflictLat, s.ctl.config().rowConflictLat);
}

TEST(DramCtl, WriteThenReadSameLineNeverReordered)
{
    // A queued write must not be bypassed by a younger same-line read
    // even when the read would be a row hit — the ordering the L2's
    // victim-writeback + refill traffic relies on. A long issue
    // interval keeps both queued at the first issue opportunity.
    DramCtl::Config cfg = smallDram();
    cfg.issueInterval = 50;
    CtlSys s(cfg);
    Addr line = kDramBase + 8 * kLineBytes;

    Line d;
    d.write(0, 0x1122334455667788ull, 8);
    d.write(8, 0xa5a5a5a5a5a5a5a5ull, 8);
    s.write(line, d);
    Line got = s.read(line);
    EXPECT_EQ(got.read(0, 8), 0x1122334455667788ull);
    EXPECT_EQ(got.read(8, 8), 0xa5a5a5a5a5a5a5a5ull);
    // The write retired into physical memory at issue.
    EXPECT_EQ(s.mem.read(line, 8), 0x1122334455667788ull);
    EXPECT_EQ(s.stat("writes"), 1u);
    EXPECT_EQ(s.stat("reads"), 1u);
}

TEST(DramCtl, PortsDrainIndependentlyAndQuiesce)
{
    DramCtl::Config cfg = smallDram();
    CtlSys s(cfg, 4);
    for (uint32_t p = 0; p < 4; p++)
        s.mem.write(kDramBase + p * kLineBytes, 100 + p, 8);
    for (uint32_t p = 0; p < 4; p++) {
        Line l = s.read(kDramBase + p * kLineBytes, p);
        EXPECT_EQ(l.read(0, 8), 100u + p);
    }
    EXPECT_TRUE(s.ctl.quiescent());
    EXPECT_EQ(s.stat("reads"), 4u);
}

// ------------------------------------- banked hierarchy (cache-level)

/** test_cache-style harness over a banked MemHierarchy. */
struct BankedSys {
    Kernel k;
    PhysMem mem;
    MemHierarchy hier;

    BankedSys(uint32_t cores, uint32_t banks)
        : hier(k, "sys", mem, [&] {
              MemHierarchyConfig cfg;
              cfg.cores = cores;
              cfg.l2Banks = banks;
              cfg.l2 = {64, 4, 8}; // small slices: DRAM traffic early
              cfg.dramCtl.chanDelay = 2;
              cfg.dramCtl.issueInterval = 4;
              cfg.childChanDelay = 2;
              cfg.parentChanDelay = 2;
              return cfg;
          }())
    {
        k.elaborate();
    }

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
};

TEST(BankedL2, LinesInterleaveAcrossSlices)
{
    BankedSys s(1, 4);
    Addr base = kDramBase + 0x8000;
    for (uint32_t i = 0; i < 8; i++)
        s.mem.write(base + i * kLineBytes, 0xbeef00 + i, 8);
    for (uint32_t i = 0; i < 8; i++) {
        Line l = s.load(0, base + i * kLineBytes);
        EXPECT_EQ(l.read(0, 8), 0xbeef00u + i);
    }
    // Eight consecutive lines land two per slice, and the aggregate
    // view sums what the slices saw.
    for (uint32_t b = 0; b < 4; b++)
        EXPECT_EQ(s.hier.l2Bank(b).stats().get("misses"), 2u)
            << "bank " << b;
    EXPECT_EQ(s.hier.l2StatSum("misses"), 8u);
    EXPECT_EQ(s.hier.bankedFront()->dramCtl().stats().get("reads"), 8u);
}

TEST(BankedL2, CrossCoreCoherenceThroughRouters)
{
    // Writer/reader pairs across every bank: core 0 stores, core 1
    // must read the fresh value (M->S downgrade with data through two
    // routers and the owning bank).
    BankedSys s(2, 4);
    Addr base = kDramBase + 0x10000;
    for (uint32_t i = 0; i < 4; i++) {
        Addr a = base + i * kLineBytes;
        s.store(0, a, 0xc0de00 + i);
        Line l = s.load(1, a);
        EXPECT_EQ(l.read(0, 8), 0xc0de00u + i) << "bank " << i;
    }
    EXPECT_TRUE(s.k.runUntil([&] { return s.hier.quiescent(); }, 10000));
}

TEST(BankedL2, RandomizedCoherenceStormMatchesShadow)
{
    // Deterministic mini-storm: two cores, random loads/stores over 16
    // lines spread across the banks, checked against a shadow model.
    BankedSys s(2, 4);
    Addr base = kDramBase + 0x20000;
    std::unordered_map<Addr, uint64_t> shadow;
    std::mt19937 rng(7);
    for (uint32_t op = 0; op < 250; op++) {
        uint32_t core = rng() & 1;
        Addr a = base + (rng() % 16) * kLineBytes;
        if (rng() & 1) {
            uint64_t v = rng();
            s.store(core, a, v);
            shadow[a] = v;
        } else {
            Line l = s.load(core, a);
            auto it = shadow.find(a);
            uint64_t expect = it == shadow.end() ? 0 : it->second;
            EXPECT_EQ(l.read(0, 8), expect)
                << "op " << op << " core " << core;
        }
    }
    EXPECT_TRUE(s.k.runUntil([&] { return s.hier.quiescent(); }, 20000));
    // The storm must actually have exercised the DRAM path.
    EXPECT_GT(s.hier.bankedFront()->dramCtl().stats().get("reads"), 0u);
}

// ------------------------------------------- open-loop KV generator

TEST(Kv, ArrivalScheduleDeterministicAcrossSeeds)
{
    server::KvConfig cfg;
    cfg.harts = 4;
    cfg.requests = 500;
    cfg.seed = 42;
    server::KvHost a(cfg), b(cfg);
    ASSERT_EQ(a.requests().size(), 500u);
    for (size_t i = 0; i < a.requests().size(); i++) {
        EXPECT_EQ(a.requests()[i].arrival, b.requests()[i].arrival);
        EXPECT_EQ(a.requests()[i].key, b.requests()[i].key);
        EXPECT_EQ(a.requests()[i].put, b.requests()[i].put);
        // Round-robin hart assignment, arrivals monotone per hart.
        EXPECT_EQ(a.requests()[i].hart, i % 4);
        if (i >= 4) {
            EXPECT_GE(a.requests()[i].arrival,
                      a.requests()[i - 4].arrival);
        }
    }
    cfg.seed = 43;
    server::KvHost c(cfg);
    uint32_t diff = 0;
    for (size_t i = 0; i < a.requests().size(); i++)
        diff += a.requests()[i].arrival != c.requests()[i].arrival ||
                a.requests()[i].key != c.requests()[i].key;
    EXPECT_GT(diff, 100u) << "seed change barely moved the schedule";
}

TEST(Kv, PopHonorsArrivalsAndStops)
{
    server::KvConfig cfg;
    cfg.harts = 1;
    cfg.requests = 3;
    cfg.poisson = false; // uniform: arrivals at start + k * mean
    cfg.reqPerKilocycle = 10.0; // mean gap 100 cycles
    cfg.startCycle = 1000;
    server::KvHost kv(cfg);
    const auto &reqs = kv.requests();
    ASSERT_EQ(reqs.size(), 3u);

    EXPECT_EQ(kv.pop(0, reqs[0].arrival - 1), 0u) << "not arrived yet";
    uint64_t d0 = kv.pop(0, reqs[0].arrival);
    ASSERT_EQ(d0 & 1, 1u);
    EXPECT_EQ((d0 >> 8) & 0xffffffffu, reqs[0].key);
    EXPECT_EQ(((d0 >> 1) & 1) != 0, reqs[0].put);
    EXPECT_EQ(d0 >> 40, 0u);
    kv.done(0, 0, reqs[0].arrival + 50);

    // Pop the rest late: both already arrived, backlog visible.
    uint64_t late = reqs[2].arrival + 10;
    uint64_t d1 = kv.pop(0, late);
    uint64_t d2 = kv.pop(0, late);
    EXPECT_EQ(d1 >> 40, 1u);
    EXPECT_EQ(d2 >> 40, 2u);
    kv.done(0, 1, late + 30);
    kv.done(0, 2, late + 60);
    EXPECT_EQ(kv.pop(0, late + 100), 0x5u) << "drained -> stop";

    server::KvSummary s = kv.summarize();
    EXPECT_EQ(s.offered, 3u);
    EXPECT_EQ(s.completed, 3u);
    // Sorted latencies: req0 = 50, req2 = 70, req1 = 140.
    EXPECT_EQ(s.p50, late + 60 - reqs[2].arrival);
    EXPECT_EQ(s.maxQueueDepth, 2u);
    EXPECT_GT(s.throughputPerKc, 0.0);
}

// -------------------------------------------- full-system smoke tests

std::vector<Addr>
stacks(uint32_t n)
{
    std::vector<Addr> s;
    for (uint32_t i = 0; i < n; i++)
        s.push_back(kEntry + 0x200000 + i * 0x10000);
    return s;
}

void
exitWith(Assembler &a)
{
    a.slli(a0, a0, 1);
    a.ori(a0, a0, 1);
    a.li(t6, kMmioBase + static_cast<Addr>(HostReg::Exit));
    a.sd(a0, 0, t6);
    auto spin = a.newLabel();
    a.bind(spin);
    a.j(spin);
}

constexpr Addr kData = kEntry + 0x40000;

TEST(ServerSmoke, AmoCountersAtomicAcrossBanks)
{
    SystemConfig cfg = SystemConfig::serverConfig(4, 4);
    System sys(cfg);
    Assembler a(kEntry);
    a.li(s0, kData);
    a.li(s1, 0);
    a.li(s2, 100);
    a.li(t1, 1);
    auto loop = a.newLabel();
    a.bind(loop);
    a.amoadd_d(t2, t1, s0);
    a.addi(s1, s1, 1);
    a.bne(s1, s2, loop);
    a.li(t3, 400);
    auto wait = a.newLabel();
    a.bind(wait);
    a.ld(a0, 0, s0);
    a.blt(a0, t3, wait);
    exitWith(a);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0, stacks(4));
    ASSERT_TRUE(sys.run(6000000));
    for (uint32_t i = 0; i < 4; i++)
        EXPECT_EQ(sys.host().exitCode(i), 400u);
}

TEST(ServerSmoke, KvServiceEndToEnd)
{
    // Four cores serve 200 open-loop requests against the preloaded
    // table through the banked L2 + DramCtl; every request completes,
    // every GET verifies, and the summary is internally consistent.
    SystemConfig cfg = SystemConfig::serverConfig(4, 4);
    System sys(cfg);

    server::KvConfig kc;
    kc.harts = 4;
    kc.requests = 200;
    kc.reqPerKilocycle = 20.0;
    kc.keys = 1024;
    kc.tableSlots = 2048;
    kc.putFrac = 0.2;
    kc.seed = 9;
    server::KvHost kv(kc);
    server::preloadKvTable(sys.mem(), kc);
    sys.host().attachKv(&kv);

    Assembler a(kEntry);
    server::emitKvWorker(a, kc);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0, stacks(4));
    ASSERT_TRUE(sys.run(4000000)) << "KV service wedged";
    ASSERT_FALSE(sys.host().failed())
        << "GET verification failed, key " << sys.host().failCode();
    for (uint32_t i = 0; i < 4; i++)
        EXPECT_EQ(sys.host().exitCode(i), 0u) << "hart " << i;

    server::KvSummary s = kv.summarize();
    EXPECT_EQ(s.offered, 200u);
    EXPECT_EQ(s.completed, 200u);
    EXPECT_GT(s.p50, 0u);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.p99, s.maxLat);
    EXPECT_GT(s.throughputPerKc, 0.0);
    EXPECT_GE(s.maxQueueDepth, 1u);
}

TEST(ServerObs, CpiSplitsDramBoundDMisses)
{
    // A line-strided stream over 4x the (shrunken) banked L2: head
    // loads park at commit waiting on DramCtl, and the CPI stack must
    // attribute those cycles to d_miss_dram while staying conserved.
    SystemConfig cfg = SystemConfig::serverConfig(1, 4);
    cfg.mem.l2 = {16, 4, 8}; // 64 KB aggregate
    cfg.obs.cpi = true;
    System sys(cfg);
    Assembler a(kEntry);
    Addr base = kEntry + 0x100000;
    a.li(s0, base);
    a.li(s1, base + 256 * 1024);
    auto loop = a.newLabel();
    auto restart = a.newLabel();
    a.bind(restart);
    a.li(s0, base);
    a.bind(loop);
    a.ld(t1, 0, s0);
    a.addi(s0, s0, 64);
    a.blt(s0, s1, loop);
    a.j(restart);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0, stacks(1));
    sys.kernel().run(60000);

    const obs::CpiStack *cp = sys.cpi(0);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->total(), cp->cycles()) << "CPI stack leaked cycles";
    uint64_t dram = cp->count(obs::StallCause::DMissDram);
    EXPECT_GT(dram, 0u) << "no DRAM-bound D-miss cycles attributed";
    // The next-line prefetcher hides most of the stream's latency, so
    // the bound is loose — but a 4x-over-capacity stream must still
    // park at DRAM for a visible share of cycles.
    EXPECT_GT(dram, cp->cycles() / 100);
    EXPECT_NE(cp->json().find("d_miss_dram"), std::string::npos);
}

TEST(ServerSmoke, FalseSharingPingPongStaysCoherentBanked)
{
    SystemConfig cfg = SystemConfig::serverConfig(2, 4);
    System sys(cfg);
    Assembler a(kEntry);
    a.csrr(t0, isa::kCsrMhartid);
    a.slli(t0, t0, 3);
    a.li(s0, kData);
    a.add(s0, s0, t0);
    a.li(s1, 0);
    a.li(s2, 200);
    auto loop = a.newLabel();
    a.bind(loop);
    a.ld(t1, 0, s0);
    a.addi(t1, t1, 1);
    a.sd(t1, 0, s0);
    a.addi(s1, s1, 1);
    a.bne(s1, s2, loop);
    a.ld(a0, 0, s0);
    exitWith(a);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    sys.start(kEntry, 0, stacks(2));
    ASSERT_TRUE(sys.run(8000000));
    EXPECT_EQ(sys.host().exitCode(0), 200u);
    EXPECT_EQ(sys.host().exitCode(1), 200u);
}

} // namespace
