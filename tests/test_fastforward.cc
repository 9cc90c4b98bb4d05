/**
 * @file
 * Execution-mode tests (proc/sampling.hh, System::runFastForward /
 * runSampled): the fast functional mode must be architecturally
 * indistinguishable from detailed execution — fast-forwarding N
 * instructions and then handing off to the detailed OOO core must commit
 * the exact same instruction stream a detailed-from-reset run commits
 * after its first N instructions, under every scheduler — and the
 * SMARTS estimator must behave (CI tightens, accounting conserves,
 * estimates land near the detailed reference).
 */
#include <gtest/gtest.h>

#include "proc/system.hh"
#include "workloads/workloads.hh"

using namespace riscy;

namespace {

const workloads::Workload &
spec(const std::string &name)
{
    static std::vector<workloads::Workload> all =
        workloads::specWorkloads();
    for (const auto &w : all)
        if (w.name == name)
            return w;
    throw std::runtime_error("no workload " + name);
}

/** FNV-1a over the timing-independent fields of a commit record. */
struct CommitDigest {
    uint64_t h = 1469598103934665603ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    add(const CommitRecord &r)
    {
        word(r.pc);
        word(r.raw);
        byte(r.hasRd);
        byte(r.rd);
        // rdVal of a volatile destination (cycle CSR) is timing-
        // dependent by design; everything else must match bit-exactly.
        if (r.hasRd && !r.volatileRd)
            word(r.rdVal);
        byte(r.trapped);
        if (r.trapped)
            word(r.cause);
    }
};

struct DigestRun {
    uint64_t digest = 0;
    uint64_t commits = 0;
    uint64_t instret = 0;
    uint64_t exitCode = 0;
};

/** Detailed from reset, digesting commits after the first @p skip. */
DigestRun
detailedReference(const workloads::Workload &w, cmd::SchedulerKind sched,
                  uint64_t skip)
{
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.scheduler = sched;
    System sys(cfg);
    workloads::Image img = w.build(sys, 1);
    sys.elaborate();
    CommitDigest d;
    DigestRun r;
    sys.setOnCommit(0, [&](const CommitRecord &c) {
        if (++r.commits > skip)
            d.add(c);
    });
    sys.start(img.entry, img.satp, img.stacks);
    EXPECT_TRUE(sys.run(400000000));
    r.digest = d.h;
    r.instret = sys.instret(0);
    r.exitCode = sys.host().exitCode(0);
    return r;
}

/** Fast-forward ~@p skip insts, hand off, finish detailed, digest the
 *  detailed leg's commits. Returns the exact fast-forwarded count in
 *  DigestRun::commits' complement via instret bookkeeping. */
DigestRun
ffThenDetailed(const workloads::Workload &w, cmd::SchedulerKind sched,
               uint64_t skip, uint64_t &ffInsts)
{
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.scheduler = sched;
    cfg.execMode = ExecMode::FastForward;
    System sys(cfg);
    workloads::Image img = w.build(sys, 1);
    sys.elaborate();
    sys.start(img.entry, img.satp, img.stacks);
    EXPECT_FALSE(sys.runFastForward(skip)); // budget, not exit
    ffInsts = sys.funcHart(0).instret();
    CommitDigest d;
    DigestRun r;
    sys.setOnCommit(0, [&](const CommitRecord &c) {
        r.commits++;
        d.add(c);
    });
    sys.handoffToDetailed();
    EXPECT_TRUE(sys.run(400000000));
    r.digest = d.h;
    r.instret = sys.instret(0);
    r.exitCode = sys.host().exitCode(0);
    return r;
}

void
expectDigestEquality(cmd::SchedulerKind sched)
{
    const workloads::Workload &w = spec("mcf");
    uint64_t ffInsts = 0;
    DigestRun ff = ffThenDetailed(w, sched, 5000, ffInsts);
    EXPECT_GE(ffInsts, 5000u);
    DigestRun ref = detailedReference(w, sched, ffInsts);
    EXPECT_EQ(ff.instret, ref.instret);
    EXPECT_EQ(ff.exitCode, ref.exitCode);
    EXPECT_EQ(ff.commits + ffInsts, ref.commits);
    EXPECT_EQ(ff.digest, ref.digest)
        << "fast-forward handoff diverged from detailed-from-reset";
}

} // namespace

// Fast-forwarding N instructions and then running detailed must
// commit the identical instruction stream (pc, raw, rd, values,
// traps) a detailed-from-reset run commits after instruction N —
// under every scheduler, since the handoff (OooCore::resumeArch in
// one atomic action) writes only scheduler-independent state.
TEST(FastForward, HandoffDigestEqualityEventDriven)
{
    expectDigestEquality(cmd::SchedulerKind::EventDriven);
}

TEST(FastForward, HandoffDigestEqualityExhaustive)
{
    expectDigestEquality(cmd::SchedulerKind::Exhaustive);
}

TEST(FastForward, HandoffDigestEqualityParallel)
{
    expectDigestEquality(cmd::SchedulerKind::Parallel);
}

/** Start mcf in FastForward mode, run @p cycles detailed cycles, and
 *  expect handoffToDetailed() to raise ApiMisuse. */
void
expectHandoffMisuse(bool inOrder, uint64_t cycles)
{
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.inOrder = inOrder;
    cfg.execMode = ExecMode::FastForward;
    System sys(cfg);
    workloads::Image img = spec("mcf").build(sys, 1);
    sys.elaborate();
    sys.start(img.entry, img.satp, img.stacks);
    EXPECT_FALSE(sys.runFastForward(5000));
    if (cycles)
        sys.run(cycles);
    try {
        sys.handoffToDetailed();
        FAIL() << "expected ApiMisuse";
    } catch (const cmd::KernelFault &f) {
        EXPECT_EQ(f.kind(), cmd::FaultKind::ApiMisuse) << f.describe();
    }
}

// The handoff re-seeds an OOO pipeline; the in-order core has none,
// even before any cycle runs.
TEST(FastForward, HandoffRejectsInOrderCore)
{
    expectHandoffMisuse(true, 0);
}

// Once detailed cycles have run, the functional harts still hold
// start()'s state and the caches no longer match memory: no handoff.
TEST(FastForward, HandoffRejectsAfterDetailedCycles)
{
    expectHandoffMisuse(false, 100);
}

// The decoded-instruction cache must absorb nearly every fetch on a
// loopy workload (the multi-MIPS claim rests on it).
TEST(FastForward, DecodeCacheHitRate)
{
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.execMode = ExecMode::FastForward;
    System sys(cfg);
    workloads::Image img = spec("mcf").build(sys, 1);
    sys.elaborate();
    sys.start(img.entry, img.satp, img.stacks);
    EXPECT_TRUE(sys.runFastForward());
    const auto &fs = sys.funcHart(0).fastStats();
    EXPECT_GT(fs.decodeAccesses, 10000u);
    EXPECT_GT(fs.hitRate(), 0.90);
}

// run(N) is the no-Commit-materialization fast path of step(); both
// must land on the identical architectural state.
TEST(FastForward, GoldenRunMatchesStep)
{
    auto mk = [](SystemConfig &cfg) {
        cfg.execMode = ExecMode::FastForward;
    };
    SystemConfig cfgA = SystemConfig::riscyooB();
    mk(cfgA);
    System sysA(cfgA);
    workloads::Image imgA = spec("gcc").build(sysA, 1);
    sysA.elaborate();
    sysA.start(imgA.entry, imgA.satp, imgA.stacks);

    SystemConfig cfgB = SystemConfig::riscyooB();
    mk(cfgB);
    System sysB(cfgB);
    workloads::Image imgB = spec("gcc").build(sysB, 1);
    sysB.elaborate();
    sysB.start(imgB.entry, imgB.satp, imgB.stacks);

    isa::GoldenModel &a = sysA.funcHart(0);
    isa::GoldenModel &b = sysB.funcHart(0);
    constexpr uint64_t kN = 20000;
    ASSERT_EQ(a.run(kN), kN);
    for (uint64_t i = 0; i < kN; i++)
        b.step();
    isa::ArchState sa = a.archState(), sb = b.archState();
    EXPECT_EQ(sa.pc, sb.pc);
    EXPECT_EQ(sa.instret, sb.instret);
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(sa.regs[i], sb.regs[i]) << "x" << i;
}

// The SMARTS CI is 1.96 s / sqrt(n): with a stationary observation
// stream, more intervals must tighten it.
TEST(FastForward, EstimatorCiTightens)
{
    IntervalEstimator est;
    auto obs = [](uint64_t i) { return (i % 2) ? 2.5 : 1.5; };
    for (uint64_t i = 0; i < 8; i++)
        est.add(obs(i));
    double ci8 = est.ci95Half();
    EXPECT_GT(ci8, 0.0);
    for (uint64_t i = 8; i < 80; i++)
        est.add(obs(i));
    EXPECT_EQ(est.n(), 80u);
    EXPECT_LT(est.ci95Half(), ci8 / 2.0);
    EXPECT_NEAR(est.mean(), 2.0, 1e-9);
}

// Sampled mode on a real workload: the estimate must land close to
// the full detailed IPC (the ablation gates at 2% on tuned knobs;
// this guards the machinery with headroom against knob drift) and
// the instruction accounting must conserve.
TEST(FastForward, SampledIpcCloseToDetailed)
{
    const workloads::Workload &w = spec("bzip2");

    SystemConfig dcfg = SystemConfig::riscyooB();
    System dsys(dcfg);
    workloads::Image dimg = w.build(dsys, 1);
    dsys.elaborate();
    uint64_t cycles = workloads::runToCompletion(dsys, dimg, 400000000);
    double detIpc = double(dsys.instret(0)) / double(cycles);

    SystemConfig scfg = SystemConfig::riscyooB();
    scfg.execMode = ExecMode::Sampled;
    scfg.sampling.skip = 3000;
    scfg.sampling.warmup = 1000;
    scfg.sampling.measure = 3000;
    System ssys(scfg);
    workloads::Image simg = w.build(ssys, 1);
    ssys.elaborate();
    ssys.start(simg.entry, simg.satp, simg.stacks);
    EXPECT_TRUE(ssys.runSampled());
    const SampleStats &st = ssys.sampleStats();

    EXPECT_EQ(ssys.host().exitCode(0), dsys.host().exitCode(0));
    EXPECT_EQ(st.totalInsts, dsys.instret(0));
    EXPECT_EQ(st.totalInsts,
              st.ffInsts + st.warmupInsts + st.measuredInsts);
    EXPECT_EQ(st.intervals, st.intervalCpi.size());
    ASSERT_GT(st.intervals, 5u);
    ASSERT_GT(st.meanIpc, 0.0);
    EXPECT_NEAR(st.meanIpc, detIpc, 0.05 * detIpc);

    // Sampled mode needs the OOO core: the in-order core reports
    // memory instructions at completion, out of program order, so the
    // shadow tracker cannot follow it. The config is refused before
    // any cycle runs.
    SystemConfig icfg = SystemConfig::rocket(10);
    icfg.execMode = ExecMode::Sampled;
    System isys(icfg);
    workloads::Image iimg = w.build(isys, 1);
    isys.elaborate();
    isys.start(iimg.entry, iimg.satp, iimg.stacks);
    try {
        isys.runSampled();
        ADD_FAILURE() << "in-order runSampled() did not fault";
    } catch (const cmd::KernelFault &f) {
        EXPECT_EQ(f.kind(), cmd::FaultKind::ApiMisuse);
    }
    EXPECT_EQ(isys.kernel().cycleCount(), 0u);
}

// Multi-hart fast-forward: round-robin instruction batches must let
// spin barriers progress, and the functional run must be
// deterministic (same exit codes and instruction counts every time).
TEST(FastForward, MulticoreSmokeAndDeterminism)
{
    auto parsec = workloads::parsecWorkloads();
    auto run = [&](DigestRun &r) {
        SystemConfig cfg = SystemConfig::riscyooB();
        cfg.cores = 2;
        cfg.mem.cores = 2;
        cfg.execMode = ExecMode::FastForward;
        System sys(cfg);
        workloads::Image img = parsec[0].build(sys, 2);
        sys.elaborate();
        sys.start(img.entry, img.satp, img.stacks);
        EXPECT_TRUE(sys.runFastForward());
        r.instret =
            sys.funcHart(0).instret() + sys.funcHart(1).instret();
        r.exitCode =
            (sys.host().exitCode(0) << 8) | sys.host().exitCode(1);
    };
    DigestRun a, b;
    run(a);
    run(b);
    EXPECT_GT(a.instret, 1000u);
    EXPECT_EQ(a.instret, b.instret);
    EXPECT_EQ(a.exitCode, b.exitCode);
}
