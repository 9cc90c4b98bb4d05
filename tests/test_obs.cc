/**
 * @file
 * Observability subsystem tests: stats histograms and formulas, CPI
 * stack conservation (components sum exactly to total cycles), trace
 * determinism across all three schedulers (byte-identical Konata and
 * Perfetto exports), warmup stats reset, the structured KernelReport,
 * the kernel's recently-fired tail in crash diagnostics, and one sink
 * per hart past 32 cores.
 */
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cmd.hh"
#include "cosim.hh"
#include "obs/hub.hh"

namespace {

using namespace riscy;
using namespace riscy::test;

/**
 * A small OOO-stressing loop: loads, stores, a multiply, and a
 * data-dependent branch that mispredicts often enough to exercise the
 * squash paths in every trace sink.
 */
Assembler
obsProgram()
{
    Assembler a(kEntry);
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
    a.mul(29, 29, 6);
    a.sd(29, 0, 28);
    a.add(7, 7, 29);
    a.andi(30, 7, 7); // data-dependent: taken 7 of 8 times
    auto skip = a.newLabel();
    a.bnez(30, skip);
    a.xor_(7, 7, 6);
    a.bind(skip);
    a.addi(6, 6, 1);
    a.j(loop);
    return a;
}

std::unique_ptr<System>
mkObsSys(Assembler &a, cmd::SchedulerKind kind,
         void (*tweak)(SystemConfig &) = nullptr)
{
    SystemConfig cfg = SystemConfig::riscyooB();
    cfg.cores = 1;
    cfg.scheduler = kind;
    cfg.obs.pipeline = true;
    cfg.obs.timeline = true;
    cfg.obs.timelineGuardFails = false;
    cfg.obs.cpi = true;
    // Record-only: tests read the in-memory sinks, nothing hits disk.
    cfg.obs.pipelinePath.clear();
    cfg.obs.timelinePath.clear();
    if (tweak)
        tweak(cfg);
    auto sys = std::make_unique<System>(cfg);
    a.load(sys->mem(), kEntry);
    sys->elaborate();
    sys->start(kEntry, 0, {kStackTop});
    return sys;
}

std::string
konataText(System &sys)
{
    std::ostringstream os;
    std::vector<const obs::PipelineTracer *> cores{
        sys.obsHub()->pipeline(0)};
    EXPECT_TRUE(obs::KonataWriter::write(os, cores));
    return os.str();
}

std::string
perfettoText(System &sys)
{
    std::ostringstream os;
    EXPECT_TRUE(sys.obsHub()->timeline()->write(os));
    return os.str();
}

} // namespace

TEST(ObsStats, HistogramBucketsAndMoments)
{
    cmd::Histogram h(0, 100, 10);
    for (uint64_t v : {0ull, 5ull, 15ull, 15ull, 99ull, 250ull})
        h.sample(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 0u + 5 + 15 + 15 + 99 + 250);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 250u);
    EXPECT_DOUBLE_EQ(h.mean(), double(h.sum()) / 6.0);
    ASSERT_EQ(h.buckets().size(), 11u); // 10 + overflow
    EXPECT_EQ(h.buckets()[0], 2u);      // 0, 5
    EXPECT_EQ(h.buckets()[1], 2u);      // 15, 15
    EXPECT_EQ(h.buckets()[9], 1u);      // 99
    EXPECT_EQ(h.buckets()[10], 1u);     // 250 overflows
    EXPECT_NE(h.json().find("\"count\": 6"), std::string::npos);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(ObsStats, FormulaAndGroupResetAll)
{
    cmd::StatGroup g;
    cmd::Stat &instret = g.counter("instret");
    cmd::Stat &cycles = g.counter("cycles");
    instret.inc(300);
    cycles.inc(600);
    g.formula("ipc", [&] {
        return cycles.value() ? double(instret.value()) / cycles.value() : 0;
    });
    EXPECT_DOUBLE_EQ(g.getFormula("ipc"), 0.5);
    cmd::Histogram &h = g.histogram("occ", 0, 64, 8);
    h.sample(10);
    g.resetAll();
    EXPECT_EQ(g.get("instret"), 0u);
    EXPECT_EQ(g.get("cycles"), 0u);
    EXPECT_EQ(g.getHistogram("occ")->count(), 0u);
    // Formulas recompute from (now reset) inputs.
    EXPECT_DOUBLE_EQ(g.getFormula("ipc"), 0.0);
    EXPECT_NE(g.json().find("\"ipc\""), std::string::npos);
}

/**
 * CPI stack conservation: every cycle is attributed to exactly one
 * cause, so the components sum to the cycle count exactly, and the
 * Base component reproduces the retired-instruction rate.
 */
TEST(ObsCpi, ComponentsSumToTotalCycles)
{
    Assembler a = obsProgram();
    auto sys = mkObsSys(a, cmd::SchedulerKind::EventDriven);
    constexpr uint64_t kCycles = 30000;
    sys->kernel().run(kCycles);

    const obs::CpiStack *cp = sys->cpi(0);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->cycles(), sys->kernel().cycleCount());
    uint64_t sum = 0;
    for (uint32_t c = 0; c < obs::kNumStallCauses; c++)
        sum += cp->count(obs::StallCause(c));
    EXPECT_EQ(sum, cp->cycles()) << "CPI stack leaked cycles";
    EXPECT_EQ(cp->total(), cp->cycles());

    // The run must exercise more than the trivial causes.
    EXPECT_GT(cp->count(obs::StallCause::Base), 0u);
    EXPECT_GT(cp->count(obs::StallCause::Base), cp->cycles() / 10);
    EXPECT_GT(sys->instret(0), 0u);

    // json() carries the same totals the BENCH rows embed.
    std::string j = cp->json(sys->instret(0));
    EXPECT_NE(j.find("\"total_cycles\": " + std::to_string(cp->cycles())),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"ipc\": "), std::string::npos);
}

/**
 * Same seed + config => byte-identical Konata and Perfetto exports
 * under all three schedulers. This is the observable face of the
 * kernel's cross-scheduler equivalence guarantee: not just the same
 * architectural evolution, but the same fired-rule timeline and the
 * same per-uop pipeline occupancy.
 */
TEST(ObsTrace, ByteIdenticalAcrossSchedulers)
{
    constexpr uint64_t kCycles = 20000;
    Assembler a = obsProgram();

    struct Traces {
        std::string konata, perfetto, cpi;
    };
    auto runOne = [&](cmd::SchedulerKind kind) {
        auto sys = mkObsSys(a, kind);
        sys->kernel().run(kCycles);
        const obs::CpiStack *cp = sys->cpi(0);
        return Traces{konataText(*sys), perfettoText(*sys),
                      cp ? cp->json(sys->instret(0)) : std::string()};
    };
    auto ex = runOne(cmd::SchedulerKind::Exhaustive);
    auto ev = runOne(cmd::SchedulerKind::EventDriven);
    auto par = runOne(cmd::SchedulerKind::Parallel);

    // Sanity: the traces are real before we compare them.
    ASSERT_GT(ex.konata.size(), 1000u);
    ASSERT_EQ(ex.konata.rfind("Kanata\t0004\n", 0), 0u);
    ASSERT_GT(ex.perfetto.size(), 1000u);
    ASSERT_GT(ex.cpi.size(), 10u);

    EXPECT_EQ(ex.konata, ev.konata) << "Konata diverged: event-driven";
    EXPECT_EQ(ex.konata, par.konata) << "Konata diverged: parallel";
    EXPECT_EQ(ex.perfetto, ev.perfetto) << "Perfetto diverged: event-driven";
    EXPECT_EQ(ex.perfetto, par.perfetto) << "Perfetto diverged: parallel";
    EXPECT_EQ(ex.cpi, ev.cpi) << "CPI stack diverged: event-driven";
    EXPECT_EQ(ex.cpi, par.cpi) << "CPI stack diverged: parallel";
}

/** Every traced uop resolves: retired + squashed == created. */
TEST(ObsTrace, UopAccountingCloses)
{
    Assembler a = obsProgram();
    auto sys = mkObsSys(a, cmd::SchedulerKind::EventDriven);
    sys->kernel().run(20000);
    const obs::PipelineTracer *t = sys->obsHub()->pipeline(0);
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->created(), 1000u);
    EXPECT_GT(t->retired(), 0u);
    EXPECT_GT(t->squashed(), 0u) << "branch loop never mispredicted?";
    EXPECT_LE(t->retired() + t->squashed(), t->created());
    // Retired-uop count matches the architectural counter.
    EXPECT_LE(t->retired(), sys->instret(0));
}

/**
 * statsResetAtCycle opens a measurement window: the CPI stack restarts
 * at the reset point and still conserves cycles over the window.
 */
TEST(ObsCpi, WarmupResetWindow)
{
    constexpr uint64_t kReset = 5000;
    constexpr uint64_t kCycles = 15000;
    Assembler a = obsProgram();
    auto sys = mkObsSys(a, cmd::SchedulerKind::EventDriven,
                        [](SystemConfig &cfg) {
                            cfg.statsResetAtCycle = kReset;
                        });
    sys->kernel().run(kCycles);
    const obs::CpiStack *cp = sys->cpi(0);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->cycles(), sys->kernel().cycleCount() - kReset);
    EXPECT_EQ(cp->total(), cp->cycles());
}

/** The structured report carries the rule table and scheduler state. */
TEST(ObsReport, KernelReportText)
{
    Assembler a = obsProgram();
    auto sys = mkObsSys(a, cmd::SchedulerKind::EventDriven);
    sys->kernel().run(2000);
    cmd::KernelReport rep = sys->kernel().report();
    EXPECT_EQ(rep.cycle, sys->kernel().cycleCount());
    ASSERT_FALSE(rep.rules.empty());
    uint64_t fired = 0;
    for (const auto &r : rep.rules)
        fired += r.fired;
    EXPECT_GT(fired, 0u);
    std::string t = rep.text();
    EXPECT_NE(t.find("scheduler: kind="), std::string::npos);
}

/**
 * Crash diagnostics carry one flight recorder, the kernel's own
 * recently-fired rings, at full depth — also under a hub with every
 * file sink off, which adds nothing of its own.
 */
TEST(ObsTimeline, FlightRecorderInDiagnostics)
{
    Assembler a = obsProgram();
    auto sys = mkObsSys(a, cmd::SchedulerKind::EventDriven,
                        [](SystemConfig &cfg) {
                            cfg.obs.pipeline = false;
                            cfg.obs.timeline = false;
                            cfg.obs.cpi = true; // hub present, sinks off
                        });
    sys->kernel().run(2000);
    EXPECT_EQ(sys->obsHub()->timeline(), nullptr);
    std::string diag = sys->kernel().diagnosticReport();
    // The tail holds real firings, kFireRingSize of them.
    EXPECT_NE(diag.find("last 64 rule fires (oldest first):"),
              std::string::npos);
    EXPECT_EQ(diag.find("flight recorder"), std::string::npos);
}

/** Every hart gets its CPI and pipeline sink, past the first 32. */
TEST(ObsHub, SinksForEveryHart)
{
    cmd::Kernel k;
    k.elaborate();
    obs::ObsConfig cfg;
    cfg.cpi = true;
    cfg.pipeline = true;
    cfg.pipelinePath.clear();
    obs::ObsHub hub(k, cfg, 33);
    for (uint32_t h = 0; h < 33; h++) {
        EXPECT_NE(hub.cpi(h), nullptr) << "hart " << h;
        EXPECT_NE(hub.pipeline(h), nullptr) << "hart " << h;
    }
    EXPECT_EQ(hub.cpi(33), nullptr);
    EXPECT_EQ(hub.timeline(), nullptr);
}

/** Guard-fail instants are recorded only when asked for. */
TEST(ObsTimeline, GuardFailOptIn)
{
    Assembler a = obsProgram();
    auto on = mkObsSys(a, cmd::SchedulerKind::EventDriven,
                       [](SystemConfig &cfg) {
                           cfg.obs.timelineGuardFails = true;
                       });
    auto off = mkObsSys(a, cmd::SchedulerKind::EventDriven);
    on->kernel().run(3000);
    off->kernel().run(3000);
    std::string jOn = perfettoText(*on);
    std::string jOff = perfettoText(*off);
    EXPECT_NE(jOn.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_EQ(jOff.find("\"ph\": \"i\""), std::string::npos);
}
