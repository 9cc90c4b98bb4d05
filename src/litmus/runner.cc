#include "litmus/runner.hh"

#include <filesystem>
#include <fstream>
#include <random>

#include "asmkit/assembler.hh"
#include "core/fault.hh"
#include "core/harden.hh"
#include "isa/inst.hh"

namespace riscy::litmus {

using namespace asmkit;

namespace {

/** Shared data page: far from code, one cache line per location. */
constexpr Addr kDataOff = 0x40000;
constexpr uint32_t kLocStride = 256;
/** AMO done-counter (own line, within the 12-bit imm of the base). */
constexpr int32_t kDoneOff = 1024;
/**
 * Start-rendezvous deadline (absolute kernel cycle). Without a
 * rendezvous the harts never actually race: every hart but 0 takes a
 * dispatch-branch mispredict plus a cold icache refetch of its own
 * body (~300 cycles on the quad config), so hart bodies execute back
 * to back and the sweep only ever sees sequential interleavings. An
 * AMO counter barrier does not fix this either — the exit reload of
 * the counter line ping-pongs through the hierarchy and the measured
 * exit spread was still ~150-270 cycles. Spinning on the global cycle
 * CSR (csrr cycle is synchronous across harts) until a common
 * absolute deadline costs zero memory traffic, so every hart leaves
 * the rendezvous within one spin iteration of the others. The value
 * must exceed the worst-case cold start (dispatch mispredict + icache
 * refetch + up to kMaxLocs serialized prewarm DRAM misses, with DRAM
 * contention from all four harts).
 */
constexpr int64_t kStartDeadline = 2000;

/** Emit "exit with code in a0" through the host device, then park. */
void
emitExit(Assembler &a)
{
    a.slli(a0, a0, 1);
    a.ori(a0, a0, 1);
    a.li(t6, kMmioBase + static_cast<Addr>(HostReg::Exit));
    a.sd(a0, 0, t6);
    auto spin = a.newLabel();
    a.bind(spin);
    a.j(spin);
}

/** OR the low 4 bits of @p src into a0 at global slot @p slot. */
void
emitPackSlot(Assembler &a, int src, uint32_t slot)
{
    a.andi(t2, src, 0xf);
    if (slot)
        a.slli(t2, t2, 4 * slot);
    a.or_(a0, a0, t2);
}

void
emitHart(Assembler &a, const LitmusProgram &p, uint32_t h, uint32_t skew,
         uint32_t warmMask)
{
    a.li(s0, kDramBase + kDataOff);
    a.li(a0, 0);
    // Seeded cache prewarm: pull a per-seed subset of the data lines
    // into this hart's L1 (shared, initial values — the reads are
    // discarded and happen before the barrier, so they cannot affect
    // the checked outcome under either model). Warm-vs-cold
    // combinations put structurally different races on the table: a
    // warm younger-load line next to a cold older-load line is what
    // opens the load-load reorder window that TSO's eviction kill
    // exists to close.
    for (uint8_t loc = 0; loc < p.numLocs(); loc++)
        if (warmMask & (1u << loc))
            a.ld(t5, int32_t(loc) * kLocStride, s0);
    // Start rendezvous: spin on the global cycle CSR until the common
    // absolute deadline (see kStartDeadline). This absorbs the
    // dispatch mispredict and the cold-icache refetch of the body
    // without generating any memory traffic of its own.
    a.li(t4, kStartDeadline);
    {
        auto barr = a.newLabel();
        a.bind(barr);
        a.csrr(t5, isa::kCsrCycle);
        a.blt(t5, t4, barr);
    }
    // Seeded start skew as a straight-line NOP slide (skew NOPs =
    // skew/width cycles). A branchy delay loop here would be a
    // disaster: its trip-count branch resolves at execute, so the
    // per-iteration cost depends on each hart's predictor state and
    // the harts drift hundreds of cycles apart again (measured: 3.7
    // vs 7.2 cycles/iteration on two harts of the same run). NOPs
    // retire at the machine width on every hart identically. The
    // skew decorrelates the harts' arrival at the shared lines so
    // different seeds visit different interleavings even before any
    // message jitter lands; wrong-path fetch during the rendezvous
    // spin keeps the slide and the body warm in the icache.
    for (uint32_t i = 0; i < skew; i++)
        a.addi(zero, zero, 0);
    uint32_t ldIdx = 0;
    for (const auto &i : p.harts[h]) {
        int32_t off = int32_t(i.loc) * kLocStride;
        switch (i.op) {
        case LOp::Ld:
            // Observed loads land in callee-saved regs s2..s5 (valid()
            // caps loads per hart at 4) and are packed after the body,
            // so the packing ALU ops cannot reorder the memory ops.
            a.ld(s2 + int(ldIdx), off, s0);
            ldIdx++;
            break;
        case LOp::St:
            a.li(t2, i.val);
            a.sd(t2, off, s0);
            break;
        case LOp::Fence:
            a.fence();
            break;
        case LOp::AmoSwap:
        case LOp::AmoAdd:
            a.li(t2, i.val);
            a.addi(t3, s0, off);
            if (i.op == LOp::AmoSwap)
                a.amoswap_d(zero, t2, t3);
            else
                a.amoadd_d(zero, t2, t3);
            break;
        }
    }
    for (uint32_t j = 0; j < ldIdx; j++)
        emitPackSlot(a, s2 + int(j), p.slotBase(h) + j);
    // Publish everything and bump the done counter. The fence and the
    // AMO come *after* every observed access, so they do not
    // strengthen the program under test — they only guarantee that
    // once the counter reads numHarts, all stores live in the
    // coherent domain and final memory is well-defined.
    a.fence();
    a.li(t2, 1);
    a.addi(t3, s0, kDoneOff);
    a.amoadd_d(zero, t2, t3);
    if (h == 0 && !p.finalObs.empty()) {
        a.li(t4, int64_t(p.numHarts()));
        auto spin = a.newLabel();
        a.bind(spin);
        a.ld(t5, kDoneOff, s0);
        a.blt(t5, t4, spin);
        // Serialize past the spin: without this fence the final loads
        // could issue speculatively before the last done-bump and read
        // pre-drain values (the MP weak mechanism, here a harness bug).
        a.fence();
        uint32_t slot = p.slotBase(p.numHarts());
        for (uint8_t loc : p.finalObs) {
            a.ld(t2, int32_t(loc) * kLocStride, s0);
            emitPackSlot(a, t2, slot++);
        }
    }
    emitExit(a);
}

Assembler
assemble(const LitmusProgram &p, const std::vector<uint32_t> &skews,
         const std::vector<uint32_t> &warmMasks)
{
    Assembler a(kDramBase);
    const uint32_t n = p.numHarts();
    std::vector<Assembler::Label> hartL;
    for (uint32_t h = 0; h < n; h++)
        hartL.push_back(a.newLabel());
    if (n > 1) {
        a.csrr(t0, isa::kCsrMhartid);
        for (uint32_t h = 1; h < n; h++) {
            a.li(t1, h);
            a.beq(t0, t1, hartL[h]);
        }
    }
    for (uint32_t h = 0; h < n; h++) {
        a.bind(hartL[h]);
        emitHart(a, p, h, skews[h],
                 h < warmMasks.size() ? warmMasks[h] : 0);
    }
    return a;
}

std::vector<Addr>
stacks(uint32_t n)
{
    std::vector<Addr> s;
    for (uint32_t i = 0; i < n; i++)
        s.push_back(kDramBase + 0x200000 + i * 0x10000);
    return s;
}

std::vector<uint32_t>
drawSkews(uint64_t seed, uint32_t n, uint32_t maxSkew)
{
    // Own stream, decorrelated from the jitter planner's.
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5817);
    std::vector<uint32_t> skews(n, 0);
    if (maxSkew)
        for (auto &s : skews)
            s = uint32_t(rng() % (uint64_t(maxSkew) + 1));
    return skews;
}

/** Per-hart prewarm line masks, each line warm with probability 1/2
 *  (own stream, decorrelated from the skew and jitter streams). */
std::vector<uint32_t>
drawWarmMasks(uint64_t seed, const LitmusProgram &p, bool prewarm)
{
    std::vector<uint32_t> masks(p.numHarts(), 0);
    if (!prewarm)
        return masks;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xA11A);
    for (auto &m : masks)
        m = uint32_t(rng()) & ((1u << p.numLocs()) - 1u);
    return masks;
}

SystemConfig
systemConfig(uint32_t harts, const RunConfig &cfg)
{
    SystemConfig scfg = SystemConfig::multicore(cfg.model == MemModel::Tso);
    scfg.cores = harts;
    scfg.mem.cores = harts;
    scfg.scheduler = cfg.sched;
    // The manual drive loop below has its own cycle budget; the
    // in-run watchdog would only fire on a real kernel deadlock.
    if (cfg.mutateCfg)
        cfg.mutateCfg(scfg);
    return scfg;
}

/**
 * One seeded congestion burst: a bounded window during which the head
 * of one hart's L1 D request channel (or its invalidation-delivery
 * channel from the parent) is re-aged every cycle, freezing that
 * traffic until the burst ends. This is the heavy-tailed half of the
 * shaker: uniform per-message jitter almost never delays one specific
 * load request past a multi-hundred-cycle store-drain chain, but a
 * burst parked on the right channel does — which is exactly the
 * delayed-older-load window TSO's eviction kill exists to close
 * (and, on the fromParent side, the stale-line window WMM's
 * invalidation buffers model). Bursts are bounded, so they perturb
 * timing only and can never wedge the run.
 */
struct Burst {
    uint64_t from = 0;
    uint64_t until = 0;
    cmd::ChannelPort *port = nullptr;
};

std::vector<Burst>
planCongestion(cmd::Kernel &k, const RunConfig &cfg)
{
    std::vector<Burst> bursts;
    if (!cfg.congestBursts)
        return bursts;
    std::vector<cmd::ChannelPort *> cands;
    for (cmd::ChannelPort *cp : k.channelPorts()) {
        const std::string &n = cp->channelName();
        if (n.rfind("mem.chanD", 0) == 0 &&
            (n.size() >= 4 && n.compare(n.size() - 4, 4, ".req") == 0))
            cands.push_back(cp);
        if (n.rfind("mem.chanD", 0) == 0 &&
            n.size() >= 11 &&
            n.compare(n.size() - 11, 11, ".fromParent") == 0)
            cands.push_back(cp);
    }
    if (cands.empty())
        return bursts;
    // Own stream, decorrelated from the skew/prewarm/jitter streams.
    std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0xC0A6);
    for (uint32_t i = 0; i < cfg.congestBursts; i++) {
        Burst b;
        b.port = cands[rng() % cands.size()];
        // Alternate between the race region around the start deadline
        // (where the bodies' memory requests actually are — a burst
        // must cover one from its issue onward to delay it past
        // another hart's store-drain chain) and the whole horizon
        // (prewarm/drain coverage).
        if (i & 1)
            b.from = 1 + rng() % cfg.jitterHorizon;
        else
            b.from = uint64_t(kStartDeadline) - 140 + rng() % 200;
        uint32_t len =
            16 + uint32_t(rng() % std::max<uint32_t>(
                              1, cfg.congestMaxLen > 16
                                     ? cfg.congestMaxLen - 15
                                     : 1));
        b.until = b.from + len;
        bursts.push_back(b);
    }
    return bursts;
}

/**
 * The shared drive loop: jitter plan applied at commit boundaries,
 * congestion bursts re-aging their channel head while active, plain
 * Kernel::cycle() steps while any perturbation can still fire. Once
 * the jitter plan and every congestion burst are exhausted (and no
 * per-cycle hook is installed), the tail switches to windowed
 * Kernel::run() steps so the parallel spot checks exercise
 * multi-cycle lookahead sync (stride > 1); sequential schedulers see
 * the identical per-cycle semantics either way.
 * @return false on hang (budget exhausted or host Fail).
 */
bool
drive(System &sys, const RunConfig &cfg)
{
    cmd::Kernel &k = sys.kernel();
    cmd::FaultInjector inj(k);
    std::vector<cmd::FaultPlan> plan;
    if (cfg.jitterEvents)
        plan = inj.planTimingCampaign(cfg.seed, cfg.jitterEvents,
                                      cfg.jitterHorizon,
                                      cfg.jitterMaxDelay);
    std::vector<Burst> bursts = planCongestion(k, cfg);
    uint64_t burstsEnd = 0;
    for (const Burst &b : bursts)
        burstsEnd = std::max(burstsEnd, b.until);
    size_t pi = 0;
    while (!sys.host().allExited() && !sys.host().failed() &&
           k.cycleCount() < cfg.maxCycles) {
        uint64_t now = k.cycleCount();
        if (pi >= plan.size() && now >= burstsEnd && !cfg.perCycle) {
            // Perturbation-free tail: windowed steps. The stride is 1
            // except under the parallel scheduler with lookahead.
            uint64_t step = std::max<uint32_t>(1, k.syncStride());
            if (step > cfg.maxCycles - now)
                step = cfg.maxCycles - now;
            k.run(step);
            continue;
        }
        while (pi < plan.size() && plan[pi].cycle <= now)
            inj.apply(plan[pi++]);
        for (const Burst &b : bursts)
            if (now >= b.from && now < b.until)
                b.port->faultDelayHead(2);
        if (cfg.perCycle)
            cfg.perCycle(k, now);
        k.cycle();
    }
    return sys.host().allExited();
}

RunResult
runInternal(const LitmusProgram &p, const RunConfig &cfg,
            const std::string *bundleDir, std::string *flight)
{
    std::string why;
    if (!p.valid(&why))
        cmd::kfault(cmd::FaultKind::ApiMisuse, "litmus",
                    "cannot lower invalid program '%s': %s",
                    p.name.c_str(), why.c_str());
    const uint32_t n = p.numHarts();
    SystemConfig scfg = systemConfig(n, cfg);
    if (bundleDir) {
        scfg.obs.pipeline = true;
        scfg.obs.pipelinePath = *bundleDir + "/trace.kanata";
        scfg.obs.timeline = true;
        scfg.obs.timelinePath = *bundleDir + "/trace_timeline.json";
    }
    System sys(scfg);
    Assembler a = assemble(p, drawSkews(cfg.seed, n, cfg.maxStartSkew),
                           drawWarmMasks(cfg.seed, p, cfg.prewarm));
    a.load(sys.mem(), kDramBase);
    sys.elaborate();
    sys.start(kDramBase, 0, stacks(n));

    RunResult r;
    r.hang = !drive(sys, cfg);
    r.cycles = sys.kernel().cycleCount();
    if (!r.hang)
        for (uint32_t h = 0; h < n; h++)
            r.outcome |= sys.host().exitCode(h);
    if (flight)
        *flight = sys.kernel().diagnosticReport();
    if (bundleDir)
        sys.writeTraces();
    return r;
}

} // namespace

double
SweepResult::coverage() const
{
    if (allowed.empty())
        return 1.0;
    size_t seen = 0;
    for (Outcome o : allowed)
        seen += hist.count(o);
    return double(seen) / double(allowed.size());
}

std::vector<uint32_t>
lower(const LitmusProgram &p, const std::vector<uint32_t> &skews)
{
    std::string why;
    if (!p.valid(&why) || skews.size() != p.numHarts())
        cmd::kfault(cmd::FaultKind::ApiMisuse, "litmus",
                    "cannot lower program '%s': %s", p.name.c_str(),
                    why.empty() ? "skew count != hart count"
                                : why.c_str());
    return assemble(p, skews, {}).code();
}

RunResult
runOnce(const LitmusProgram &p, const RunConfig &cfg)
{
    return runInternal(p, cfg, nullptr, nullptr);
}

SweepResult
sweep(const LitmusProgram &p, RunConfig cfg, uint64_t seed0,
      uint32_t runs)
{
    SweepResult s;
    s.allowed = enumerateOutcomes(p, cfg.model);
    for (uint32_t i = 0; i < runs; i++) {
        cfg.seed = seed0 + i;
        RunResult r = runOnce(p, cfg);
        if (r.hang) {
            s.hangs++;
            continue;
        }
        s.hist[r.outcome]++;
        if (!s.allowed.count(r.outcome) &&
            std::find(s.forbidden.begin(), s.forbidden.end(),
                      r.outcome) == s.forbidden.end()) {
            if (s.forbidden.empty())
                s.firstForbiddenSeed = cfg.seed;
            s.forbidden.push_back(r.outcome);
        }
    }
    return s;
}

RunResult
writeReproBundle(const std::string &dir, const LitmusProgram &p,
                 const RunConfig &cfg, const SweepResult *sw)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);

    std::string flight;
    RunResult r = runInternal(p, cfg, &dir, &flight);

    std::ofstream f(dir + "/flight.txt");
    f << flight;
    f.close();

    std::ofstream o(dir + "/repro.txt");
    o << "litmus repro bundle\n"
      << "===================\n"
      << "test:      " << p.name << "\n"
      << "program:   " << p.describe() << "\n"
      << "model:     " << toString(cfg.model) << "\n"
      << "scheduler: " << cmd::toString(cfg.sched) << "\n"
      << "seed:      " << cfg.seed << "\n"
      << "jitter:    " << cfg.jitterEvents << " delays <= "
      << cfg.jitterMaxDelay << " cycles in [1," << cfg.jitterHorizon
      << "]\n"
      << "outcome:   " << formatOutcome(p, r.outcome)
      << (r.hang ? "  (HANG)" : "") << "\n"
      << "cycles:    " << r.cycles << "\n";

    std::set<Outcome> allowed = enumerateOutcomes(p, cfg.model);
    o << "\nallowed under " << toString(cfg.model) << " ("
      << allowed.size() << "):\n";
    for (Outcome a : allowed)
        o << "  " << formatOutcome(p, a) << "\n";
    o << "\nverdict: "
      << (r.hang ? "HANG"
                 : allowed.count(r.outcome) ? "allowed" : "FORBIDDEN")
      << "\n";

    if (sw) {
        o << "\nsweep histogram:\n";
        for (const auto &[out, cnt] : sw->hist)
            o << "  " << cnt << "x " << formatOutcome(p, out)
              << (sw->allowed.count(out) ? "" : "   <-- FORBIDDEN")
              << "\n";
        if (sw->hangs)
            o << "  " << sw->hangs << "x HANG\n";
    }

    // The per-hart start skews, prewarm masks and the exact generated
    // code: enough to re-run this execution without the harness.
    auto skews = drawSkews(cfg.seed, p.numHarts(), cfg.maxStartSkew);
    auto masks = drawWarmMasks(cfg.seed, p, cfg.prewarm);
    o << "\nstart skews:";
    for (uint32_t s : skews)
        o << " " << s;
    o << "\nprewarm line masks:";
    for (uint32_t m : masks)
        o << " 0x" << std::hex << m << std::dec;
    o << "\n\ndisassembly (entry 0x" << std::hex << kDramBase
      << std::dec << "):\n";
    auto code = assemble(p, skews, masks).code();
    for (size_t i = 0; i < code.size(); i++)
        o << "  +" << i * 4 << ":\t"
          << isa::disasm(isa::decode(code[i])) << "\n";

    // Jitter plan, re-derived the same way the run derived it (needs
    // an elaborated design of the same shape for channel names).
    if (cfg.jitterEvents) {
        SystemConfig scfg = systemConfig(p.numHarts(), cfg);
        System sys(scfg);
        sys.elaborate();
        cmd::FaultInjector inj(sys.kernel());
        o << "\njitter plan:\n";
        for (const auto &pl : inj.planTimingCampaign(
                 cfg.seed, cfg.jitterEvents, cfg.jitterHorizon,
                 cfg.jitterMaxDelay))
            o << "  " << pl.describe() << "\n";
    }
    return r;
}

uint64_t
runMpStress(const RunConfig &cfg, uint32_t rounds, bool fenced)
{
    SystemConfig scfg = systemConfig(2, cfg);
    System sys(scfg);

    Assembler a(kDramBase);
    const Addr dataA = kDramBase + kDataOff;
    const int32_t flagOff = kLocStride;
    const int32_t ackOff = 2 * kLocStride;
    auto hart1 = a.newLabel();
    a.csrr(t0, isa::kCsrMhartid);
    a.bnez(t0, hart1);
    // Writer, in lockstep with the observer: publish data then flag,
    // then wait for the ack before the next round. The ack keeps the
    // two harts racing on the SAME round — a free-running writer
    // would leave flag far ahead of the round being checked and the
    // weak window would almost never open.
    a.li(s0, dataA);
    a.li(s2, 0);
    a.li(s3, int64_t(rounds));
    auto l0 = a.newLabel();
    auto spinw = a.newLabel();
    a.bind(l0);
    a.addi(s2, s2, 1);
    a.sd(s2, 0, s0);
    if (fenced)
        a.fence();
    a.sd(s2, flagOff, s0);
    a.bind(spinw);
    a.ld(t1, ackOff, s0);
    a.blt(t1, s2, spinw);
    a.bne(s2, s3, l0);
    a.li(a0, 0);
    emitExit(a);
    // Observer: spin flag >= r, [fence], check data >= r, ack r.
    a.bind(hart1);
    a.li(s0, dataA);
    a.li(s2, 0);
    a.li(s3, int64_t(rounds));
    a.li(a0, 0); // violation count
    auto l1 = a.newLabel();
    auto spin = a.newLabel();
    auto ok = a.newLabel();
    a.bind(l1);
    a.addi(s2, s2, 1);
    a.bind(spin);
    a.ld(t1, flagOff, s0);
    a.blt(t1, s2, spin);
    if (fenced)
        a.fence();
    a.ld(t2, 0, s0);
    a.bge(t2, s2, ok);
    a.addi(a0, a0, 1);
    a.bind(ok);
    a.sd(s2, ackOff, s0);
    a.bne(s2, s3, l1);
    emitExit(a);

    a.load(sys.mem(), kDramBase);
    sys.elaborate();
    sys.start(kDramBase, 0, stacks(2));

    RunConfig dcfg = cfg;
    // Spin rounds under jitter take longer than a straight-line
    // litmus run; scale the budget with the round count.
    dcfg.maxCycles =
        std::max<uint64_t>(cfg.maxCycles, uint64_t(rounds) * 30000);
    dcfg.jitterHorizon =
        std::max<uint64_t>(cfg.jitterHorizon, uint64_t(rounds) * 500);
    if (!drive(sys, dcfg))
        cmd::kfault(cmd::FaultKind::Watchdog, "litmus",
                    "MP stress hang (model=%s fenced=%d seed=%llu)",
                    toString(cfg.model), int(fenced),
                    (unsigned long long)cfg.seed);
    return sys.host().exitCode(1);
}

} // namespace riscy::litmus
