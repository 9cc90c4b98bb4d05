/**
 * @file
 * Deterministic fault-injection campaign on the OOO core (see
 * core/harden.hh and DESIGN.md "Hardening & fault injection").
 *
 * A self-checking checksum workload runs once clean (the golden run),
 * then once per planned fault with exactly one fault injected at its
 * planned commit boundary. Each faulted run is classified against the
 * golden commit stream and exit code:
 *
 *   masked   - exited cleanly, commit stream and exit code identical
 *   detected - KernelFault (design error), or the workload's own
 *              checksum self-check fired the host Fail channel
 *   sdc      - exited "cleanly" with a divergent result (silent data
 *              corruption)
 *   hang     - forward-progress watchdog tripped, or the cycle budget
 *              ran out (deadlock/livelock)
 *
 * Three legs share one workload image, all under the event-driven
 * scheduler: the general single-core slice, a register-file AVF slice
 * (flips into hart0.prf, where SDCs concentrate), and a quad-core slice
 * on the PARSEC multicore config (faults land anywhere in four cores +
 * the coherent hierarchy).
 *
 * The campaign is bit-reproducible: plans are a pure function of
 * (seed, design), and the whole campaign is run twice and compared.
 * Crash dumps of the first few detected/hung runs land in
 * fault_dumps/; results go to BENCH_faults.json.
 *
 * Usage: fault_campaign [nFaults=48] [seed=20260805] [out.json]
 */
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "asmkit/assembler.hh"
#include "bench_common.hh"
#include "isa/csr.hh"

using namespace riscy;
using namespace riscy::bench;
using namespace riscy::asmkit;
using cmd::FaultInjector;
using cmd::FaultOutcome;
using cmd::FaultPlan;
using cmd::FaultType;
using cmd::KernelFault;
using cmd::strfmt;
using cmd::Watchdog;

namespace {

constexpr Addr kEntry = kDramBase;

/**
 * Fill-then-verify checksum kernel, engineered so every outcome class
 * is reachable: pass 1 fills 256 dwords from an LCG while summing in a
 * register; pass 2 re-sums from memory; a mismatch stores to the host
 * Fail channel (detected). A second accumulator (s5) stays live in a
 * register for the whole run and folds into the exit code without ever
 * being cross-checked -- corruption of unchecked-but-architecturally-
 * live state is exactly what silent data corruption is, so strikes on
 * it surface as SDC rather than detected.
 */
Assembler
checksumWorkload()
{
    Assembler a(kEntry);
    constexpr int kWords = 256;
    // Hart-aware: each hart works a private 4KB array region with a
    // per-hart LCG seed, so the one image runs 1- or 4-core unchanged
    // and every hart exits with its own checksum.
    a.csrr(t5, isa::kCsrMhartid);
    a.slli(t6, t5, 12);
    a.li(s0, kEntry + 0x10000); // array base...
    a.add(s0, s0, t6);          // ...plus 4KB per hart
    a.li(s1, 0);                // i
    a.li(s2, 0);                // sum1 (fill-time)
    a.li(s3, 0x1234);           // LCG state...
    a.add(s3, s3, t5);          // ...decorrelated per hart
    a.li(s5, 0xabcd);           // unchecked accumulator (SDC surface)
    a.slli(t6, t5, 4);
    a.xor_(s5, s5, t6);
    a.li(t0, 0x27bb2ee6);       // LCG multiplier
    a.li(t2, kWords);
    auto fill = a.newLabel();
    a.bind(fill);
    a.mul(s3, s3, t0);
    a.addi(s3, s3, 0x5b5);
    a.slli(t1, s1, 3);
    a.add(t1, t1, s0);
    a.sd(s3, 0, t1);
    a.add(s2, s2, s3);
    a.slli(t4, s5, 1);
    a.xor_(s5, t4, s1);
    a.addi(s1, s1, 1);
    a.blt(s1, t2, fill);

    a.li(s1, 0);
    a.li(s4, 0); // sum2 (verify-time)
    auto verify = a.newLabel();
    a.bind(verify);
    a.slli(t1, s1, 3);
    a.add(t1, t1, s0);
    a.ld(t3, 0, t1);
    a.add(s4, s4, t3);
    a.addi(s1, s1, 1);
    a.blt(s1, t2, verify);

    auto fail = a.newLabel();
    a.bne(s2, s4, fail);
    // exit(((sum1 ^ s5) & 0xffffff) | 1): both checksums are the
    // visible result, but only sum1 was cross-checked.
    a.xor_(a0, s2, s5);
    a.li(t1, 0xffffff);
    a.and_(a0, a0, t1);
    a.slli(a0, a0, 1);
    a.ori(a0, a0, 1);
    a.li(t6, kMmioBase + static_cast<Addr>(HostReg::Exit));
    a.sd(a0, 0, t6);
    auto spin1 = a.newLabel();
    a.bind(spin1);
    a.j(spin1);

    a.bind(fail); // self-check mismatch: raise the Fail channel
    a.li(t6, kMmioBase + static_cast<Addr>(HostReg::Fail));
    a.sd(s2, 0, t6);
    auto spin2 = a.newLabel();
    a.bind(spin2);
    a.j(spin2);
    return a;
}

/** Order-sensitive FNV-1a over the architectural commit stream. */
struct CommitDigest
{
    uint64_t h = 1469598103934665603ull;
    void
    add(const CommitRecord &r)
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
};

struct RunResultF
{
    FaultOutcome outcome = FaultOutcome::Masked;
    uint64_t digest = 0;
    uint64_t exitCode = 0;
    uint64_t cycles = 0;
    uint64_t instret = 0;
    uint64_t wallNs = 0;
    bool exited = false;
    std::string dump; ///< crash-dump body for detected/hang runs
};

constexpr cmd::SchedulerKind kSched = cmd::SchedulerKind::EventDriven;

/** Leg geometry: which machine a run (and its plans) targets. */
SystemConfig
legConfig(uint32_t cores)
{
    SystemConfig cfg = cores > 1 ? SystemConfig::multicore(/*tso=*/true)
                                 : SystemConfig::riscyooB();
    cfg.cores = cores;
    cfg.scheduler = kSched;
    return cfg;
}

/**
 * One run of the workload with at most one fault injected. The drive
 * loop applies the plan at its commit boundary, releases GuardStuck
 * windows, and polls a heartbeat watchdog. All harts' commit streams
 * and exit codes fold into one digest, so any hart's divergence is a
 * campaign divergence.
 */
RunResultF
runOne(const Assembler &prog, const FaultPlan *plan, uint64_t budget,
       uint64_t stallCycles, uint32_t cores)
{
    System sys(legConfig(cores));
    const_cast<Assembler &>(prog).load(sys.mem(), kEntry);
    sys.elaborate();

    RunResultF r;
    std::vector<CommitDigest> dig(cores);
    for (uint32_t h = 0; h < cores; h++)
        sys.setOnCommit(
            h, [&dig, h](const CommitRecord &rec) { dig[h].add(rec); });
    std::vector<Addr> sp;
    for (uint32_t h = 0; h < cores; h++)
        sp.push_back(kEntry + 0x40000 + h * 0x10000);
    sys.start(kEntry, 0, sp);

    cmd::Kernel &k = sys.kernel();
    FaultInjector inj(k);
    Watchdog wd(k, stallCycles);
    wd.setHeartbeat([&] {
        uint64_t hb = 0;
        for (uint32_t h = 0; h < cores; h++)
            hb += sys.instret(h) + (sys.host().exited(h) ? 1 : 0);
        return hb;
    });

    uint64_t releaseAt = 0;
    uint64_t sincePoll = 0;
    auto t0 = std::chrono::steady_clock::now();
    auto stamp = [&] {
        r.instret = 0;
        for (uint32_t h = 0; h < cores; h++)
            r.instret += sys.instret(h);
        r.wallNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };
    auto foldDigest = [&] {
        uint64_t d = dig[0].h;
        for (uint32_t h = 1; h < cores; h++)
            d = d * 1099511628211ull ^ dig[h].h;
        return d;
    };
    try {
        while (k.cycleCount() < budget) {
            if (sys.host().allExited() || sys.host().failed())
                break;
            if (plan && k.cycleCount() == plan->cycle) {
                inj.apply(*plan);
                if (plan->type == FaultType::GuardStuck)
                    releaseAt = plan->cycle + plan->param;
            }
            if (releaseAt && k.cycleCount() == releaseAt) {
                inj.release(*plan);
                releaseAt = 0;
            }
            k.cycle();
            if (++sincePoll >= 64) {
                sincePoll = 0;
                wd.observe();
            }
        }
    } catch (const KernelFault &f) {
        r.outcome = f.kind() == cmd::FaultKind::Watchdog
                        ? FaultOutcome::Hang
                        : FaultOutcome::Detected;
        r.digest = foldDigest();
        r.cycles = k.cycleCount();
        r.dump = f.describe();
        stamp();
        return r;
    }

    r.digest = foldDigest();
    r.cycles = k.cycleCount();
    stamp();
    if (sys.host().failed()) {
        r.outcome = FaultOutcome::Detected;
        r.dump = strfmt("workload self-check failed (code %#llx)\n",
                        (unsigned long long)sys.host().failCode());
        return r;
    }
    if (!sys.host().allExited()) {
        r.outcome = FaultOutcome::Hang;
        r.dump = "cycle budget exhausted without exit\n" +
                 k.diagnosticReport();
        return r;
    }
    r.exited = true;
    r.exitCode = sys.host().exitCode(0);
    // Secondary harts' exit codes ride the digest, so a divergent code
    // on any hart declassifies "masked" even when hart 0 agrees.
    for (uint32_t h = 1; h < cores; h++)
        r.digest = r.digest * 1099511628211ull ^ sys.host().exitCode(h);
    return r;
}

FaultOutcome
classify(const RunResultF &run, const RunResultF &golden)
{
    if (!run.exited)
        return run.outcome; // Detected or Hang, already decided
    if (run.exitCode == golden.exitCode && run.digest == golden.digest)
        return FaultOutcome::Masked;
    return FaultOutcome::SDC;
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t nFaults = argc > 1 ? uint32_t(std::atoi(argv[1])) : 48;
    uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 0)
                             : 20260805ull;
    std::string outPath = argc > 3 ? argv[3] : "";

    Assembler prog = checksumWorkload();

    // Golden references: one clean run per machine geometry, generous
    // budget.
    struct LegSpec {
        const char *name;
        uint32_t cores;
        uint32_t n;
        uint64_t seed;
        const char *filter;
        RunResultF golden;
    };
    const uint32_t nRfSlice = std::max(8u, nFaults / 2);
    const uint32_t nSmall = std::max(8u, nFaults / 4);
    std::vector<LegSpec> legs = {
        {"general", 1, nFaults, seed, "", {}},
        {"regfile", 1, nRfSlice, seed ^ 0x9e3779b97f4a7c15ull, "hart0.prf",
         {}},
        {"quad", 4, nSmall, seed ^ 0x71adc0deull, "", {}},
    };
    for (LegSpec &leg : legs) {
        leg.golden = runOne(prog, nullptr, 4000000, 40000, leg.cores);
        if (!leg.golden.exited) {
            std::fprintf(stderr, "%s golden run did not exit cleanly\n",
                         leg.name);
            return 1;
        }
        std::printf("golden[%-8s]: %llu cycles, exit %#llx, "
                    "commit digest %#llx\n",
                    leg.name, (unsigned long long)leg.golden.cycles,
                    (unsigned long long)leg.golden.exitCode,
                    (unsigned long long)leg.golden.digest);
    }

    auto campaign = [&](std::vector<FaultPlan> &plansOut,
                        std::vector<uint32_t> &legOut) {
        std::vector<RunResultF> runs;
        for (uint32_t li = 0; li < legs.size(); li++) {
            const LegSpec &leg = legs[li];
            // Plans target cycles across ~90% of the leg's golden run;
            // budget and watchdog window scale with its clean runtime.
            const uint64_t maxCycle = leg.golden.cycles * 9 / 10;
            const uint64_t budget = leg.golden.cycles * 4 + 20000;
            const uint64_t stall = leg.golden.cycles / 2 + 2000;
            // A throwaway elaborated instance supplies the state/
            // channel/rule tables the planner draws from (identical
            // across instances of one design geometry).
            System probe(legConfig(leg.cores));
            probe.elaborate();
            FaultInjector planner(probe.kernel());
            std::vector<FaultPlan> plans = planner.planCampaign(
                leg.seed, leg.n, maxCycle, leg.filter);
            for (const FaultPlan &p : plans) {
                RunResultF r = runOne(prog, &p, budget, stall, leg.cores);
                r.outcome = classify(r, leg.golden);
                runs.push_back(std::move(r));
                plansOut.push_back(p);
                legOut.push_back(li);
            }
        }
        return runs;
    };

    std::vector<FaultPlan> plans, plans2;
    std::vector<uint32_t> legIdx, legIdx2;
    std::vector<RunResultF> runs = campaign(plans, legIdx);
    std::vector<RunResultF> rerun = campaign(plans2, legIdx2);

    // Bit-reproducibility: the same seed must replay the same plans,
    // outcomes, and commit digests.
    bool reproducible = runs.size() == rerun.size();
    for (size_t i = 0; reproducible && i < runs.size(); i++) {
        reproducible = plans[i].describe() == plans2[i].describe() &&
                       runs[i].outcome == rerun[i].outcome &&
                       runs[i].digest == rerun[i].digest;
    }

    uint32_t counts[4] = {0, 0, 0, 0};
    std::filesystem::create_directories("fault_dumps");
    uint32_t dumpsWritten = 0;
    std::vector<JsonObject> rows;
    std::printf("\n%-4s %-8s %-44s %-9s %s\n", "#", "leg", "fault",
                "outcome", "cycles");
    for (size_t i = 0; i < runs.size(); i++) {
        const RunResultF &r = runs[i];
        const LegSpec &leg = legs[legIdx[i]];
        counts[uint32_t(r.outcome)]++;
        std::printf("%-4zu %-8s %-44s %-9s %llu\n", i, leg.name,
                    plans[i].describe().c_str(), toString(r.outcome),
                    (unsigned long long)r.cycles);
        if (!r.dump.empty() && dumpsWritten < 16) {
            std::ofstream d(strfmt("fault_dumps/fault_%02zu_%s.txt", i,
                                   toString(r.outcome)));
            d << leg.name << " " << plans[i].describe() << "\n\n"
              << r.dump;
            dumpsWritten++;
        }
        JsonObject row;
        row.put("index", uint64_t(i));
        row.put("leg", leg.name);
        row.put("cores", uint64_t(leg.cores));
        row.put("fault", plans[i].describe());
        row.put("type", toString(plans[i].type));
        row.put("inject_cycle", plans[i].cycle);
        row.put("outcome", toString(r.outcome));
        row.put("cycles", r.cycles);
        putSimSpeed(row, r.instret, r.wallNs);
        row.putHex("commit_digest", r.digest);
        rows.push_back(std::move(row));
    }

    std::printf("\ncampaign: %zu faults (%u general + %u regfile + "
                "%u quad) -> %u masked, %u detected, %u sdc, %u hang; "
                "reproducible=%s\n",
                runs.size(), nFaults, nRfSlice, nSmall, counts[0],
                counts[1], counts[2], counts[3],
                reproducible ? "yes" : "NO");

    JsonObject config;
    config.put("workload", "checksum-selfcheck");
    config.put("system", "RiscyOO-B / quad-TSO");
    config.put("scheduler", cmd::toString(kSched));
    config.put("seed", seed);
    config.put("faults_general", uint64_t(nFaults));
    config.put("faults_regfile_slice", uint64_t(nRfSlice));
    config.put("faults_quad_slice", uint64_t(nSmall));
    config.put("golden_cycles", legs[0].golden.cycles);
    config.putHex("golden_digest", legs[0].golden.digest);
    config.put("golden_cycles_quad", legs[2].golden.cycles);
    config.putHex("golden_digest_quad", legs[2].golden.digest);
    config.put("masked", uint64_t(counts[0]));
    config.put("detected", uint64_t(counts[1]));
    config.put("sdc", uint64_t(counts[2]));
    config.put("hang", uint64_t(counts[3]));
    config.put("reproducible", reproducible);
    writeBenchJson("faults", config, rows, outPath);

    return reproducible ? 0 : 1;
}
