/**
 * @file
 * Core and system configurations, including the paper's named
 * variants (Fig. 12 / Fig. 14) and the comparison stand-ins used by
 * the benchmark harness (Fig. 13): Rocket-class in-order baselines
 * and the wider-superscalar configurations standing in for the
 * commercial ARM cores and BOOM.
 */
#pragma once

#include "cache/hierarchy.hh"
#include "core/kernel.hh"
#include "obs/obs_config.hh"
#include "ooo/iq.hh"
#include "proc/sampling.hh"
#include "tlb/tlb.hh"

namespace riscy {

struct CoreConfig {
    uint32_t width = 2;        ///< fetch/rename/commit width
    uint32_t aluPipes = 2;
    uint32_t robSize = 64;
    uint32_t iqSize = 16;      ///< per pipeline
    uint32_t lqSize = 24;
    uint32_t sqSize = 14;
    uint32_t sbSize = 4;
    uint32_t numSpecTags = 8;
    uint32_t btbEntries = 256;
    uint32_t rasEntries = 8;
    uint32_t mulLatency = 3;
    uint32_t divLatency = 16;
    bool tso = true;           ///< TSO when true, WMM otherwise
    /**
     * TSO only: kill speculatively-executed loads whose line leaves
     * the L1 (the load-load ordering mechanism). Turning this off
     * deliberately breaks TSO — it exists so the litmus harness can
     * prove in a negative test that it catches the resulting
     * forbidden outcomes. Never disable outside that test.
     */
    bool tsoEvictKill = true;
    IssueQueue::Ordering iqOrder = IssueQueue::Ordering::WakeupIssueEnter;
    L1Tlb::Config itlb{32, 1, false};
    L1Tlb::Config dtlb{32, 1, false};
    L2Tlb::Config l2tlb{2048, 4, 1, false, 24};
    /** SQ store-prefetch hints (the paper's unimplemented feature):
     *  acquire write permission for queued stores ahead of commit. */
    bool storePrefetch = false;

    /** Physical registers: one per ROB entry plus the 32 committed. */
    uint32_t numPhys() const { return robSize + 32; }
};

struct SystemConfig {
    std::string name = "custom";
    uint32_t cores = 1;
    bool inOrder = false; ///< Rocket-class baseline core
    /**
     * Rule-scheduling strategy of the kernel (see cmd::SchedulerKind).
     * EventDriven skips rules proven not-ready by sensitivity
     * tracking and is architecturally bit-identical to Exhaustive;
     * the lockstep cosim tests (test_scheduler) verify this.
     */
    cmd::SchedulerKind scheduler = cmd::SchedulerKind::EventDriven;
    /**
     * Execution threads for SchedulerKind::Parallel (including the
     * driving thread); 0 picks min(hardware concurrency, domain
     * count). Ignored by the sequential schedulers.
     */
    uint32_t threads = 0;
    /**
     * Cap on the parallel scheduler's multi-cycle sync window
     * (lookahead), in cycles. 0 = auto: use the minimum latency over
     * all cross-domain channels ("fifo-min"), computed at
     * elaboration. The effective window is always min(cap, fifo-min).
     * Ignored by the sequential schedulers.
     */
    uint32_t lookahead = 0;

    // ---- execution mode (see proc/sampling.hh and System::run*)
    /**
     * How the program executes: Detailed (every cycle through the CMD
     * kernel; System::run), FastForward (pure functional
     * interpretation at multi-MIPS; System::runFastForward), or
     * Sampled (SMARTS-style skip/warmup/measure sampling with warm
     * checkpoint handoffs; System::runSampled). FastForward supports
     * any core count and either core; Sampled requires a single OOO
     * core (inOrder = false).
     */
    ExecMode execMode = ExecMode::Detailed;
    /** Interval tuple for ExecMode::Sampled. */
    SamplingConfig sampling;

    // ---- hardening knobs (see core/harden.hh and System::run)
    /** Wall-clock budget for System::run; 0 = unlimited. */
    uint64_t maxWallSeconds = 0;
    /**
     * Forward-progress window: a run with zero commits for this many
     * cycles trips the watchdog (KernelFault with diagnostics instead
     * of a silent hang). 0 disables.
     */
    uint64_t watchdogStallCycles = 200000;
    /** Cycles between periodic checkpoints; 0 disables. */
    uint64_t checkpointEvery = 0;
    /** Checkpoint file (required when checkpointEvery > 0). */
    std::string checkpointPath;
    /** KernelFaults absorbed (restore + degrade) before giving up. */
    uint32_t maxFaultRetries = 3;
    /** Degrade Parallel -> EventDriven -> Exhaustive on a fault. */
    bool degradeScheduler = true;

    // ---- observability (see obs/obs_config.hh and System::elaborate)
    /** Trace/attribution sinks: Konata pipeline traces, Perfetto rule
     *  timelines, top-down CPI stacks. All off by default. */
    obs::ObsConfig obs;
    /**
     * Warmup window: reset every stats group (counters, histograms)
     * and the CPI stacks once the kernel reaches this cycle, so
     * post-warmup stats exclude cold caches/predictors. 0 disables.
     */
    uint64_t statsResetAtCycle = 0;

    CoreConfig core;
    MemHierarchyConfig mem;

    /** Fig. 12: the RiscyOO-B baseline configuration. */
    static SystemConfig
    riscyooB()
    {
        SystemConfig s;
        s.name = "RiscyOO-B";
        s.mem.l1d = {32, 8, 8, true};
        s.mem.l1i = {32, 8, 4, false};
        s.mem.l2 = {1024, 16, 16};
        s.mem.dram = {120, 24, 10};
        return s;
    }

    /** Fig. 14: RiscyOO-C- (16KB L1 I/D, 256KB L2). */
    static SystemConfig
    riscyooCMinus()
    {
        SystemConfig s = riscyooB();
        s.name = "RiscyOO-C-";
        s.mem.l1d.sizeKb = 16;
        s.mem.l1i.sizeKb = 16;
        s.mem.l2.sizeKb = 256;
        return s;
    }

    /** Fig. 14: RiscyOO-T+ (non-blocking TLBs + walk cache). */
    static SystemConfig
    riscyooTPlus()
    {
        SystemConfig s = riscyooB();
        s.name = "RiscyOO-T+";
        s.core.dtlb = {32, 4, true};
        s.core.l2tlb = {2048, 4, 2, true, 24};
        return s;
    }

    /** Fig. 14: RiscyOO-T+R+ (80-entry ROB, more spec tags). */
    static SystemConfig
    riscyooTPlusRPlus()
    {
        SystemConfig s = riscyooTPlus();
        s.name = "RiscyOO-T+R+";
        s.core.robSize = 80;
        s.core.numSpecTags = 12;
        return s;
    }

    /** Fig. 13: Rocket-class in-order core, configurable memory. */
    static SystemConfig
    rocket(uint32_t memLatency)
    {
        SystemConfig s;
        s.name = memLatency <= 10 ? "Rocket-10" : "Rocket-120";
        s.inOrder = true;
        s.mem.l1d = {16, 4, 4, true};
        s.mem.l1i = {16, 4, 4, false};
        // "no L2": a minimal pass-through L2 with memory latency
        // folded into DRAM (the AWS Rocket has no L2, Fig. 13 note).
        s.mem.l2 = {64, 4, 8};
        s.mem.parentChanDelay = 1;
        s.mem.dram = {memLatency, 8, 2};
        return s;
    }

    /** Fig. 18 stand-in: a 3-wide OOO core (A57-class shape). */
    static SystemConfig
    wide3()
    {
        SystemConfig s = riscyooTPlus();
        s.name = "Wide-3 (A57-class)";
        s.core.width = 3;
        s.core.aluPipes = 3;
        s.core.robSize = 128;
        s.core.iqSize = 24;
        s.core.lqSize = 32;
        s.core.sqSize = 24;
        s.core.numSpecTags = 12;
        s.mem.l1d.prefetchNextLine = true;
        s.mem.l1i.sizeKb = 48;
        s.mem.l1i.ways = 6; // keep the set count a power of two
        s.mem.l2.sizeKb = 2048;
        return s;
    }

    /** Fig. 18 stand-in: an aggressive 7-wide core (Denver-class). */
    static SystemConfig
    wide7()
    {
        SystemConfig s = riscyooTPlus();
        s.name = "Wide-7 (Denver-class)";
        s.core.width = 4; // rename bandwidth saturates at 4 here
        s.core.aluPipes = 4;
        s.core.robSize = 192;
        s.core.iqSize = 32;
        s.core.lqSize = 48;
        s.core.sqSize = 32;
        s.core.numSpecTags = 14;
        s.mem.l1d.prefetchNextLine = true;
        s.mem.l1i.sizeKb = 128;
        s.mem.l1d.sizeKb = 64;
        s.mem.l2.sizeKb = 2048;
        return s;
    }

    /** Fig. 19 comparison: BOOM-matched sizes. */
    static SystemConfig
    boomLike()
    {
        SystemConfig s;
        s.name = "BOOM-like";
        s.core.robSize = 80;
        s.core.numSpecTags = 8;
        s.mem.l1d = {32, 8, 8, true};
        s.mem.l1i = {32, 8, 4, false};
        s.mem.l2 = {1024, 16, 16};
        s.mem.parentChanDelay = 18; // BOOM's 23-cycle L2
        s.mem.dram = {80, 24, 10};  // BOOM's 80-cycle memory
        return s;
    }

    /** Quad-core config used for the PARSEC runs (Section VI-B). */
    static SystemConfig
    multicore(bool tso)
    {
        SystemConfig s = riscyooTPlus();
        s.name = tso ? "quad-TSO" : "quad-WMM";
        s.cores = 4;
        s.mem.cores = 4;
        s.core.robSize = 48;
        s.core.lqSize = 16;
        s.core.sqSize = 10;
        s.core.tso = tso;
        // Latency-bearing domain cuts: give every cross-domain channel
        // (core<->L2 request/response and the page-walk ports; the
        // L2->L1 parent channel already sits at 6) at least 4 cycles,
        // so the parallel scheduler's lookahead window is 4 — one
        // barrier per 4 simulated cycles instead of one per cycle.
        s.mem.childChanDelay = 4;
        s.mem.walkPortDelay = 4;
        return s;
    }

    /**
     * Server-scale config: @p nCores cores (8/16/32/64) behind
     * @p nBanks line-interleaved L2 directory slices and the DramCtl
     * contention model — the topology the KV-serving bench drives.
     * The quad presets are untouched by this family; banking only
     * activates through mem.l2Banks > 1.
     */
    static SystemConfig
    serverConfig(uint32_t nCores, uint32_t nBanks = 4)
    {
        SystemConfig s = riscyooTPlus();
        s.name = "server-" + std::to_string(nCores) + "c" +
                 std::to_string(nBanks) + "b";
        s.cores = nCores;
        s.mem.cores = nCores;
        // Same per-core sizing as the quad preset: the interesting
        // scaling is in the shared memory system, not the cores.
        s.core.robSize = 48;
        s.core.lqSize = 16;
        s.core.sqSize = 10;
        s.core.tso = true;
        s.mem.l2Banks = nBanks;
        // Per-slice geometry: 512 KB x banks of shared L2, 16 ways.
        s.mem.l2 = {512, 16, 16};
        s.mem.dramCtl = DramCtl::Config{};
        // Keep every cross-domain cut (router<->bank channels at
        // childChanDelay/parentChanDelay, bank<->DRAM channels at
        // dramCtl.chanDelay) at >= 4 cycles so the parallel
        // scheduler's fifo-min lookahead window stays 4.
        s.mem.childChanDelay = 4;
        s.mem.walkPortDelay = 4;
        s.mem.dramCtl.chanDelay = 4;
        return s;
    }
};

} // namespace riscy
