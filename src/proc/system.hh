/**
 * @file
 * System assembly: cores (OOO or in-order) + the coherent memory
 * hierarchy + host device, per Fig. 11. Also provides the hardened
 * run loop (core/harden.hh): commit-progress watchdog, wall-clock
 * budget and periodic checkpoints. A KernelFault ends the run; resume
 * is an explicit restoreCheckpoint().
 */
#pragma once

#include "core/harden.hh"
#include "obs/hub.hh"
#include "proc/inorder_core.hh"
#include "proc/ooo_core.hh"

namespace riscy {

/** Why the last System::run() family call returned. */
enum class StopReason : uint8_t {
    None,      ///< run() not called yet
    AllExited, ///< every hart exited cleanly via the host device
    HostFail,  ///< the host device's Fail channel fired
    MaxCycles, ///< cycle budget exhausted
    WallClock, ///< SystemConfig::maxWallSeconds budget exhausted
    MaxInsts,  ///< instruction/interval budget exhausted (fast-forward
               ///< and sampled modes)
};

const char *toString(StopReason r);

class System
{
  public:
    explicit System(const SystemConfig &cfg);

    cmd::Kernel &kernel() { return k_; }
    PhysMem &mem() { return mem_; }
    HostDevice &host() { return *host_; }
    MemHierarchy &hier() { return *hier_; }
    const SystemConfig &config() const { return cfg_; }
    uint32_t cores() const { return cfg_.cores; }

    /** Finalize the design (Kernel::elaborate) and, when any
     *  SystemConfig::obs sink or the warmup stats reset is enabled,
     *  install the observability hub. */
    void elaborate();

    /** Reset every hart (after elaborate). One stack top per hart. */
    void start(Addr entry, uint64_t satp, const std::vector<Addr> &sp);

    /**
     * Run until every hart exits via the host device, the host flags
     * a failure, the cycle budget runs out, or (when configured) the
     * wall-clock budget runs out — stopReason() says which. Driven by
     * a cmd::HardenedRunner: if no instruction commits for
     * SystemConfig::watchdogStallCycles, the watchdog raises a
     * KernelFault(Watchdog) with full diagnostics. Any KernelFault
     * propagates out of run() the first time it happens, with the
     * scheduler unchanged. @return true if all harts exited cleanly.
     */
    bool run(uint64_t maxCycles);

    /** Why the last run() returned. */
    StopReason stopReason() const { return stopReason_; }

    // ---- execution modes (SystemConfig::execMode, proc/sampling.hh)
    /**
     * Run purely functionally through the per-hart GoldenModel
     * interpreters (ExecMode::FastForward or Sampled; harts are
     * created by start()). Multi-hart programs interleave in
     * round-robin instruction batches, so spin barriers still make
     * progress. Stops on clean exit, host failure, or after
     * @p maxInsts total instructions (0 = no budget). No kernel
     * cycles elapse. @return true if all harts exited cleanly.
     */
    bool runFastForward(uint64_t maxInsts = 0);

    /**
     * Handoff, functional -> detailed: materialize every functional
     * hart's architectural state into its OOO core
     * (OooCore::resumeArch). Memory and the host device are already
     * shared. Detailed execution may then continue with run(). Valid
     * only on the OOO core and only before any detailed cycle has run
     * (the pipelines and caches still hold start()'s empty state);
     * otherwise ApiMisuse.
     */
    void handoffToDetailed();

    /**
     * SMARTS-style sampled simulation (ExecMode::Sampled) on a
     * single OOO core; any other config raises
     * KernelFault{ApiMisuse} before a cycle runs. Repeats (skip,
     * warmup, measure) intervals per SystemConfig::sampling until the
     * program exits or @p maxInsts total instructions ran (0 = no
     * budget); sampleStats() holds the estimate. During the detailed
     * windows a ShadowTracker follows the commit stream, so the
     * handoff back to fast-forward takes registers and memory from it,
     * not from the pipeline or the caches.
     * @return true if the program exited cleanly.
     */
    bool runSampled(uint64_t maxInsts = 0);

    /** Aggregate fast-forward/sampling outcome of the last run. */
    const SampleStats &sampleStats() const { return sampleStats_; }

    /** Functional hart @p i (valid after start() in FF/Sampled mode). */
    isa::GoldenModel &funcHart(uint32_t i) { return *funcHarts_[i]; }

    /**
     * Extra bytes carried inside each checkpoint alongside the kernel
     * snapshot and memory/host images (e.g. a commit-stream digest).
     * Set before the first run().
     */
    void setCheckpointUserHooks(
        std::function<std::vector<uint8_t>()> save,
        std::function<void(const std::vector<uint8_t> &)> load);

    /**
     * Resume from the checkpoint at SystemConfig::checkpointPath
     * (crash recovery: build the same System, elaborate, then restore
     * instead of start()). @return false when no checkpoint exists.
     */
    bool restoreCheckpoint();

    /**
     * Retired: always 0, since run() no longer absorbs faults. Kept
     * only because perfbench/perf_e2e.cc still calls it.
     */
    uint32_t faultRetries() const { return 0; }

    uint64_t instret(uint32_t i) const;
    void setOnCommit(uint32_t i, std::function<void(const CommitRecord &)>);

    /** Headline per-hart event counts for the benchmark harness. */
    struct EventCounts {
        uint64_t instret = 0;
        uint64_t cycles = 0;
        uint64_t wallNs = 0; ///< host time spent in System::run (KIPS)
        uint64_t dtlbMisses = 0;
        uint64_t l2tlbMisses = 0;
        uint64_t branchMispredicts = 0;
        uint64_t l1dMisses = 0;
        uint64_t l2Misses = 0;
        uint64_t ldKills = 0;
        uint64_t evictKills = 0;
        /// parallel scheduler: barrier synchronizations performed
        /// (== cycles at stride 1; divided by the lookahead otherwise)
        uint64_t syncEpochs = 0;
    };
    EventCounts events(uint32_t i) const;

    /** Host nanoseconds accumulated across all run() calls. */
    uint64_t runWallNs() const { return runWallNs_; }

    // ---- observability (src/obs, SystemConfig::obs)
    /** The installed hub, or null when every obs sink is off. */
    obs::ObsHub *obsHub() { return obsHub_.get(); }
    /** Per-hart CPI stack, or null when obs.cpi is off. */
    const obs::CpiStack *
    cpi(uint32_t i) const
    {
        return obsHub_ ? obsHub_->cpi(i) : nullptr;
    }
    /**
     * Export the CPI stacks into the per-core stats groups (counters +
     * ipc formula, post-warmup instret) and write the configured trace
     * files. Idempotent; also runs at destruction via the hub.
     * @return false if a configured sink failed to write.
     */
    bool writeTraces();

  private:
    cmd::HardenedRunner &runner();
    void setupObs();
    /** One detailed (warmup + measure + drain) window of runSampled(). */
    bool sampledInterval(ShadowTracker &shadow, uint64_t &warmCycles,
                         uint64_t &warmInsts, uint64_t &measCycles,
                         uint64_t &measInsts, uint64_t &drainInsts);
    std::vector<uint8_t> checkpointPayload() const;
    void loadCheckpointPayload(const std::vector<uint8_t> &bytes);

    SystemConfig cfg_;
    cmd::Kernel k_;
    PhysMem mem_;
    uint64_t runWallNs_ = 0;
    StopReason stopReason_ = StopReason::None;
    std::unique_ptr<HostDevice> host_;
    std::unique_ptr<MemHierarchy> hier_;
    std::unique_ptr<cmd::HardenedRunner> runner_;
    std::function<std::vector<uint8_t>()> userSave_;
    std::function<void(const std::vector<uint8_t> &)> userLoad_;
    std::vector<std::unique_ptr<OooCore>> oooCores_;
    std::vector<std::unique_ptr<InOrderCore>> ioCores_;
    /// one GoldenModel per hart when execMode != Detailed
    std::vector<std::unique_ptr<isa::GoldenModel>> funcHarts_;
    SampleStats sampleStats_;
    /// per-hart instret at the warmup reset (post-warmup IPC baseline)
    std::vector<uint64_t> warmupInstret_;
    /// declared last: its destructor detaches from k_ and flushes traces
    std::unique_ptr<obs::ObsHub> obsHub_;
};

} // namespace riscy
