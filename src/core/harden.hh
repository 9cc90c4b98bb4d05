/**
 * @file
 * Kernel hardening: deterministic fault injection, forward-progress
 * watchdog, and checkpoint-based crash recovery.
 *
 * The three pieces exploit machinery the kernel already has:
 *
 *  - FaultInjector perturbs a design only at commit boundaries
 *    (between cycles), through the byte-exact save/restore interface
 *    of StateBase, the ChannelPort fault hooks of TimedFifo, and
 *    Rule::setEnabled — so every injected fault respects rule
 *    atomicity and a campaign run remains a legal rule execution of
 *    *some* design, just not the intended one. Campaign plans are
 *    drawn from a seeded mt19937_64 over the registered state/channel/
 *    rule tables, so a (seed, design) pair always yields the same
 *    faults at the same cycles: bit-reproducible campaigns.
 *
 *  - Watchdog turns "the simulation stopped printing" into a
 *    structured KernelFault. It tracks per-domain rule-fire counts
 *    (scheduler-independent: domains exist under all SchedulerKinds)
 *    plus an optional architectural heartbeat (e.g. committed
 *    instructions) that also catches livelock, where rules spin
 *    without retiring anything. The fault names the most-starved
 *    domain and embeds Kernel::diagnosticReport() — awake sets, fifo
 *    occupancies, the merged last-N-fired ring.
 *
 *  - CheckpointManager persists Kernel::snapshot() plus an arbitrary
 *    payload (memory image, commit-stream digest) to disk with a
 *    checksummed header and atomic tmp+rename, so a run killed
 *    mid-flight resumes bit-exactly.
 *
 *  - HardenedRunner composes them: drive cycles, poll the watchdog,
 *    checkpoint periodically. A KernelFault ends the run: it
 *    propagates to the caller the first time it happens, on the
 *    scheduler the caller set; resuming is an explicit
 *    CheckpointManager::load().
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/fault.hh"
#include "core/kernel.hh"

namespace cmd {

// ------------------------------------------------------------ FaultInjector

/** What a single injected fault does. */
enum class FaultType : uint8_t {
    BitFlip,    ///< flip one bit of one registered state element
    MsgDrop,    ///< discard the head message of a TimedFifo
    MsgDelay,   ///< age the head message of a TimedFifo extra cycles
    GuardStuck, ///< force a rule's guard stuck-at-false for a window
};

const char *toString(FaultType t);

/** One planned fault: what, where, and at which commit boundary. */
struct FaultPlan
{
    FaultType type = FaultType::BitFlip;
    uint64_t cycle = 0;   ///< inject after this many executed cycles
    uint32_t target = 0;  ///< state / channel / rule index (by type)
    uint64_t bit = 0;     ///< BitFlip: bit offset into the saved bytes
    uint32_t param = 0;   ///< MsgDelay: extra cycles; GuardStuck: window
    std::string targetName;

    std::string describe() const;
};

/**
 * Seeded, deterministic fault-injection engine. All mutations happen
 * between cycles (commit boundaries); planCampaign() is a pure
 * function of (seed, n, maxCycle, design tables).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(Kernel &kernel) : kernel_(kernel) {}

    /**
     * Draw @p n faults with injection cycles uniform in [1, maxCycle],
     * targeting the design's registered states, channels, and rules.
     * Deterministic for a fixed seed and elaborated design. The plans
     * come back sorted by injection cycle.
     *
     * A non-empty @p stateFilter restricts the campaign to bit flips
     * in states whose name contains the filter substring — a focused
     * vulnerability slice of one structure (e.g. "hart0.prf" for a
     * register-file AVF campaign, where silent data corruptions
     * concentrate). Faults if nothing matches.
     */
    std::vector<FaultPlan> planCampaign(uint64_t seed, uint32_t n,
                                        uint64_t maxCycle,
                                        const std::string &stateFilter = "");

    /**
     * Draw @p n *timing-only* perturbations: MsgDelay faults over the
     * design's channels, injection cycles uniform in [1, maxCycle],
     * extra delays uniform in [1, maxDelay]. Unlike planCampaign()
     * these never corrupt data — TimedFifo::faultDelayHead() re-ages
     * the head message but leaves its payload untouched — so the plan
     * is a legal timing of the *intended* design, suitable for
     * schedule-space exploration (the litmus shaker) rather than
     * fault-tolerance campaigns. Own seed stream: the same seed given
     * to planCampaign() and planTimingCampaign() yields unrelated
     * plans, so the two users stop sharing one knob. Plans come back
     * sorted by injection cycle.
     */
    std::vector<FaultPlan> planTimingCampaign(uint64_t seed, uint32_t n,
                                              uint64_t maxCycle,
                                              uint32_t maxDelay = 32);

    /**
     * Apply one fault now (between cycles only). @return true if it
     * landed — a drop/delay on an empty channel, for example, has no
     * target in flight and reports false (the run counts as masked).
     */
    bool apply(const FaultPlan &p);

    /** End a GuardStuck window: re-enable the target rule. */
    void release(const FaultPlan &p);

    uint64_t appliedCount() const { return applied_; }

  private:
    Kernel &kernel_;
    uint64_t applied_ = 0;

    /** Bit-weight ceiling per state for flip-target selection. */
    static constexpr uint64_t kFlipWeightCap = 4096;

    /** Inclusive prefix sums of capped per-state bit weights (filled
     *  lazily; the sizes are fixed once the design is elaborated). */
    std::vector<uint64_t> cumBits_;
    uint64_t totalBits_ = 0;

    /** Saved bits of state element @p i. */
    uint64_t stateBits(uint32_t i) const;
    void fillFlipWeights();
};

// ---------------------------------------------------------------- Watchdog

/**
 * Forward-progress watchdog. Call observe() periodically from the
 * driving loop (between cycles); it throws KernelFault(Watchdog) when
 * no progress happened for stallCycles, naming the most-starved
 * domain and attaching Kernel::diagnosticReport() as the trace.
 *
 * Progress means: the optional heartbeat advanced (when one is set —
 * this also catches livelock), otherwise any rule fired anywhere.
 * Per-domain fire counts are tracked in both modes so the dump can
 * say which domain starved first; they work under every SchedulerKind
 * because domains are computed at elaboration regardless of scheduler.
 */
class Watchdog
{
  public:
    Watchdog(Kernel &kernel, uint64_t stallCycles);

    /**
     * Architectural progress counter (e.g. committed instructions).
     * With a heartbeat the watchdog trips on *its* stall even while
     * rules keep firing — the livelock case.
     */
    void setHeartbeat(std::function<uint64_t()> fn);

    /** Record progress; throw KernelFault(Watchdog) on a stall. */
    void observe();

    /** Re-baseline (after a checkpoint restore). */
    void reset();

    uint64_t stallCycles() const { return stallCycles_; }

  private:
    uint64_t domainFired(uint32_t d) const;

    Kernel &kernel_;
    uint64_t stallCycles_;
    std::function<uint64_t()> heartbeat_;
    bool primed_ = false;
    uint64_t hbValue_ = 0;
    uint64_t hbProgressCycle_ = 0;
    std::vector<uint64_t> lastFired_;         ///< per-domain fire sums
    std::vector<uint64_t> lastProgressCycle_; ///< per-domain
};

// -------------------------------------------------------- CheckpointManager

/**
 * Checkpoint/restore-to-disk. File layout (little-endian):
 *
 *   magic "CMDCKPT1" | version u32 | cycle u64
 *   | kernLen u64 | kernel snapshot bytes
 *   | payloadLen u64 | payload bytes
 *   | fnv1a-64 checksum of everything above
 *
 * save() writes to "<path>.tmp" then renames, so a crash mid-write
 * never corrupts the last good checkpoint. load() returns false when
 * no checkpoint exists and throws KernelFault(Checkpoint) on a
 * truncated or corrupt file.
 */
class CheckpointManager
{
  public:
    CheckpointManager(Kernel &kernel, std::string path);

    /**
     * Extra bytes to carry alongside the kernel snapshot (physical
     * memory image, commit-stream digest, device state). The load hook
     * runs after the kernel snapshot was restored.
     */
    void setPayloadHooks(std::function<std::vector<uint8_t>()> save,
                         std::function<void(const std::vector<uint8_t> &)> load);

    /** Snapshot the kernel (+payload) to disk. Between cycles only. */
    void save();

    /** @return false when no checkpoint file exists. */
    bool load();

    const std::string &path() const { return path_; }
    uint64_t savedCount() const { return saves_; }

    /** FNV-1a 64 over a byte range (also used by tests/bench). */
    static uint64_t fnv1a(const uint8_t *p, size_t n);

  private:
    Kernel &kernel_;
    std::string path_;
    uint64_t saves_ = 0;
    std::function<std::vector<uint8_t>()> savePayload_;
    std::function<void(const std::vector<uint8_t> &)> loadPayload_;
};

// ----------------------------------------------------------- HardenedRunner

/** Knobs of HardenedRunner. */
struct HardenedConfig
{
    uint64_t watchdogStallCycles = 100000;
    uint64_t checkpointEvery = 0; ///< cycles between checkpoints; 0 off
    std::string checkpointPath;   ///< required when checkpointEvery > 0
};

/**
 * Drives a kernel with a watchdog and periodic checkpoints. run()
 * behaves like Kernel::runUntil(); any KernelFault (a watchdog trip,
 * a design error, a barrier timeout) propagates out of it unchanged.
 * The checkpoints are for the caller: after a fault it may load() the
 * last one and run again.
 */
class HardenedRunner
{
  public:
    HardenedRunner(Kernel &kernel, HardenedConfig cfg);

    Watchdog &watchdog() { return watchdog_; }
    CheckpointManager *checkpoints() { return ckpt_ ? &*ckpt_ : nullptr; }

    /**
     * Run until @p done or until the kernel's cycle counter reaches
     * its pre-run value + @p maxCycles (saturating: ~0ull means no
     * budget at any starting cycle). @return true if @p done was
     * satisfied. Throws the first KernelFault raised.
     */
    bool run(const std::function<bool()> &done, uint64_t maxCycles);

  private:
    /// cycles between watchdog polls (the progress scan is O(rules))
    static constexpr uint64_t kWatchdogPollEvery = 1024;

    Kernel &kernel_;
    HardenedConfig cfg_;
    Watchdog watchdog_;
    std::optional<CheckpointManager> ckpt_;
};

// ------------------------------------------------------ campaign taxonomy

/**
 * Outcome of one fault-campaign run, judged against a golden
 * (uninjected) reference execution.
 */
enum class FaultOutcome : uint8_t {
    Masked,   ///< finished; architectural result identical to golden
    Detected, ///< surfaced as a KernelFault or a design self-check
    SDC,      ///< finished "successfully" with a divergent result
    Hang,     ///< watchdog tripped (deadlock/livelock) or cycle budget
};

const char *toString(FaultOutcome o);

} // namespace cmd
