/**
 * @file
 * Sampled simulation with functional fast-forward: the machinery
 * behind SystemConfig::execMode (the MIPS-class execution mode).
 *
 * Three execution modes:
 *
 *  - Detailed: every cycle through the CMD kernel (the default).
 *  - FastForward: the whole program through the fast functional
 *    RV64IMA interpreter (isa::GoldenModel::run) — multi-MIPS, no
 *    timing, same PhysMem/HostDevice as the detailed core.
 *  - Sampled: SMARTS-style periodic sampling on a single OOO core.
 *    Repeating (skip, warmup, measure) interval tuples: fast-forward
 *    `skip` instructions functionally, warm-handoff into the detailed
 *    core, run `warmup` detailed instructions discarded from the stats
 *    (cold caches/predictors heal here, the per-interval analogue of
 *    SystemConfig::statsResetAtCycle), measure `measure` detailed
 *    instructions, hand back, repeat. Per-interval IPCs feed the
 *    IntervalEstimator (mean + 95% confidence interval).
 *
 * The fast-forward -> detailed handoff writes the functional ArchState
 * into an empty OOO pipeline under runAtomically (OooCore::resumeArch):
 * identity rename, registers, CSRs, pc, then fetch resumes. Caches,
 * TLBs and predictors keep whatever they hold — nothing on the first
 * handoff after start(), the previous interval's warm state after
 * that. The detailed->functional direction is tracked by a
 * ShadowTracker: a private GoldenModel stepping once per commit on a
 * copy of memory (the cosim discipline of tests/cosim.hh), so the
 * architectural state at interval end is known without draining the
 * pipeline, store buffer, or dirty cache lines. The shadow needs
 * commits in program order, which is why sampled mode rejects the
 * in-order core: it reports memory instructions at completion
 * (InOrderCore::onCommit).
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fault.hh"
#include "isa/golden.hh"

namespace riscy {

/** How System::run-family calls execute the program. */
enum class ExecMode : uint8_t {
    Detailed,    ///< every cycle through the CMD kernel
    FastForward, ///< pure functional interpretation (no timing)
    Sampled,     ///< SMARTS-style skip/warmup/measure sampling
};

const char *toString(ExecMode m);

/** Knobs of ExecMode::Sampled (instruction counts, per interval). */
struct SamplingConfig {
    uint64_t skip = 50000;  ///< functionally fast-forwarded
    uint64_t warmup = 3000; ///< detailed, discarded from stats
    uint64_t measure = 3000; ///< detailed, measured
};

/**
 * Mean + 95% confidence interval over per-interval observations
 * (IPC). Plain running-moment accumulator; the CI half-width is
 * 1.96 * s / sqrt(n) with the sample standard deviation s, so it
 * tightens as measured intervals accumulate (the SMARTS estimator).
 */
class IntervalEstimator
{
  public:
    void
    add(double v)
    {
        n_++;
        sum_ += v;
        sumSq_ += v * v;
    }

    uint64_t n() const { return n_; }
    double mean() const { return n_ ? sum_ / double(n_) : 0.0; }

    double
    stddev() const
    {
        if (n_ < 2)
            return 0.0;
        double m = mean();
        double var = (sumSq_ - double(n_) * m * m) / double(n_ - 1);
        return var > 0 ? std::sqrt(var) : 0.0;
    }

    /** 95% CI half-width (0 until two observations exist). */
    double
    ci95Half() const
    {
        return n_ >= 2 ? 1.96 * stddev() / std::sqrt(double(n_)) : 0.0;
    }

  private:
    uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
};

/** Aggregated outcome of a runSampled() / runFastForward() call. */
struct SampleStats {
    uint64_t intervals = 0;      ///< measured intervals kept
    uint64_t ffInsts = 0;        ///< functionally fast-forwarded
    uint64_t warmupInsts = 0;    ///< detailed, discarded
    uint64_t measuredInsts = 0;  ///< detailed, measured
    uint64_t measuredCycles = 0; ///< cycles inside measured windows
    uint64_t totalInsts = 0;     ///< all of the above
    double meanIpc = 0.0;        ///< mean of per-interval IPCs
    double ipcCi95 = 0.0;        ///< 95% CI half-width of meanIpc
    /** Whole-program cycle estimate: totalInsts / meanIpc. */
    uint64_t estTotalCycles = 0;
    /** Per-interval CPI observations (the estimator's inputs), in
     *  program order — the raw material for convergence diagnostics. */
    std::vector<double> intervalCpi;
};

/**
 * Tracks architectural state through a detailed interval: a private
 * GoldenModel stepping once per committed instruction against a
 * *copy* of memory and a throwaway host device, so the detailed
 * machine's in-flight stores / dirty cache lines never have to be
 * drained for a handoff. Divergence between the shadow and the
 * detailed commit stream (a timing-dependent program — e.g. branching
 * on rdcycle — or a core bug) raises a KernelFault instead of
 * silently corrupting the next fast-forward phase.
 */
class ShadowTracker
{
  public:
    ShadowTracker(const PhysMem &mem, uint32_t harts, uint32_t hartId,
                  const isa::ArchState &as)
        : mem_(mem), host_(harts), model_(mem_, host_, hartId, as.pc)
    {
        model_.setArchState(as);
    }

    /** Advance by one commit; verify it matches the detailed core. */
    void
    step(uint64_t pc, bool trapped)
    {
        if (model_.halted())
            return; // exit store committed; trailing commits are spin
        auto g = model_.step();
        if (g.pc != pc || g.trapped != trapped) {
            cmd::kfault(cmd::FaultKind::DesignError, "sampling",
                        "shadow tracker diverged from detailed commit "
                        "stream: shadow pc=%#llx trapped=%d, detailed "
                        "pc=%#llx trapped=%d",
                        (unsigned long long)g.pc, int(g.trapped),
                        (unsigned long long)pc, int(trapped));
        }
    }

    isa::ArchState archState() const { return model_.archState(); }
    const PhysMem &mem() const { return mem_; }

  private:
    PhysMem mem_; ///< private copy; the shadow's loads must see an
                  ///< architecturally up-to-date image
    HostDevice host_;
    isa::GoldenModel model_;
};

} // namespace riscy
