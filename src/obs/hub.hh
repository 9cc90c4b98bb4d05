/**
 * @file
 * ObsHub: the one KernelObserver a System installs. Routes kernel
 * hook callbacks to the configured sinks:
 *
 *  - ruleFired -> RuleTimeline (Perfetto export; built only when the
 *    timeline sink is on);
 *  - cycleEnd -> a post-cycle hook the System uses for CPI-stack
 *    sampling and the warmup stats reset (runs on the driving thread
 *    between cycles, when every domain is quiesced).
 *
 * Crash dumps carry the kernel's own recently-fired rings
 * (Kernel::diagnosticReport()); the hub adds nothing to them.
 *
 * It also owns the per-core PipelineTracer and CpiStack instances,
 * one per hart when the sink is on; the cores hold raw pointers (null
 * when the sink is off) and call them directly from rule bodies.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/kernel.hh"
#include "obs/cpi.hh"
#include "obs/obs_config.hh"
#include "obs/pipeline.hh"
#include "obs/timeline.hh"

namespace obs {

class ObsHub final : public cmd::KernelObserver
{
  public:
    /** Build after Kernel::elaborate(); installs itself on @p k. */
    ObsHub(cmd::Kernel &k, const ObsConfig &cfg, uint32_t numCores);
    ~ObsHub() override;

    ObsHub(const ObsHub &) = delete;
    ObsHub &operator=(const ObsHub &) = delete;

    /** Per-hart sink pointers; null when the sink is off. */
    PipelineTracer *pipeline(uint32_t hart)
    {
        return hart < pipes_.size() ? pipes_[hart].get() : nullptr;
    }
    CpiStack *cpi(uint32_t hart)
    {
        return hart < cpis_.size() ? cpis_[hart].get() : nullptr;
    }
    const CpiStack *cpi(uint32_t hart) const
    {
        return hart < cpis_.size() ? cpis_[hart].get() : nullptr;
    }
    /** Null when the timeline sink is off. */
    RuleTimeline *timeline() { return timeline_.get(); }

    /** Called from cycleEnd (between cycles, driving thread). */
    void setCyclePostHook(std::function<void(uint64_t cycle)> f)
    {
        postHook_ = std::move(f);
    }

    /**
     * Write the configured trace files (Konata + Perfetto). Idempotent;
     * also run by the destructor so traces survive early exits.
     * @return false if any configured sink failed to write.
     */
    bool finish();

    const ObsConfig &config() const { return cfg_; }

    // -- KernelObserver
    void ruleFired(const cmd::Rule &r, uint64_t cycle,
                   uint32_t domain) override;
    void cycleEnd(uint64_t cycle, uint32_t fired) override;

  private:
    cmd::Kernel &k_;
    ObsConfig cfg_;
    std::unique_ptr<RuleTimeline> timeline_;
    std::vector<std::unique_ptr<PipelineTracer>> pipes_;
    std::vector<std::unique_ptr<CpiStack>> cpis_;
    std::function<void(uint64_t)> postHook_;
    bool finished_ = false;
};

} // namespace obs
