#include "obs/hub.hh"

namespace obs {

ObsHub::ObsHub(cmd::Kernel &k, const ObsConfig &cfg, uint32_t numCores)
    : k_(k), cfg_(cfg)
{
    if (cfg_.timeline)
        timeline_ =
            std::make_unique<RuleTimeline>(k, cfg_.timelineGuardFails);

    pipes_.resize(numCores);
    cpis_.resize(numCores);
    for (uint32_t h = 0; h < numCores; h++) {
        if (cfg_.pipeline)
            pipes_[h] = std::make_unique<PipelineTracer>(h);
        if (cfg_.cpi)
            cpis_[h] = std::make_unique<CpiStack>();
    }
    k_.setObserver(this);
}

ObsHub::~ObsHub()
{
    finish();
    if (k_.observer() == this)
        k_.setObserver(nullptr);
}

bool
ObsHub::finish()
{
    if (finished_)
        return true;
    finished_ = true;
    bool ok = true;
    // An empty path means record-only (overhead measurement, tests
    // reading the in-memory buffers): nothing is written.
    if (cfg_.pipeline && !cfg_.pipelinePath.empty()) {
        std::vector<const PipelineTracer *> cores;
        for (const auto &p : pipes_) {
            if (p)
                cores.push_back(p.get());
        }
        ok &= KonataWriter::writeFile(cfg_.pipelinePath, cores);
    }
    if (timeline_ && !cfg_.timelinePath.empty())
        ok &= timeline_->writeFile(cfg_.timelinePath);
    return ok;
}

void
ObsHub::ruleFired(const cmd::Rule &r, uint64_t cycle, uint32_t domain)
{
    if (timeline_)
        timeline_->record(r, cycle, domain, false);
}

void
ObsHub::guardFailed(const cmd::Rule &r, uint64_t cycle, uint32_t domain)
{
    if (timeline_)
        timeline_->record(r, cycle, domain, true);
}

void
ObsHub::cycleEnd(uint64_t cycle, uint32_t fired)
{
    (void)fired;
    if (postHook_)
        postHook_(cycle);
}

} // namespace obs
