#include "core/harden.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace cmd {

const char *
toString(FaultType t)
{
    switch (t) {
      case FaultType::BitFlip:
        return "bit-flip";
      case FaultType::MsgDrop:
        return "msg-drop";
      case FaultType::MsgDelay:
        return "msg-delay";
      case FaultType::GuardStuck:
        return "guard-stuck";
    }
    return "?";
}

const char *
toString(FaultOutcome o)
{
    switch (o) {
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Detected:
        return "detected";
      case FaultOutcome::SDC:
        return "sdc";
      case FaultOutcome::Hang:
        return "hang";
    }
    return "?";
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << toString(type) << " @" << cycle << " " << targetName;
    if (type == FaultType::BitFlip)
        os << " bit " << bit;
    else if (type == FaultType::MsgDelay)
        os << " +" << param << " cycles";
    else if (type == FaultType::GuardStuck)
        os << " for " << param << " cycles";
    return os.str();
}

// ------------------------------------------------------------ FaultInjector

uint64_t
FaultInjector::stateBits(uint32_t i) const
{
    return uint64_t(kernel_.stateAt(i)->savedSize()) * 8;
}

void
FaultInjector::fillFlipWeights()
{
    if (cumBits_.size() == kernel_.stateCount())
        return;
    cumBits_.clear();
    totalBits_ = 0;
    for (uint32_t i = 0; i < kernel_.stateCount(); i++) {
        // Weight target selection by bit count so a wide register file
        // draws proportionally more strikes than a one-bit flag, but
        // cap the weight so megabit SRAM arrays (L2 data) -- mostly
        // cold lines on any given workload -- don't swallow the whole
        // campaign.
        totalBits_ += std::min<uint64_t>(stateBits(i), kFlipWeightCap);
        cumBits_.push_back(totalBits_);
    }
}

std::vector<FaultPlan>
FaultInjector::planCampaign(uint64_t seed, uint32_t n, uint64_t maxCycle,
                            const std::string &stateFilter)
{
    if (!kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, "injector",
               "planCampaign() before elaboration");
    if (kernel_.stateCount() == 0)
        kfault(FaultKind::ApiMisuse, "injector",
               "planCampaign() on a design with no registered state");
    fillFlipWeights();

    // A focused slice: bit flips only, confined to the states whose
    // name matches the filter, weighted by the same capped bit counts.
    std::vector<uint32_t> pool;     // state indices in the slice
    std::vector<uint64_t> poolCum;  // capped cumulative weights
    uint64_t poolTotal = 0;
    if (!stateFilter.empty()) {
        for (uint32_t i = 0; i < kernel_.stateCount(); i++) {
            if (kernel_.stateAt(i)->name().find(stateFilter) ==
                std::string::npos)
                continue;
            pool.push_back(i);
            poolTotal += std::min<uint64_t>(stateBits(i), kFlipWeightCap);
            poolCum.push_back(poolTotal);
        }
        if (pool.empty())
            kfault(FaultKind::ApiMisuse, "injector",
                   "planCampaign() filter \"%s\" matches no state",
                   stateFilter.c_str());
    }

    std::mt19937_64 rng(seed);
    auto pick = [&rng](uint64_t bound) {
        // Modulo bias is irrelevant here; what matters is that the
        // same seed always draws the same sequence.
        return bound ? rng() % bound : 0;
    };

    uint32_t nChannels = uint32_t(kernel_.channelPorts().size());
    uint32_t nRules = uint32_t(kernel_.rules().size());

    std::vector<FaultPlan> plans;
    plans.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
        FaultPlan p;
        // Weighted mix: flips dominate (they model particle strikes on
        // registered state); channel and guard faults model lost/late
        // messages and stuck control. A filtered slice is flips only.
        uint64_t roll = pool.empty() ? pick(100) : 0;
        if (roll < 55 || (nChannels == 0 && roll < 85) ||
            (nChannels == 0 && nRules == 0)) {
            p.type = FaultType::BitFlip;
        } else if (roll < 70 && nChannels) {
            p.type = FaultType::MsgDrop;
        } else if (roll < 85 && nChannels) {
            p.type = FaultType::MsgDelay;
        } else {
            p.type = FaultType::GuardStuck;
        }
        p.cycle = 1 + pick(maxCycle);
        switch (p.type) {
          case FaultType::BitFlip: {
            // Pick the state by (capped) bit weight, then the bit
            // uniformly within it -- every bit of every state stays
            // reachable.
            const auto &cum = pool.empty() ? cumBits_ : poolCum;
            uint64_t tot = pool.empty() ? totalBits_ : poolTotal;
            uint64_t b = pick(std::max<uint64_t>(1, tot));
            uint32_t s = uint32_t(
                std::upper_bound(cum.begin(), cum.end(), b) -
                cum.begin());
            s = std::min(s, uint32_t(cum.size()) - 1);
            p.target = pool.empty() ? s : pool[s];
            p.bit = pick(std::max<uint64_t>(1, stateBits(p.target)));
            p.targetName = kernel_.stateAt(p.target)->name();
            break;
          }
          case FaultType::MsgDrop:
          case FaultType::MsgDelay:
            p.target = uint32_t(pick(nChannels));
            p.param = 1 + uint32_t(pick(64));
            p.targetName =
                kernel_.channelPorts()[p.target]->channelName();
            break;
          case FaultType::GuardStuck:
            p.target = uint32_t(pick(nRules));
            p.param = 16 + uint32_t(pick(240));
            p.targetName = kernel_.rules()[p.target]->name();
            break;
        }
        plans.push_back(std::move(p));
    }
    std::stable_sort(plans.begin(), plans.end(),
                     [](const FaultPlan &a, const FaultPlan &b) {
                         return a.cycle < b.cycle;
                     });
    return plans;
}

std::vector<FaultPlan>
FaultInjector::planTimingCampaign(uint64_t seed, uint32_t n,
                                  uint64_t maxCycle, uint32_t maxDelay)
{
    if (!kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, "injector",
               "planTimingCampaign() before elaboration");
    uint32_t nChannels = uint32_t(kernel_.channelPorts().size());
    if (nChannels == 0)
        kfault(FaultKind::ApiMisuse, "injector",
               "planTimingCampaign() on a design with no channels");
    // Decorrelate from planCampaign(): a caller handing both planners
    // the same seed gets two unrelated streams.
    std::mt19937_64 rng(seed ^ 0xD31A5EEDULL); // "delay seed"
    auto pick = [&rng](uint64_t bound) {
        return bound ? rng() % bound : 0;
    };
    std::vector<FaultPlan> plans;
    plans.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
        FaultPlan p;
        p.type = FaultType::MsgDelay;
        p.cycle = 1 + pick(maxCycle);
        p.target = uint32_t(pick(nChannels));
        p.param = 1 + uint32_t(pick(std::max<uint32_t>(1, maxDelay)));
        p.targetName = kernel_.channelPorts()[p.target]->channelName();
        plans.push_back(std::move(p));
    }
    std::stable_sort(plans.begin(), plans.end(),
                     [](const FaultPlan &a, const FaultPlan &b) {
                         return a.cycle < b.cycle;
                     });
    return plans;
}

bool
FaultInjector::apply(const FaultPlan &p)
{
    if (kernel_.inRule())
        kfault(FaultKind::ApiMisuse, "injector", "apply() inside a rule");
    switch (p.type) {
      case FaultType::BitFlip: {
        if (p.target >= kernel_.stateCount())
            return false;
        StateBase *s = kernel_.stateAt(p.target);
        std::vector<uint8_t> buf;
        s->save(buf);
        if (buf.empty())
            return false;
        uint64_t bit = p.bit % (buf.size() * 8);
        buf[bit / 8] ^= uint8_t(1u << (bit % 8));
        const uint8_t *ptr = buf.data();
        s->restore(ptr);
        kernel_.pokeState(s);
        applied_++;
        return true;
      }
      case FaultType::MsgDrop: {
        const auto &chans = kernel_.channelPorts();
        if (chans.empty())
            return false;
        bool hit = chans[p.target % chans.size()]->faultDropHead();
        applied_ += hit;
        return hit;
      }
      case FaultType::MsgDelay: {
        const auto &chans = kernel_.channelPorts();
        if (chans.empty())
            return false;
        bool hit =
            chans[p.target % chans.size()]->faultDelayHead(p.param);
        applied_ += hit;
        return hit;
      }
      case FaultType::GuardStuck: {
        const auto &rules = kernel_.rules();
        if (rules.empty())
            return false;
        Rule *r = rules[p.target % rules.size()];
        if (!r->enabled())
            return false;
        r->setEnabled(false);
        applied_++;
        return true;
      }
    }
    return false;
}

void
FaultInjector::release(const FaultPlan &p)
{
    if (p.type != FaultType::GuardStuck)
        return;
    const auto &rules = kernel_.rules();
    if (!rules.empty())
        rules[p.target % rules.size()]->setEnabled(true);
}

// ---------------------------------------------------------------- Watchdog

Watchdog::Watchdog(Kernel &kernel, uint64_t stallCycles)
    : kernel_(kernel), stallCycles_(stallCycles)
{
}

void
Watchdog::setHeartbeat(std::function<uint64_t()> fn)
{
    heartbeat_ = std::move(fn);
    primed_ = false;
}

uint64_t
Watchdog::domainFired(uint32_t d) const
{
    uint64_t total = 0;
    for (const Rule *r : kernel_.rules()) {
        if (kernel_.domainOf(*r) == d)
            total += r->firedCount();
    }
    return total;
}

void
Watchdog::reset()
{
    primed_ = false;
}

void
Watchdog::observe()
{
    if (!stallCycles_)
        return; // 0 = disabled
    uint64_t cyc = kernel_.cycleCount();
    uint32_t nDomains = kernel_.domainCount();
    if (!primed_ || lastFired_.size() != nDomains) {
        primed_ = true;
        lastFired_.assign(nDomains, 0);
        for (uint32_t d = 0; d < nDomains; d++)
            lastFired_[d] = domainFired(d);
        lastProgressCycle_.assign(nDomains, cyc);
        if (heartbeat_)
            hbValue_ = heartbeat_();
        hbProgressCycle_ = cyc;
        return;
    }

    bool anyFired = false;
    for (uint32_t d = 0; d < nDomains; d++) {
        uint64_t now = domainFired(d);
        if (now != lastFired_[d]) {
            lastFired_[d] = now;
            lastProgressCycle_[d] = cyc;
            anyFired = true;
        }
    }
    if (heartbeat_) {
        uint64_t hb = heartbeat_();
        if (hb != hbValue_) {
            hbValue_ = hb;
            hbProgressCycle_ = cyc;
        }
    }

    // Heartbeat mode trips on architectural stall (catches livelock:
    // rules fire but nothing retires); otherwise trip when no rule
    // fired anywhere for the whole window.
    bool stalled = heartbeat_
                       ? cyc - hbProgressCycle_ >= stallCycles_
                       : !anyFired && cyc - *std::max_element(
                                                lastProgressCycle_.begin(),
                                                lastProgressCycle_.end()) >=
                                          stallCycles_;
    if (!stalled)
        return;

    // Name the domain that has been starved the longest.
    uint32_t starved = 0;
    for (uint32_t d = 1; d < nDomains; d++) {
        if (lastProgressCycle_[d] < lastProgressCycle_[starved])
            starved = d;
    }
    FaultContext fc;
    fc.module = "watchdog";
    fc.cycle = cyc;
    fc.domain = starved;
    fc.trace = kernel_.diagnosticReport();
    std::ostringstream msg;
    msg << "no forward progress for "
        << (cyc - (heartbeat_ ? hbProgressCycle_
                              : lastProgressCycle_[starved]))
        << " cycles (threshold " << stallCycles_ << "); starved domain "
        << starved << " (" << kernel_.domainName(starved) << "), idle "
        << (cyc - lastProgressCycle_[starved]) << " cycles";
    throw KernelFault(FaultKind::Watchdog, msg.str(), std::move(fc));
}

// -------------------------------------------------------- CheckpointManager

namespace {
constexpr char kCkptMagic[8] = {'C', 'M', 'D', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kCkptVersion = 1;

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(uint8_t(v >> (8 * i)));
}

uint64_t
get64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}
} // namespace

uint64_t
CheckpointManager::fnv1a(const uint8_t *p, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

CheckpointManager::CheckpointManager(Kernel &kernel, std::string path)
    : kernel_(kernel), path_(std::move(path))
{
}

void
CheckpointManager::setPayloadHooks(
    std::function<std::vector<uint8_t>()> save,
    std::function<void(const std::vector<uint8_t> &)> load)
{
    savePayload_ = std::move(save);
    loadPayload_ = std::move(load);
}

void
CheckpointManager::save()
{
    std::vector<uint8_t> kern = kernel_.snapshot();
    std::vector<uint8_t> payload;
    if (savePayload_)
        payload = savePayload_();

    std::vector<uint8_t> out;
    out.reserve(kern.size() + payload.size() + 64);
    out.insert(out.end(), kCkptMagic, kCkptMagic + 8);
    for (int i = 0; i < 4; i++)
        out.push_back(uint8_t(kCkptVersion >> (8 * i)));
    put64(out, kernel_.cycleCount());
    put64(out, kern.size());
    out.insert(out.end(), kern.begin(), kern.end());
    put64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    put64(out, fnv1a(out.data(), out.size()));

    std::string tmp = path_ + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            kfault(FaultKind::Checkpoint, path_,
                   "cannot open '%s' for writing", tmp.c_str());
        f.write(reinterpret_cast<const char *>(out.data()),
                std::streamsize(out.size()));
        if (!f)
            kfault(FaultKind::Checkpoint, path_, "short write to '%s'",
                   tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        kfault(FaultKind::Checkpoint, path_, "rename '%s' failed",
               tmp.c_str());
    saves_++;
}

bool
CheckpointManager::load()
{
    std::ifstream f(path_, std::ios::binary);
    if (!f)
        return false;
    std::vector<uint8_t> in((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    // magic + version + cycle + two lengths + checksum
    if (in.size() < 8 + 4 + 8 + 8 + 8 + 8)
        kfault(FaultKind::Checkpoint, path_, "checkpoint truncated (%zu B)",
               in.size());
    if (std::memcmp(in.data(), kCkptMagic, 8) != 0)
        kfault(FaultKind::Checkpoint, path_, "bad checkpoint magic");
    uint64_t sum = get64(in.data() + in.size() - 8);
    if (sum != fnv1a(in.data(), in.size() - 8))
        kfault(FaultKind::Checkpoint, path_,
               "checkpoint checksum mismatch (corrupt file)");

    const uint8_t *p = in.data() + 8;
    uint32_t version = 0;
    for (int i = 0; i < 4; i++)
        version |= uint32_t(p[i]) << (8 * i);
    p += 4;
    if (version != kCkptVersion)
        kfault(FaultKind::Checkpoint, path_,
               "unsupported checkpoint version %u", version);
    p += 8; // cycle (informational; the kernel snapshot carries it too)
    uint64_t kernLen = get64(p);
    p += 8;
    // Bytes between the kernel length and the checksum. Compare the
    // lengths read from the file as integers: a pointer formed from an
    // arbitrary file length may point anywhere.
    const uint64_t rest = uint64_t(in.data() + in.size() - 8 - p);
    if (kernLen > rest || rest - kernLen < 8)
        kfault(FaultKind::Checkpoint, path_, "checkpoint lengths invalid");
    std::vector<uint8_t> kern(p, p + kernLen);
    p += kernLen;
    uint64_t payloadLen = get64(p);
    p += 8;
    if (payloadLen != rest - kernLen - 8)
        kfault(FaultKind::Checkpoint, path_, "checkpoint lengths invalid");

    kernel_.restore(kern);
    if (loadPayload_)
        loadPayload_(std::vector<uint8_t>(p, p + payloadLen));
    return true;
}

// ----------------------------------------------------------- HardenedRunner

HardenedRunner::HardenedRunner(Kernel &kernel, HardenedConfig cfg)
    : kernel_(kernel), cfg_(std::move(cfg)),
      watchdog_(kernel, cfg_.watchdogStallCycles)
{
    if (cfg_.checkpointEvery && cfg_.checkpointPath.empty())
        kfault(FaultKind::ApiMisuse, "runner",
               "checkpointEvery set without a checkpointPath");
    if (!cfg_.checkpointPath.empty())
        ckpt_.emplace(kernel, cfg_.checkpointPath);
}

bool
HardenedRunner::run(const std::function<bool()> &done, uint64_t maxCycles)
{
    const uint64_t start = kernel_.cycleCount();
    const uint64_t target =
        maxCycles > ~0ull - start ? ~0ull : start + maxCycles;
    uint64_t sincePoll = 0;
    while (kernel_.cycleCount() < target) {
        if (done())
            return true;
        // Lookahead-aware stepping: advance by the kernel's current
        // sync stride (1 under sequential schedulers or per-cycle
        // observers), but never past the target or across a
        // checkpoint boundary, so checkpoints land exactly on
        // multiples of checkpointEvery — which are sync epochs, the
        // only points where every domain's state is coherent. done()
        // is polled between windows; it may overshoot its condition
        // by at most stride-1 cycles.
        uint64_t step = kernel_.syncStride();
        if (step > target - kernel_.cycleCount())
            step = target - kernel_.cycleCount();
        if (cfg_.checkpointEvery && ckpt_) {
            uint64_t toCkpt = cfg_.checkpointEvery -
                              (kernel_.cycleCount() % cfg_.checkpointEvery);
            if (step > toCkpt)
                step = toCkpt;
        }
        kernel_.run(step);
        if (cfg_.checkpointEvery && ckpt_ &&
            kernel_.cycleCount() % cfg_.checkpointEvery == 0) {
            ckpt_->save();
        }
        sincePoll += step;
        if (sincePoll >= kWatchdogPollEvery) {
            sincePoll = 0;
            watchdog_.observe();
        }
    }
    return done();
}

} // namespace cmd
