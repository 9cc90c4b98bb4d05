#include "proc/system.hh"

#include <algorithm>
#include <chrono>
#include <iostream>

namespace riscy {

using namespace cmd;

const char *
toString(StopReason r)
{
    switch (r) {
      case StopReason::None:
        return "none";
      case StopReason::AllExited:
        return "all-exited";
      case StopReason::HostFail:
        return "host-fail";
      case StopReason::MaxCycles:
        return "max-cycles";
      case StopReason::WallClock:
        return "wall-clock";
      case StopReason::MaxInsts:
        return "max-insts";
    }
    return "?";
}

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    k_.setScheduler(cfg_.scheduler);
    k_.setParallelThreads(cfg_.threads);
    cfg_.mem.cores = cfg_.cores;
    host_ = std::make_unique<HostDevice>(cfg_.cores);
    hier_ = std::make_unique<MemHierarchy>(k_, "mem", mem_, cfg_.mem);
    for (uint32_t i = 0; i < cfg_.cores; i++) {
        std::string cn = strfmt("hart%u", i);
        // Same-named hint group as the hierarchy's per-core L1 scope:
        // core + TLBs + L1s form one "hart<i>" partition domain,
        // talking to the shared "mem" domain only through the
        // TimedFifo cross-bar channels.
        DomainHint hh(k_, cn);
        if (cfg_.inOrder) {
            ioCores_.push_back(std::make_unique<InOrderCore>(
                k_, cn, i, cfg_.core, hier_->icache(i), hier_->dcache(i),
                hier_->walkPort(i), *host_));
        } else {
            oooCores_.push_back(std::make_unique<OooCore>(
                k_, cn, i, cfg_.core, hier_->icache(i), hier_->dcache(i),
                hier_->walkPort(i), *host_));
        }
    }
}

void
System::elaborate()
{
    k_.elaborate();
    setupObs();
}

void
System::setupObs()
{
    if (!cfg_.obs.enabled() && !cfg_.statsResetAtCycle)
        return;
    obsHub_ = std::make_unique<obs::ObsHub>(k_, cfg_.obs, cfg_.cores);
    warmupInstret_.assign(cfg_.cores, 0);
    if (!cfg_.inOrder) {
        for (uint32_t i = 0; i < cfg_.cores; i++) {
            oooCores_[i]->setTracer(obsHub_->pipeline(i));
            oooCores_[i]->setCpiStack(obsHub_->cpi(i));
            // D-miss split: cycles whose blocked line sits at the DRAM
            // controller report as d_miss_dram instead of d_miss. The
            // probe runs in the between-cycles sampling hook, where
            // cross-domain reads of the L2 transaction tables are safe.
            oooCores_[i]->setDramBoundProbe([this](Addr pa) {
                return hier_->dramPending(lineAddr(pa));
            });
        }
    }
    // Between kernel cycles (driving thread, all domains quiesced):
    // per-core sampling, then the warmup-window stats reset.
    obsHub_->setCyclePostHook([this](uint64_t cycle) {
        for (auto &c : oooCores_)
            c->obsCycle();
        if (cfg_.statsResetAtCycle && cycle == cfg_.statsResetAtCycle) {
            k_.resetAllStats();
            for (uint32_t i = 0; i < cfg_.cores; i++) {
                if (auto *cp = obsHub_->cpi(i))
                    cp->reset();
                warmupInstret_[i] = instret(i);
            }
        }
    });
}

bool
System::writeTraces()
{
    if (!obsHub_)
        return true;
    if (!cfg_.inOrder) {
        for (uint32_t i = 0; i < cfg_.cores; i++) {
            if (const obs::CpiStack *cp = obsHub_->cpi(i)) {
                const uint32_t hart = i;
                cp->exportStats(oooCores_[i]->stats(), [this, hart] {
                    // Sampled mode: the stack only saw the measured
                    // windows, so divide by the measured instructions.
                    if (cfg_.execMode == ExecMode::Sampled)
                        return sampleStats_.measuredInsts;
                    return instret(hart) - warmupInstret_[hart];
                });
            }
        }
    }
    return obsHub_->finish();
}

void
System::start(Addr entry, uint64_t satp, const std::vector<Addr> &sp)
{
    for (uint32_t i = 0; i < cfg_.cores; i++) {
        Addr s = i < sp.size() ? sp[i] : 0;
        if (cfg_.inOrder)
            ioCores_[i]->reset(entry, satp, s);
        else
            oooCores_[i]->reset(entry, satp, s);
    }
    funcHarts_.clear();
    pristineSnap_.clear();
    if (cfg_.execMode != ExecMode::Detailed) {
        // Functional harts, seeded exactly like the core resets above
        // (x2 = stack top, x10 = hart id) and sharing mem_/host_.
        for (uint32_t i = 0; i < cfg_.cores; i++) {
            auto g = std::make_unique<isa::GoldenModel>(mem_, *host_, i,
                                                        entry);
            g->csrs().satp = satp;
            g->setReg(2, i < sp.size() ? sp[i] : 0);
            g->setReg(10, i);
            funcHarts_.push_back(std::move(g));
        }
        // The handoff baseline: a freshly reset kernel with empty
        // pipelines and caches, same image CheckpointManager persists.
        pristineSnap_ = k_.snapshot();
    }
}

uint64_t
System::instret(uint32_t i) const
{
    return cfg_.inOrder ? ioCores_[i]->instret() : oooCores_[i]->instret();
}

void
System::setOnCommit(uint32_t i,
                    std::function<void(const CommitRecord &)> fn)
{
    if (cfg_.inOrder)
        ioCores_[i]->onCommit = std::move(fn);
    else
        oooCores_[i]->onCommit = std::move(fn);
}

namespace {

void
putBlob(std::vector<uint8_t> &out, const std::vector<uint8_t> &blob)
{
    for (int i = 0; i < 8; i++)
        out.push_back(uint8_t(uint64_t(blob.size()) >> (8 * i)));
    out.insert(out.end(), blob.begin(), blob.end());
}

std::vector<uint8_t>
getBlob(const uint8_t *&p, const uint8_t *end)
{
    if (end - p < 8)
        panic("system: truncated checkpoint payload");
    uint64_t len = 0;
    for (int i = 0; i < 8; i++)
        len |= uint64_t(p[i]) << (8 * i);
    p += 8;
    if (uint64_t(end - p) < len)
        panic("system: truncated checkpoint payload");
    std::vector<uint8_t> blob(p, p + len);
    p += len;
    return blob;
}

} // namespace

std::vector<uint8_t>
System::checkpointPayload() const
{
    std::vector<uint8_t> out;
    putBlob(out, mem_.serialize());
    putBlob(out, host_->serialize());
    putBlob(out, userSave_ ? userSave_() : std::vector<uint8_t>{});
    return out;
}

void
System::loadCheckpointPayload(const std::vector<uint8_t> &bytes)
{
    const uint8_t *p = bytes.data();
    const uint8_t *end = p + bytes.size();
    mem_.deserialize(getBlob(p, end));
    host_->deserialize(getBlob(p, end));
    std::vector<uint8_t> user = getBlob(p, end);
    if (userLoad_)
        userLoad_(user);
}

void
System::setCheckpointUserHooks(
    std::function<std::vector<uint8_t>()> save,
    std::function<void(const std::vector<uint8_t> &)> load)
{
    userSave_ = std::move(save);
    userLoad_ = std::move(load);
}

HardenedRunner &
System::runner()
{
    if (!runner_) {
        HardenedConfig hc;
        hc.watchdogStallCycles = cfg_.watchdogStallCycles;
        hc.checkpointEvery = cfg_.checkpointEvery;
        hc.checkpointPath = cfg_.checkpointPath;
        runner_ = std::make_unique<HardenedRunner>(k_, hc);
        // Heartbeat = architectural progress: committed instructions
        // plus exit flags (an exiting hart commits nothing more but
        // still made progress). Catches livelock, not just deadlock.
        runner_->watchdog().setHeartbeat([this] {
            uint64_t total = 0;
            for (uint32_t i = 0; i < cfg_.cores; i++)
                total += instret(i) + (host_->exited(i) ? 1 : 0);
            return total;
        });
        if (auto *ck = runner_->checkpoints()) {
            ck->setPayloadHooks(
                [this] { return checkpointPayload(); },
                [this](const std::vector<uint8_t> &b) {
                    loadCheckpointPayload(b);
                });
        }
    }
    return *runner_;
}

bool
System::restoreCheckpoint()
{
    HardenedRunner &hr = runner();
    CheckpointManager *ck = hr.checkpoints();
    if (!ck)
        kfault(FaultKind::ApiMisuse, "system",
               "restoreCheckpoint() without a checkpointPath");
    if (!ck->load())
        return false;
    hr.watchdog().reset();
    return true;
}

bool
System::run(uint64_t maxCycles)
{
    HardenedRunner &hr = runner();
    auto t0 = std::chrono::steady_clock::now();
    auto nsSince = [&t0] {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };
    const uint64_t wallBudgetNs = cfg_.maxWallSeconds * 1'000'000'000ull;
    uint64_t wallPoll = 0;
    stopReason_ = StopReason::MaxCycles;
    auto done = [&] {
        if (host_->failed()) {
            stopReason_ = StopReason::HostFail;
            return true;
        }
        if (host_->allExited()) {
            stopReason_ = StopReason::AllExited;
            return true;
        }
        // The clock read is ~a cache miss; poll it coarsely.
        if (wallBudgetNs && ++wallPoll >= 256) {
            wallPoll = 0;
            if (nsSince() >= wallBudgetNs) {
                stopReason_ = StopReason::WallClock;
                return true;
            }
        }
        return false;
    };
    try {
        hr.run(done, maxCycles);
    } catch (const KernelFault &) {
        runWallNs_ += nsSince();
        std::cerr << k_.report().text();
        for (auto &core : oooCores_)
            std::cerr << core->debugString();
        throw;
    }
    runWallNs_ += nsSince();
    return stopReason_ == StopReason::AllExited;
}

/*
 * ---- Execution modes (SystemConfig::execMode, proc/sampling.hh) ----
 */

bool
System::runFastForward(uint64_t maxInsts)
{
    if (funcHarts_.empty())
        kfault(FaultKind::ApiMisuse, "system",
               "runFastForward() needs execMode != Detailed (and a "
               "prior start())");
    auto t0 = std::chrono::steady_clock::now();
    // Round-robin batches keep multi-hart spin barriers live: a hart
    // parked on a barrier burns its batch, but its peers advance.
    constexpr uint64_t kBatch = 8192;
    uint64_t total = 0;
    stopReason_ = StopReason::MaxInsts;
    for (;;) {
        uint64_t ran = 0;
        for (auto &g : funcHarts_) {
            uint64_t budget = kBatch;
            if (maxInsts && maxInsts - total - ran < budget)
                budget = maxInsts - total - ran;
            ran += g->run(budget);
            if (host_->failed())
                break;
        }
        total += ran;
        if (host_->failed()) {
            stopReason_ = StopReason::HostFail;
            break;
        }
        if (host_->allExited()) {
            stopReason_ = StopReason::AllExited;
            break;
        }
        if (maxInsts && total >= maxInsts)
            break; // MaxInsts
        if (ran == 0 && !maxInsts) {
            // Every live hart is spinning without retiring (can only
            // happen with a zero budget); avoid a silent infinite loop.
            kfault(FaultKind::ApiMisuse, "system",
                   "runFastForward(0) made no progress");
        }
    }
    sampleStats_.ffInsts += total;
    sampleStats_.totalInsts += total;
    runWallNs_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return stopReason_ == StopReason::AllExited;
}

void
System::handoffToDetailed()
{
    if (funcHarts_.empty() || pristineSnap_.empty())
        kfault(FaultKind::ApiMisuse, "system",
               "handoffToDetailed() needs execMode != Detailed (and a "
               "prior start())");
    k_.restore(pristineSnap_);
    for (uint32_t i = 0; i < cfg_.cores; i++) {
        isa::ArchState as = funcHarts_[i]->archState();
        if (cfg_.inOrder)
            ioCores_[i]->restoreArch(as);
        else
            oooCores_[i]->restoreArch(as);
    }
    if (runner_)
        runner_->watchdog().reset();
}

/*
 * One detailed (warmup + measure) window, plus the drain back to a
 * quiescent machine. The caller has already fast-forwarded and handed
 * off; we follow commits with the shadow, stop once `measure`
 * instructions retired past the warmup boundary, then park fetch and
 * cycle until the core and the memory hierarchy are empty — so the
 * next handoff can resync cache data without racing in-flight refills.
 * Returns true when the window ended for a terminal reason (exit,
 * failure, cycle overrun) — stopReason_ says which.
 */
bool
System::sampledInterval(ShadowTracker &shadow, uint64_t &warmCycles,
                        uint64_t &warmInsts, uint64_t &measCycles,
                        uint64_t &measInsts, uint64_t &drainInsts)
{
    const SamplingConfig &sc = cfg_.sampling;
    OooCore &core = *oooCores_[0];

    // Chain the shadow in front of any existing commit hook.
    auto &hook = core.onCommit;
    auto prev = hook;
    hook = [&shadow, prev](const CommitRecord &r) {
        shadow.step(r.pc, r.trapped);
        if (prev)
            prev(r);
    };
    core.setCpiMuted(true); // warmup cycles stay out of the stats

    const uint64_t i0 = core.instret();
    const uint64_t c0 = k_.cycleCount();
    uint64_t iWarm = i0, cWarm = c0;
    bool measuring = sc.warmup == 0;
    if (measuring)
        core.setCpiMuted(false);
    // Generous per-window cycle budget: even at CPI 50 a window
    // fits; hitting it means the interval wedged, not a slow phase.
    const uint64_t cap = (sc.warmup + sc.measure) * 50 + 100000;

    HardenedRunner &hr = runner();
    auto t0 = std::chrono::steady_clock::now();
    stopReason_ = StopReason::MaxCycles;
    auto done = [&] {
        if (host_->failed()) {
            stopReason_ = StopReason::HostFail;
            return true;
        }
        if (host_->allExited()) {
            stopReason_ = StopReason::AllExited;
            return true;
        }
        if (!measuring && core.instret() - i0 >= sc.warmup) {
            measuring = true;
            iWarm = core.instret();
            cWarm = k_.cycleCount();
            core.setCpiMuted(false);
        }
        if (measuring && core.instret() - iWarm >= sc.measure) {
            stopReason_ = StopReason::MaxInsts;
            return true;
        }
        return false;
    };
    try {
        hr.run(done, cap);
    } catch (const KernelFault &) {
        hook = prev;
        std::cerr << k_.report().text();
        throw;
    }
    core.setCpiMuted(true);

    if (!measuring) {
        iWarm = core.instret();
        cWarm = k_.cycleCount();
    }
    warmInsts = iWarm - i0;
    warmCycles = cWarm - c0;
    measInsts = core.instret() - iWarm;
    measCycles = k_.cycleCount() - cWarm;
    const bool terminal = stopReason_ != StopReason::MaxInsts;

    // Warm handoff back to fast-forward: park fetch, squash the
    // in-flight work, and cycle until the core and the whole hierarchy
    // are quiescent, so the next handoff can resync cache data without
    // racing an in-flight refill. Drain commits are real program
    // instructions — the shadow (still hooked) keeps following them;
    // cycles stay CPI-muted.
    if (!terminal) {
        const uint64_t iDrain0 = core.instret();
        try {
            core.beginDrain();
            auto quiet = [&] {
                return core.drained() && hier_->quiescent();
            };
            // Generous bound: a full drain is ROB+SB+MSHR depth worth
            // of DRAM round trips, a few thousand cycles at most.
            uint64_t left = 100000;
            while (!quiet()) {
                if (left-- == 0)
                    kfault(FaultKind::DesignError, "system",
                           "sampled handoff drain did not quiesce");
                k_.run(1);
            }
        } catch (const KernelFault &) {
            hook = prev;
            std::cerr << k_.report().text();
            throw;
        }
        drainInsts = core.instret() - iDrain0;
    }

    runWallNs_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    hook = prev;
    return terminal;
}

bool
System::runSampled(uint64_t maxInsts)
{
    if (cfg_.execMode != ExecMode::Sampled)
        kfault(FaultKind::ApiMisuse, "system",
               "runSampled() needs execMode == Sampled");
    if (cfg_.cores != 1)
        kfault(FaultKind::ApiMisuse, "system",
               "sampled mode is single-core (cores=%u)", cfg_.cores);
    // The in-order core reports memory instructions at completion, not
    // in program order (see its onCommit), so the ShadowTracker cannot
    // follow its commit stream.
    if (cfg_.inOrder)
        kfault(FaultKind::ApiMisuse, "system",
               "sampled mode needs the OOO core (inOrder=true)");
    if (funcHarts_.empty())
        kfault(FaultKind::ApiMisuse, "system",
               "runSampled() before start()");
    const SamplingConfig &sc = cfg_.sampling;
    if (sc.measure == 0)
        kfault(FaultKind::ApiMisuse, "system",
               "sampling.measure must be > 0");

    sampleStats_ = SampleStats{};
    IntervalEstimator est;
    isa::GoldenModel &g = *funcHarts_[0];
    // Journal every line fast-forwarding touches (fetch, load, store,
    // page-table walk), so each handoff can functionally warm the
    // caches with the skip's working set and resync dirtied lines.
    std::vector<uint64_t> journal;
    g.setTouchJournal(&journal);
    // Companion journals for the non-cache microarchitectural state:
    // leaf translations (TLB warming) and control transfers (BTB /
    // direction-predictor / RAS warming).
    std::vector<isa::GoldenModel::XlateRec> xlates;
    std::vector<isa::GoldenModel::BranchRec> branches;
    g.setXlateJournal(&xlates);
    g.setBranchJournal(&branches);
    stopReason_ = StopReason::MaxInsts;
    bool terminal = false;
    while (!terminal) {
        if (maxInsts && sampleStats_.totalInsts >= maxInsts)
            break;

        // 1. Warm handoff into the detailed core. Intervals are
        // measure-first: the detailed (warmup, measure) window runs
        // before each fast-forward skip, so the very start of the
        // program — often an unrepresentative setup phase — lands
        // inside a measured window instead of being systematically
        // skipped (skip-first ordering biases the estimate on short
        // programs whose fastest code is the beginning). The previous
        // interval left the machine drained and quiescent with every
        // cache, TLB and predictor warm (SMARTS' functional warming
        // for free); fast-forwarding advanced memory underneath the
        // caches, so resync the journaled lines' cached copies —
        // data only, no protocol-state change — then re-seed the
        // architectural state. The first iteration runs this on the
        // pristine post-start() machine, where it degenerates to
        // restoreArch (nothing is cached yet).
        isa::ArchState as = g.archState();
        ShadowTracker shadow(mem_, cfg_.cores, 0, as);
        // Functional warming: replay the skip's touches in program
        // order (LRU-faithful), one atomic action per touch — within
        // one action reads see start-of-action state, so sequential
        // victim selection needs a commit between touches. Stored-to
        // lines additionally get a data-only resync afterwards,
        // catching cached copies a skipped warmTouch (e.g. an E/M
        // holder on another child) left stale.
        std::vector<Addr> stores;
        bool ok = true;
        for (uint64_t e : journal) {
            Addr ln = e & ~static_cast<uint64_t>(63);
            bool ifetch = (e & isa::GoldenModel::kTouchFetch) != 0;
            // Two atomic actions per touch: the L2 install's victim
            // recall must commit before the L1 victim pick reads the
            // set's state (see MemHierarchy::warmTouchL2).
            bool inL2 = false;
            ok &= k_.runAtomically([&] {
                inL2 = hier_->warmTouchL2(0, ifetch, ln, readLine(mem_, ln));
            });
            if (inL2)
                ok &= k_.runAtomically([&] {
                    hier_->warmTouchL1(0, ifetch, ln, readLine(mem_, ln));
                });
            if (e & isa::GoldenModel::kTouchStore)
                stores.push_back(ln);
        }
        std::sort(stores.begin(), stores.end());
        stores.erase(std::unique(stores.begin(), stores.end()),
                     stores.end());
        ok &= k_.runAtomically([&] {
            for (Addr ln : stores)
                hier_->debugPatchLine(ln, readLine(mem_, ln));
        });
        if (!ok)
            kfault(FaultKind::DesignError, "system",
                   "sampled handoff cache warming failed");
        journal.clear();
        g.setTouchJournal(&journal); // reset the dedup filters
        oooCores_[0]->warmTlbs(xlates);
        oooCores_[0]->warmPredictors(branches);
        oooCores_[0]->resumeArch(as);
        xlates.clear();
        branches.clear();
        runner().watchdog().reset();

        // 2. Detailed warmup + measure window, then drain back to a
        // quiescent machine.
        uint64_t wc = 0, wi = 0, mc = 0, mi = 0, di = 0;
        terminal = sampledInterval(shadow, wc, wi, mc, mi, di);
        sampleStats_.warmupInsts += wi + di; // di: drained, unmeasured
        sampleStats_.measuredInsts += mi;
        sampleStats_.measuredCycles += mc;
        sampleStats_.totalInsts += wi + mi + di;
        // A final partial interval (program exited mid-measure) below
        // this many measured instructions is dropped from the estimate.
        constexpr uint64_t kMinMeasure = 500;
        if (mc > 0 && mi >= kMinMeasure) {
            // Accumulate CPI, not IPC: intervals hold a fixed
            // instruction count, so the arithmetic mean of per-interval
            // CPIs is the instruction-weighted estimate (the SMARTS
            // estimator); a mean of IPCs would be biased high on
            // phase-heterogeneous programs (Jensen's inequality).
            est.add(double(mc) / double(mi));
            sampleStats_.intervalCpi.push_back(double(mc) / double(mi));
            sampleStats_.intervals++;
        }

        // 3. Hand back: the shadow holds the architecturally complete
        // committed state. Replacing mem_ with it is consistent with
        // the warm caches — every dirty line holds committed store
        // data, which the shadow applied too, so cached copies and
        // memory agree line for line.
        mem_ = shadow.mem();
        g.setArchState(shadow.archState()); // invalidates fast caches
                                            // (mem_ pages moved)
        if (terminal)
            break;

        // 4. Fast-forward `skip` instructions functionally.
        auto t0 = std::chrono::steady_clock::now();
        uint64_t skipped = g.run(sc.skip);
        runWallNs_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        sampleStats_.ffInsts += skipped;
        sampleStats_.totalInsts += skipped;
        if (host_->failed()) {
            stopReason_ = StopReason::HostFail;
            break;
        }
        if (g.halted()) {
            stopReason_ = StopReason::AllExited;
            break;
        }
    }

    const double cpi = est.mean();
    if (cpi > 0) {
        sampleStats_.meanIpc = 1.0 / cpi;
        // Delta method: d(1/x) = dx / x^2.
        sampleStats_.ipcCi95 = est.ci95Half() / (cpi * cpi);
        sampleStats_.estTotalCycles =
            uint64_t(double(sampleStats_.totalInsts) * cpi);
    }
    return stopReason_ == StopReason::AllExited;
}

System::EventCounts
System::events(uint32_t i) const
{
    EventCounts ev;
    ev.instret = instret(i);
    ev.cycles = k_.cycleCount();
    ev.wallNs = runWallNs_;
    ev.syncEpochs = k_.syncEpochs();
    // Per-core modules are named hart<i>.<module>; walk the stats by
    // poking the known modules directly.
    if (!cfg_.inOrder) {
        OooCore &c = *oooCores_[i];
        ev.branchMispredicts = c.stats().get("mispredicts");
        ev.ldKills = c.stats().get("ldKillFlushes");
        ev.evictKills = c.lsqStats().get("evictKills");
        ev.dtlbMisses = c.dtlbStats().get("misses");
        ev.l2tlbMisses = c.l2tlbStats().get("misses");
    } else {
        InOrderCore &c = *ioCores_[i];
        ev.branchMispredicts = c.stats().get("mispredicts");
        ev.dtlbMisses = c.dtlbStats().get("misses");
        ev.l2tlbMisses = c.l2tlbStats().get("misses");
    }
    ev.l1dMisses = hier_->dcache(i).stats().get("ldMisses") +
                   hier_->dcache(i).stats().get("stMisses");
    ev.l2Misses = hier_->l2StatSum("misses");
    return ev;
}

} // namespace riscy
