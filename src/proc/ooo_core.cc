#include "proc/ooo_core.hh"

#include <algorithm>

#include "isa/exec.hh"

namespace riscy {

using namespace cmd;
using namespace isa;

namespace {

/** TLB-request / inflight-table id: LQ entries get bit 6. */
uint8_t
memId(bool isLq, uint8_t idx)
{
    return static_cast<uint8_t>(idx | (isLq ? 0x40 : 0));
}

} // namespace

/*
 * Pipeline-trace hook sites. Placement rule: hooks go at the END of a
 * rule body, after the last statement that could abort (an implicit
 * guard failing mid-body rolls the kernel state back but would NOT
 * roll back tracer records, and abort patterns are scheduler-specific
 * — a phantom event would break the byte-identical-across-schedulers
 * guarantee the determinism tests enforce). Disabled cost is one
 * null-pointer test.
 */
#define OBS_STAGE(seq, st)                                                 \
    do {                                                                   \
        if (tracer_)                                                       \
            tracer_->stage((seq), obs::Stage::st, k_.cycleCount());        \
    } while (0)
#define OBS_RETIRE(robIdx)                                                 \
    do {                                                                   \
        if (tracer_)                                                       \
            tracer_->retire(robSeq_[robIdx], k_.cycleCount());             \
    } while (0)

OooCore::OooCore(Kernel &k, const std::string &name, uint32_t hartId,
                 const CoreConfig &cfg, L1Cache &icache, L1Cache &dcache,
                 UncachedPort &walkPort, HostDevice &host)
    : k_(k), name_(name), hartId_(hartId), cfg_(cfg), icache_(icache),
      dcache_(dcache), host_(host),
      fetchGhr_(k, name + ".fetchGhr", 0),
      fetchSeq_(k, name + ".fetchSeq", 0),
      fetchResp_(k, name + ".fetchResp", 8),
      aluRR_(k, name + ".aluRR", 0),
      mdBusy_(k, name + ".mdBusy"),
      inflight_(k, name + ".inflight", 128),
      pendingAtomic_(k, name + ".pendingAtomic"),
      csr_(k, name + ".csr"),
      instret_(k, name + ".instret", 0),
      flushReq_(k, name + ".flushReq"),
      serialPending_(k, name + ".serialPending", false),
      fetchStall_(k, name + ".fetchStall", false)
{
    meta_ = std::make_unique<Meta>(k, name + ".core");
    branches_ = &meta_->stats().counter("branches");
    mispredicts_ = &meta_->stats().counter("mispredicts");
    ldKillFlushes_ = &meta_->stats().counter("ldKillFlushes");
    flushes_ = &meta_->stats().counter("flushes");
    fetchRedirects_ = &meta_->stats().counter("fetchRedirects");
    committedLoads_ = &meta_->stats().counter("committedLoads");
    committedStores_ = &meta_->stats().counter("committedStores");
    committedAmos_ = &meta_->stats().counter("committedAmos");
    // Occupancy sampled by obsCycle() (only when observability is on);
    // fetch-to-commit latency sampled at every commit.
    robOccupancy_ = &meta_->stats().histogram("robOccupancy", 0,
                                              cfg.robSize + 1, 16);
    fetchToCommit_ = &meta_->stats().histogram("fetchToCommit", 0, 512, 32);

    epoch_ = std::make_unique<EpochManager>(k, name + ".epoch");
    btb_ = std::make_unique<Btb>(k, name + ".btb", cfg.btbEntries);
    bp_ = std::make_unique<TournamentBp>(k, name + ".bp");
    ras_ = std::make_unique<Ras>(k, name + ".ras", cfg.rasEntries);
    f2q_ = std::make_unique<CfFifo<FetchReq>>(k, name + ".f2q", 2);
    f3q_ = std::make_unique<CfFifo<FetchXlated>>(k, name + ".f3q", 4);
    instQ_ = std::make_unique<GroupFifo<Uop>>(k, name + ".instQ", 12);

    itlbChan_ = std::make_unique<TlbChannel>(k, name + ".itlbChan");
    dtlbChan_ = std::make_unique<TlbChannel>(k, name + ".dtlbChan");
    itlb_ = std::make_unique<L1Tlb>(k, name + ".itlb", cfg.itlb,
                                    *itlbChan_);
    dtlb_ = std::make_unique<L1Tlb>(k, name + ".dtlb", cfg.dtlb,
                                    *dtlbChan_);
    l2tlb_ = std::make_unique<L2Tlb>(
        k, name + ".l2tlb", cfg.l2tlb,
        std::vector<TlbChannel *>{dtlbChan_.get(), itlbChan_.get()},
        walkPort);

    uint32_t numPhys = cfg.numPhys();
    specMgr_ = std::make_unique<SpecManager>(k, name + ".specMgr",
                                             cfg.numSpecTags);
    rt_ = std::make_unique<RenameTable>(k, name + ".rt", cfg.numSpecTags);
    fl_ = std::make_unique<FreeList>(k, name + ".fl", numPhys,
                                     cfg.numSpecTags);
    sb_ = std::make_unique<Scoreboard>(k, name + ".sb", numPhys);
    prf_ = std::make_unique<Prf>(k, name + ".prf", numPhys);
    // Bypass ports: exec + regwrite per ALU pipe.
    bypass_ = std::make_unique<Bypass>(k, name + ".bypass",
                                       cfg.aluPipes * 2);
    rob_ = std::make_unique<Rob>(k, name + ".rob", cfg.robSize);

    for (uint32_t p = 0; p < cfg.aluPipes; p++) {
        std::string pn = name + strfmt(".alu%u", p);
        aluIq_.push_back(std::make_unique<IssueQueue>(k, pn + ".iq",
                                                      cfg.iqSize,
                                                      cfg.iqOrder));
        aluRrq_.push_back(
            std::make_unique<SpecFifo<Uop>>(k, pn + ".rrq", 1));
        aluExq_.push_back(
            std::make_unique<SpecFifo<Uop>>(k, pn + ".exq", 1));
        aluWbq_.push_back(
            std::make_unique<SpecFifo<Uop>>(k, pn + ".wbq", 1));
    }
    mdIq_ = std::make_unique<IssueQueue>(k, name + ".md.iq", cfg.iqSize,
                                         cfg.iqOrder);
    mdRrq_ = std::make_unique<SpecFifo<Uop>>(k, name + ".md.rrq", 1);
    memIq_ = std::make_unique<IssueQueue>(k, name + ".mem.iq", cfg.iqSize,
                                          cfg.iqOrder);
    memRrq_ = std::make_unique<SpecFifo<Uop>>(k, name + ".mem.rrq", 1);
    memAmq_ = std::make_unique<SpecFifo<Uop>>(k, name + ".mem.amq", 2);

    lsq_ = std::make_unique<Lsq>(k, name + ".lsq", cfg.lqSize,
                                 cfg.sqSize, cfg.tso);
    storeBuf_ = std::make_unique<StoreBuffer>(k, name + ".sb", cfg.sbSize);
    forwardQ_ = std::make_unique<CfFifo<Forwarded>>(k, name + ".fwdQ", 4);

    // tsoEvictKill=false deliberately breaks TSO load-load ordering;
    // only the litmus harness's negative test may do that.
    if (cfg.tso && cfg.tsoEvictKill) {
        dcache_.setEvictHook([this](Addr l) { lsq_->cacheEvict(l); },
                             {&lsq_->cacheEvictM});
    }

    // ------------------------------------------------- rule registration
    // The flush rule is registered first so it wins the schedule
    // tie-breaks and can fire before anything else commits state.
    k.rule(name + ".doFlush", [this] { doFlush(); })
        .when([this] { return flushReq_.read().valid; })
        .uses({&rob_->clearM, &lsq_->flushM, &rt_->resetM, &fl_->rebuildM,
               &specMgr_->clearM, &sb_->setAllReadyM, &prf_->setAllReadyM,
               &epoch_->redirectM, &itlb_->setSatpM, &dtlb_->setSatpM,
               &itlb_->flushM, &dtlb_->flushM, &l2tlb_->setSatpM,
               &mdIq_->clearM, &memIq_->clearM, &mdRrq_->clearM,
               &memRrq_->clearM, &memAmq_->clearM})
        .uses([this] {
            std::vector<const Method *> ms;
            for (uint32_t p = 0; p < cfg_.aluPipes; p++) {
                ms.push_back(&aluIq_[p]->clearM);
                ms.push_back(&aluRrq_[p]->clearM);
                ms.push_back(&aluExq_[p]->clearM);
                ms.push_back(&aluWbq_[p]->clearM);
            }
            return ms;
        }());

    k.rule(name + ".doCommit", [this] { doCommit(); })
        .when([this] { return commitReady(); })
        .uses({&rob_->deqM, &rob_->setAtCommitSentM, &rt_->setCommittedM,
               &fl_->freeM, &lsq_->setAtCommitStM, &lsq_->deqStM,
               &lsq_->dropLdM, &prf_->writeM, &sb_->setReadyM})
        .uses(wakeupMethods());

    k.rule(name + ".doFetch1", [this] { doFetch1(); })
        .when([this] {
            return !flushReq_.read().valid && !fetchStall_.read() &&
                   !epoch_->redirectedThisCycle() && f2q_->canEnq() &&
                   itlb_->canReq();
        })
        .uses({&btb_->predictM, &itlb_->reqM, &f2q_->enqM,
               &epoch_->setFetchPcM});

    k.rule(name + ".doFetch2", [this] { doFetch2(); })
        .when([this] { return itlb_->respReady() && f3q_->canEnq(); })
        .uses({&itlb_->respM, &f2q_->deqM, &f2q_->firstM,
               &icache_.reqLdM, &f3q_->enqM});

    k.rule(name + ".doIcacheResp", [this] { doIcacheResp(); })
        .when([this] { return icache_.respLdReady(); })
        .uses({&icache_.respLdM});

    k.rule(name + ".doFetch3", [this] { doFetch3(); })
        .when([this] { return fetch3Ready(); })
        .uses({&f3q_->firstM, &f3q_->deqM, &instQ_->enqM, &bp_->predictM,
               &btb_->predictM, &btb_->updateM, &ras_->pushM, &ras_->popM,
               &epoch_->resteerM});

    {
        std::vector<const Method *> ms = {
            &instQ_->deqM, &rob_->enqM, &fl_->allocM, &rt_->setSpecM,
            &rt_->snapshotM, &fl_->snapshotM, &sb_->rdyM,
            &sb_->setNotReadyM, &prf_->setNotReadyM, &specMgr_->allocM,
            &lsq_->enqLdM, &lsq_->enqStM, &mdIq_->enterM,
            &memIq_->enterM};
        for (uint32_t p = 0; p < cfg_.aluPipes; p++)
            ms.push_back(&aluIq_[p]->enterM);
        k.rule(name + ".doRename", [this] { doRename(); })
            .when([this] {
                return !flushReq_.read().valid &&
                       !serialPending_.read() && instQ_->size() > 0;
            })
            .uses(ms);
    }

    for (uint32_t p = 0; p < cfg_.aluPipes; p++) {
        k.rule(name + strfmt(".doIssue%u", p), [this, p] { doIssue(p); })
            .when([this, p] {
                return aluIq_[p]->canIssue() && aluRrq_[p]->canEnq();
            })
            .uses({&aluIq_[p]->issueM, &aluRrq_[p]->enqM});
        k.rule(name + strfmt(".doRegRead%u", p),
               [this, p] { doRegRead(p); })
            .when([this, p] {
                return aluRrq_[p]->canDeq() && aluExq_[p]->canEnq();
            })
            .uses({&aluRrq_[p]->firstM, &aluRrq_[p]->deqM, &prf_->readM,
                   &bypass_->getM, &aluExq_[p]->enqM});
        {
            std::vector<const Method *> ms = {
                &aluExq_[p]->firstM, &aluExq_[p]->deqM,
                &aluWbq_[p]->enqM, &bypass_->setM, &bp_->updateM,
                &btb_->updateM, &sb_->setReadyM, &specMgr_->commitM,
                &specMgr_->squashM, &rt_->rollbackM, &fl_->rollbackM,
                &epoch_->redirectM};
            auto wk = wakeupMethods();
            ms.insert(ms.end(), wk.begin(), wk.end());
            auto sm = specMethods();
            ms.insert(ms.end(), sm.begin(), sm.end());
            k.rule(name + strfmt(".doExec%u", p), [this, p] { doExec(p); })
                .when([this, p] { return aluExq_[p]->canDeq(); })
                .uses(ms);
        }
        k.rule(name + strfmt(".doRegWrite%u", p),
               [this, p] { doRegWrite(p); })
            .when([this, p] { return aluWbq_[p]->canDeq(); })
            .uses({&aluWbq_[p]->firstM, &aluWbq_[p]->deqM, &prf_->writeM,
                   &bypass_->setM, &rob_->markDoneM});
    }

    k.rule(name + ".doIssueMd", [this] { doIssueMd(); })
        .when([this] { return mdIq_->canIssue() && mdRrq_->canEnq(); })
        .uses({&mdIq_->issueM, &mdRrq_->enqM});
    k.rule(name + ".doRegReadMd", [this] { doRegReadMd(); })
        .when([this] {
            return mdRrq_->canDeq() && !mdBusy_.read().valid;
        })
        .uses({&mdRrq_->firstM, &mdRrq_->deqM, &prf_->readM,
               &bypass_->getM});
    k.rule(name + ".doMdWb", [this] { doMdWb(); })
        .when([this] {
            return mdBusy_.read().valid &&
                   k_.cycleCount() >= mdBusy_.read().doneCycle;
        })
        .uses([this] {
            std::vector<const Method *> ms = {&prf_->writeM,
                                              &sb_->setReadyM,
                                              &rob_->markDoneM};
            auto wk = wakeupMethods();
            ms.insert(ms.end(), wk.begin(), wk.end());
            return ms;
        }());

    k.rule(name + ".doIssueMem", [this] { doIssueMem(); })
        .when([this] { return memIq_->canIssue() && memRrq_->canEnq(); })
        .uses({&memIq_->issueM, &memRrq_->enqM});
    k.rule(name + ".doRegReadMem", [this] { doRegReadMem(); })
        .when([this] { return memRrq_->canDeq() && memAmq_->canEnq(); })
        .uses({&memRrq_->firstM, &memRrq_->deqM, &prf_->readM,
               &bypass_->getM, &memAmq_->enqM});
    k.rule(name + ".doAddrCalc", [this] { doAddrCalc(); })
        .when([this] { return memAmq_->canDeq(); })
        .uses({&memAmq_->firstM, &memAmq_->deqM, &dtlb_->reqM,
               &lsq_->updateLdM, &lsq_->updateStM,
               &rob_->setAfterTranslationM});
    k.rule(name + ".doUpdateLsq", [this] { doUpdateLsq(); })
        .when([this] { return dtlb_->respReady(); })
        .uses({&dtlb_->respM, &lsq_->updateLdM, &lsq_->updateStM,
               &rob_->setAfterTranslationM});

    k.rule(name + ".doIssueLd", [this] { doIssueLd(); })
        .when([this] { return lsq_->getIssueLd() >= 0; })
        .uses({&lsq_->issueLdM, &storeBuf_->searchM, &forwardQ_->enqM,
               &dcache_.reqLdM});
    k.rule(name + ".doRespLdCache", [this] { doRespLdCache(); })
        .when([this] { return dcache_.respLdReady(); })
        .uses([this] {
            std::vector<const Method *> ms = {&dcache_.respLdM,
                                              &lsq_->respLdM,
                                              &prf_->writeM,
                                              &sb_->setReadyM};
            auto wk = wakeupMethods();
            ms.insert(ms.end(), wk.begin(), wk.end());
            return ms;
        }());
    k.rule(name + ".doRespLdFwd", [this] { doRespLdFwd(); })
        .when([this] { return forwardQ_->canDeq(); })
        .uses([this] {
            std::vector<const Method *> ms = {&forwardQ_->deqM,
                                              &forwardQ_->firstM,
                                              &lsq_->respLdM,
                                              &prf_->writeM,
                                              &sb_->setReadyM};
            auto wk = wakeupMethods();
            ms.insert(ms.end(), wk.begin(), wk.end());
            return ms;
        }());
    k.rule(name + ".doDeqLd", [this] { doDeqLd(); })
        .when([this] { return lsq_->canDeqLd(); })
        .uses({&lsq_->deqLdM, &rob_->setAtLSQDeqM});

    if (cfg.tso) {
        k.rule(name + ".doIssueStTso", [this] { doIssueStTso(); })
            .when([this] {
                return lsq_->canIssueSt() && dcache_.canReq();
            })
            .uses({&dcache_.reqStM, &lsq_->markStIssuedM});
        k.rule(name + ".doRespStTso", [this] { doRespStTso(); })
            .when([this] { return dcache_.respStReady(); })
            .uses({&dcache_.respStM, &dcache_.writeDataM, &lsq_->deqStM});
    } else {
        k.rule(name + ".doDeqStToSb", [this] { doDeqStToSb(); })
            .when([this] { return lsq_->canDeqStToSb(*storeBuf_); })
            .uses({&lsq_->deqStM, &storeBuf_->enqM});
        k.rule(name + ".doSbIssue", [this] { doSbIssue(); })
            .when([this] {
                return storeBuf_->canIssue() && dcache_.canReq();
            })
            .uses({&storeBuf_->issueM, &dcache_.reqStM});
        k.rule(name + ".doRespStWmm", [this] { doRespStWmm(); })
            .when([this] { return dcache_.respStReady(); })
            .uses({&dcache_.respStM, &dcache_.writeDataM,
                   &storeBuf_->deqM, &lsq_->wakeupBySBDeqM});
    }

    if (cfg.storePrefetch) {
        k.rule(name + ".doStPrefetch", [this] { doStPrefetch(); })
            .when([this] { return lsq_->getStPrefetch() >= 0; })
            .uses({&dcache_.prefetchHintM, &lsq_->markStPrefetchedM});
    }

    k.rule(name + ".doIssueAtomic", [this] { doIssueAtomic(); })
        .when([this] {
            return pendingAtomic_.read().valid && dcache_.canReq();
        })
        .uses({&dcache_.reqAtomicM});
    k.rule(name + ".doRespAtomic", [this] { doRespAtomic(); })
        .when([this] { return dcache_.respAtomicReady(); })
        .uses([this] {
            std::vector<const Method *> ms = {
                &dcache_.respAtomicM, &prf_->writeM, &sb_->setReadyM,
                &rob_->markDoneM, &lsq_->dropLdM, &lsq_->deqStM};
            auto wk = wakeupMethods();
            ms.insert(ms.end(), wk.begin(), wk.end());
            return ms;
        }());
}

std::vector<const Method *>
OooCore::wakeupMethods() const
{
    std::vector<const Method *> ms;
    for (const auto &iq : aluIq_)
        ms.push_back(&iq->wakeupM);
    ms.push_back(&mdIq_->wakeupM);
    ms.push_back(&memIq_->wakeupM);
    return ms;
}

std::vector<const Method *>
OooCore::specMethods() const
{
    std::vector<const Method *> ms;
    auto add = [&](const Method &w, const Method &c) {
        ms.push_back(&w);
        ms.push_back(&c);
    };
    add(rob_->wrongSpecM, rob_->correctSpecM);
    add(lsq_->wrongSpecM, lsq_->correctSpecM);
    for (const auto &iq : aluIq_)
        add(iq->wrongSpecM, iq->correctSpecM);
    add(mdIq_->wrongSpecM, mdIq_->correctSpecM);
    add(memIq_->wrongSpecM, memIq_->correctSpecM);
    for (const auto &q : aluRrq_)
        add(q->wrongSpecM, q->correctSpecM);
    for (const auto &q : aluExq_)
        add(q->wrongSpecM, q->correctSpecM);
    for (const auto &q : aluWbq_)
        add(q->wrongSpecM, q->correctSpecM);
    add(mdRrq_->wrongSpecM, mdRrq_->correctSpecM);
    add(memRrq_->wrongSpecM, memRrq_->correctSpecM);
    add(memAmq_->wrongSpecM, memAmq_->correctSpecM);
    return ms;
}

std::string
OooCore::debugString() const
{
    std::string out;
    out += strfmt("rob: count=%u", rob_->count());
    if (rob_->frontValid()) {
        const RobEntry &e = rob_->front();
        out += strfmt(" front{pc=%#llx op=%s done=%d exc=%d killed=%d "
                      "mmio=%d lsqIdx=%u atSent=%d}",
                      (unsigned long long)e.pc, opName(e.inst.op),
                      e.done, e.exception, e.ldKilled, e.isMmio,
                      e.lsqIdx, e.atCommitSent);
    }
    out += strfmt("\ninstQ=%u", instQ_->size());
    for (uint32_t p = 0; p < cfg_.aluPipes; p++) {
        out += strfmt(" aluIq%u=%u(rdy=%d)", p, aluIq_[p]->size(),
                      aluIq_[p]->canIssue());
    }
    out += strfmt(" mdIq=%u memIq=%u(rdy=%d)", mdIq_->size(),
                  memIq_->size(), memIq_->canIssue());
    out += strfmt("\nlq={cnt=%u head=%u} sq={cnt=%u head=%u} "
                  "canDeqLd=%d getIssueLd=%d sbEmpty=%d",
                  lsq_->lqCount(), lsq_->lqHeadIdx(), lsq_->sqCount(),
                  lsq_->sqHeadIdx(), lsq_->canDeqLd(),
                  lsq_->getIssueLd(), storeBuf_->empty());
    if (rob_->frontValid()) {
        const RobEntry &e = rob_->front();
        if (e.inst.isLq()) {
            const Lsq::LqEntry &le = lsq_->lqEntry(e.lsqIdx);
            out += strfmt("\nheadLq{v=%d st=%u addrV=%d mmio=%d "
                          "fault=%d killed=%d stall=%u}",
                          le.valid, (unsigned)le.state, le.addrValid,
                          le.mmio, le.fault, le.killed,
                          (unsigned)le.stallSrc);
        }
        if (e.inst.isSq()) {
            const Lsq::SqEntry &se = lsq_->sqEntry(e.lsqIdx);
            out += strfmt("\nheadSq{v=%d addrV=%d dataV=%d mmio=%d "
                          "fault=%d comm=%d}",
                          se.valid, se.addrValid, se.dataValid, se.mmio,
                          se.fault, se.committed);
        }
    }
    out += strfmt("\nserialPending=%d pendingAtomic=%d flushReq=%d "
                  "mdBusy=%d specActive=%#x flCanAlloc=%d epoch=%u",
                  serialPending_.read(), pendingAtomic_.read().valid,
                  flushReq_.read().valid, mdBusy_.read().valid,
                  specMgr_->activeMask(), fl_->canAlloc(1),
                  epoch_->current());
    out += strfmt("\nf2q=%u f3q=%u fwdQ=%u\n", f2q_->size(),
                  f3q_->size(), forwardQ_->size());
    return out;
}

void
OooCore::reset(Addr pc, uint64_t satp, Addr sp)
{
    bool ok = k_.runAtomically([&] {
        rt_->initIdentity();
        fl_->initRange(32, cfg_.numPhys() - 32);
        CsrState cs;
        cs.satp = satp;
        csr_.write(cs);
        epoch_->setFetchPc(pc);
        itlb_->setSatp(satp);
        dtlb_->setSatp(satp);
        l2tlb_->setSatp(satp);
        prf_->write(2, sp);       // x2/sp maps to phys 2 at reset
        prf_->write(10, hartId_); // x10/a0 carries the hart id
    });
    if (!ok)
        panic("%s: reset failed", name_.c_str());
}

/*
 * Sampled-mode warm handoff, detailed -> fast-forward: park fetch and
 * raise a commit-point flush. doFlush squashes all in-flight work back
 * to the committed state — the exact machinery a trap uses — while
 * leaving caches, TLBs and predictors warm; with fetch stalled the
 * remaining queued fetch groups filter out as epoch-stale within a few
 * cycles and the store buffer drains its committed stores.
 */
void
OooCore::beginDrain()
{
    bool ok = k_.runAtomically([&] {
        fetchStall_.write(true);
        // Preserve a pending satpChanged: a satp write may have
        // committed in the window's final cycle.
        FlushReq f = flushReq_.read();
        f.valid = true;
        f.redirectPc = 0; // parked; resumeArch() supplies the real pc
        flushReq_.write(f);
    });
    if (!ok)
        panic("%s: beginDrain failed", name_.c_str());
}

bool
OooCore::drained() const
{
    if (flushReq_.read().valid || !rob_->empty() || !lsq_->lqEmpty() ||
        !lsq_->sqEmpty() || !storeBuf_->empty())
        return false;
    if (instQ_->size() || f2q_->size() || f3q_->size() ||
        forwardQ_->size())
        return false;
    for (uint32_t i = 0; i < fetchResp_.size(); i++)
        if (fetchResp_.read(i).valid)
            return false;
    if (mdBusy_.read().valid || pendingAtomic_.read().valid)
        return false;
    for (uint32_t i = 0; i < inflight_.size(); i++)
        if (inflight_.read(i).valid)
            return false;
    return itlb_->quiescent() && dtlb_->quiescent() &&
           l2tlb_->quiescent() && itlbChan_->req.size() == 0 &&
           itlbChan_->resp.size() == 0 && dtlbChan_->req.size() == 0 &&
           dtlbChan_->resp.size() == 0;
}

/*
 * Fast-forward -> detailed on an empty pipeline: a drained core (the
 * sampled handoff) or one reset with no cycle run since
 * (System::handoffToDetailed). Re-seeding the identity map and free
 * list from scratch is valid on any empty pipeline, so arch register
 * i lands in physical register i. The TLBs keep their contents when
 * satp is unchanged (L2Tlb::setSatp would flush 2048 warm entries).
 */
void
OooCore::resumeArch(const isa::ArchState &as)
{
    bool ok = k_.runAtomically([&] {
        rt_->initIdentity();
        fl_->initRange(32, cfg_.numPhys() - 32);
        const bool satpChanged = csr_.read().satp != as.csr.satp;
        csr_.write(as.csr);
        if (satpChanged) {
            itlb_->flush();
            dtlb_->flush();
            itlb_->setSatp(as.csr.satp);
            dtlb_->setSatp(as.csr.satp);
            l2tlb_->setSatp(as.csr.satp);
        }
        for (unsigned i = 1; i < 32; i++)
            prf_->write(i, as.regs[i]);
        instret_.write(as.instret);
        // Bump the epochs so any straggler response is stale-dropped,
        // then release fetch at the resume pc.
        epoch_->redirect(as.pc);
        fetchStall_.write(false);
    });
    if (!ok)
        panic("%s: resumeArch failed", name_.c_str());
}

/*
 * Functional TLB warming: each record is one leaf translation the
 * fast-forward leg performed. Install it exactly where a completed
 * walk would have landed — the requesting L1 TLB plus the L2 TLB —
 * one runAtomically per record so repeated pages never double-write a
 * TLB slot within a rule.
 */
void
OooCore::warmTlbs(const std::vector<isa::GoldenModel::XlateRec> &recs)
{
    bool ok = true;
    for (const auto &r : recs) {
        ok &= k_.runAtomically([&] {
            TlbEntry te;
            te.valid = true;
            te.vpn = isa::fullVpn(r.va);
            te.ppn = r.ppn;
            te.level = r.level;
            te.flags = r.flags;
            bool fetch =
                r.type == static_cast<uint8_t>(isa::AccessType::Fetch);
            (fetch ? itlb_ : dtlb_)->warmInsert(te, r.va);
            l2tlb_->warmInsert(te, r.va);
        });
    }
    if (!ok)
        panic("%s: warmTlbs failed", name_.c_str());
}

/*
 * Functional predictor warming: replay the fast-forward leg's control
 * transfers through the same update discipline execute uses, rolling
 * a local copy of the global history the way fetch3 would have
 * (shift in each branch direction), so the trained pattern tables and
 * the live GHR agree at resume.
 */
void
OooCore::warmPredictors(
    const std::vector<isa::GoldenModel::BranchRec> &recs)
{
    bool ok = true;
    uint16_t ghr = fetchGhr_.read();
    for (const auto &r : recs) {
        ok &= k_.runAtomically([&] {
            switch (r.kind) {
            case isa::GoldenModel::BranchRec::Branch:
                bp_->update(r.pc, ghr, r.taken);
                if (r.taken)
                    btb_->update(r.pc, r.target, true);
                break;
            case isa::GoldenModel::BranchRec::Jal:
                if (r.rd == 1)
                    ras_->push(r.pc + 4);
                btb_->update(r.pc, r.target, true);
                break;
            case isa::GoldenModel::BranchRec::Jalr:
                if (r.rs1 == 1 && r.rd == 0)
                    ras_->pop();
                if (r.rd == 1)
                    ras_->push(r.pc + 4);
                btb_->update(r.pc, r.target, true);
                break;
            }
        });
        if (r.kind == isa::GoldenModel::BranchRec::Branch)
            ghr = static_cast<uint16_t>((ghr << 1) | (r.taken ? 1 : 0));
    }
    ok &= k_.runAtomically([&] { fetchGhr_.write(ghr); });
    if (!ok)
        panic("%s: warmPredictors failed", name_.c_str());
}

// ------------------------------------------------------------- front end

void
OooCore::doFetch1()
{
    require(!flushReq_.read().valid && !fetchStall_.read() &&
            !epoch_->redirectedThisCycle());
    uint64_t pc = epoch_->fetchPc();
    uint32_t maxN =
        std::min<uint32_t>(cfg_.width,
                           static_cast<uint32_t>(
                               (kLineBytes - lineOffset(pc)) / 4));
    // BTB steer: stop the group at the first predicted-taken slot.
    uint32_t n = maxN;
    uint64_t next = 0;
    for (uint32_t i = 0; i < maxN; i++) {
        uint64_t t = btb_->predict(pc + 4 * i);
        if (t != 0) {
            n = i + 1;
            next = t;
            break;
        }
    }
    if (next == 0)
        next = pc + 4 * n;

    FetchReq fr;
    fr.pc = pc;
    fr.nextAssumed = next;
    fr.n = static_cast<uint8_t>(n);
    fr.epoch = epoch_->current();
    fr.seq = fetchSeq_.read();
    fr.fetchCycle = k_.cycleCount();
    fetchSeq_.write((fetchSeq_.read() + 1) & 7);
    itlb_->req(0, pc, AccessType::Fetch);
    f2q_->enq(fr);
    epoch_->setFetchPc(next);
}

void
OooCore::doFetch2()
{
    L1Tlb::Resp r = itlb_->resp();
    FetchReq fr = f2q_->deq();
    FetchXlated x;
    x.req = fr;
    x.pa = r.pa;
    x.fault = r.fault;
    if (!r.fault)
        icache_.reqLd(fr.seq, r.pa);
    f3q_->enq(x);
}

void
OooCore::doIcacheResp()
{
    L1Cache::LdResp r = icache_.respLd();
    fetchResp_.write(r.id, {true, r.line});
}

bool
OooCore::fetch3Ready() const
{
    // Exactly the implicit guards doFetch3 meets before its first
    // write, except the room for the whole decoded group (n >= 1 is
    // known only after decoding; the body retries on it).
    std::optional<FetchXlated> x = f3q_->peekFirst();
    if (!x)
        return false;
    if (epoch_->isStale(x->req.epoch))
        return x->fault || fetchResp_.read(x->req.seq).valid;
    if (x->fault)
        return instQ_->canEnq(1);
    return fetchResp_.read(x->req.seq).valid && instQ_->canEnq(1);
}

void
OooCore::doFetch3()
{
    FetchXlated x = f3q_->first();
    const FetchReq &fr = x.req;

    if (epoch_->isStale(fr.epoch)) {
        // Wrong path: consume (and the response, if one is due).
        if (!x.fault) {
            require(fetchResp_.read(fr.seq).valid);
            fetchResp_.write(fr.seq, RespSlot{});
        }
        f3q_->deq();
        return;
    }

    if (x.fault) {
        Uop u;
        u.pc = fr.pc;
        u.epoch = epoch_->renameEpoch();
        u.predNext = fr.pc + 4;
        u.preException = true;
        u.preCause = static_cast<uint8_t>(Cause::FetchPageFault);
        u.fetchCycle = fr.fetchCycle;
        u.decodeCycle = k_.cycleCount();
        instQ_->enqGroup(&u, 1);
        f3q_->deq();
        return;
    }

    require(fetchResp_.read(fr.seq).valid);
    Line line = fetchResp_.read(fr.seq).line;

    Uop group[kMaxWidth];
    uint32_t n = 0;
    uint16_t ghr = fetchGhr_.read();
    bool redirect = false;
    uint64_t redirectTo = 0;

    // fetch1 never groups more than kMaxWidth slots; the clamp makes
    // the bound on group[] visible to the compiler.
    const uint32_t slots = std::min<uint32_t>(fr.n, kMaxWidth);
    for (uint32_t i = 0; i < slots; i++) {
        uint64_t pc = fr.pc + 4 * i;
        uint32_t raw =
            static_cast<uint32_t>(line.read(lineOffset(pc), 4));
        Uop u;
        u.pc = pc;
        u.epoch = fr.epoch;
        u.ghist = ghr;
        u.fetchCycle = fr.fetchCycle;
        u.decodeCycle = k_.cycleCount();
        u.inst = decode(raw);
        u.inst.raw = raw;
        const Inst &ins = u.inst;

        uint64_t predNext = pc + 4;
        if (ins.isBranch()) {
            bool dir = bp_->predict(pc, ghr);
            ghr = static_cast<uint16_t>((ghr << 1) | (dir ? 1 : 0));
            if (dir)
                predNext = pc + static_cast<uint64_t>(ins.imm);
        } else if (ins.isJal()) {
            predNext = pc + static_cast<uint64_t>(ins.imm);
            if (ins.rd == 1)
                ras_->push(pc + 4);
        } else if (ins.isJalr()) {
            bool isRet = ins.rs1 == 1 && ins.rd == 0;
            uint64_t t = isRet ? ras_->pop() : btb_->predict(pc);
            if (ins.rd == 1)
                ras_->push(pc + 4);
            predNext = t ? t : pc + 4;
        }
        u.predNext = predNext;

        // Keep the BTB warm for taken control flow found here.
        if (predNext != pc + 4 && !ins.isJalr())
            btb_->update(pc, predNext, true);

        uint64_t assumed = (i == fr.n - 1u) ? fr.nextAssumed : pc + 4;
        group[n++] = u;
        if (predNext != assumed) {
            // Front-end re-steer: everything already *fetched* after
            // this instruction is wrong-path (the decoded older uops
            // in the instruction queue are not).
            redirect = true;
            redirectTo = predNext;
            break;
        }
    }

    // Room for one uop is in the guard; room for all n is not.
    if (!instQ_->canEnq(n)) {
        cmd::retry();
        return;
    }
    fetchGhr_.write(ghr);
    for (uint32_t i = 0; i < n; i++)
        group[i].epoch = epoch_->renameEpoch();
    if (redirect) {
        epoch_->resteer(redirectTo);
        fetchRedirects_->inc();
    }
    instQ_->enqGroup(group, n);
    fetchResp_.write(fr.seq, RespSlot{});
    f3q_->deq();
}

// ---------------------------------------------------------------- rename

void
OooCore::doRename()
{
    uint32_t qn = instQ_->size();
    uint32_t consumed = 0;
    uint32_t m = 0;
    // Trace seq ids are pre-assigned from the tracer's next-id so the
    // Uop copies entering the issue queues below carry them; the
    // actual create() calls happen at the end of the body (see the
    // hook-placement comment at the top of this file) and hand back
    // exactly these ids.
    const uint64_t seqBase = tracer_ ? tracer_->created() : 0;
    uint32_t traceN = 0;

    RobEntry entries[kMaxWidth];
    struct Placed {
        Uop u;
        int iq;     // 0..aluPipes-1 ALU, -1 md, -2 mem
        bool rdy1, rdy2;
    } placed[kMaxWidth];

    // Local working copies of the rename state.
    PhysReg locMap[32];
    for (uint32_t i = 0; i < 32; i++)
        locMap[i] = rt_->spec(static_cast<uint8_t>(i));
    bool newly[256] = {};
    bool touched[32] = {};
    uint32_t allocCount = 0;
    SpecMask curMask = specMgr_->activeMask();
    bool branchUsed = false, lqUsed = false, sqUsed = false,
         mdUsed = false, memUsed = false;
    uint32_t aluUsed = 0;
    int snapshotTag = -1;
    uint32_t snapshotAllocs = 0;
    PhysReg snapshotMap[32];

    while (m < cfg_.width && consumed < qn) {
        const Uop &raw = instQ_->peek(consumed);
        if (epoch_->isStaleRename(raw.epoch)) {
            consumed++;
            continue;
        }
        Uop u = raw;
        const Inst &ins = u.inst;
        bool serial = ins.isSystem() || ins.op == Op::ILLEGAL ||
                      u.preException;

        if (serial) {
            if (m > 0)
                break;
            if (!(rob_->empty() && lsq_->lqEmpty() && lsq_->sqEmpty() &&
                  storeBuf_->empty() && !mdBusy_.read().valid))
                break;
            RobEntry e;
            e.pc = u.pc;
            e.inst = ins;
            e.specMask = 0;
            if (u.preException) {
                e.done = true;
                e.exception = true;
                e.cause = u.preCause;
                e.tval = u.pc;
            } else if (ins.op == Op::ILLEGAL) {
                e.done = true;
                e.exception = true;
                e.cause = static_cast<uint8_t>(Cause::IllegalInst);
                e.tval = ins.raw;
            } else if (ins.op == Op::ECALL) {
                e.done = true;
                e.exception = true;
                e.cause = static_cast<uint8_t>(Cause::EcallM);
            } else if (ins.op == Op::EBREAK) {
                e.done = true;
                e.exception = true;
                e.cause = static_cast<uint8_t>(Cause::Breakpoint);
            } else {
                // CSR / MRET / FENCE / FENCE.I / WFI: acted on at
                // commit; structurally complete now.
                e.done = true;
                if (ins.writesRd()) {
                    if (!fl_->canAlloc(1))
                        break;
                    e.hasPd = true;
                    e.pd = fl_->peekFree(allocCount);
                    e.stalePd = locMap[ins.rd];
                    locMap[ins.rd] = e.pd;
                    newly[e.pd] = true;
                    touched[ins.rd] = true;
                    allocCount++;
                }
            }
            e.fetchCycle = u.fetchCycle;
            u.rob = rob_->enqIndex(0);
            if (tracer_)
                u.seq = seqBase + ++traceN;
            entries[0] = e;
            placed[0] = {u, 0, false, false};
            serialPending_.write(true);
            m = 1;
            consumed++;
            break;
        }

        // ---- structural checks
        if (!rob_->canEnq(m + 1))
            break;
        bool needsPd = ins.writesRd();
        if (needsPd && !fl_->canAlloc(allocCount + 1))
            break;
        int iq;
        if (ins.isMem()) {
            if (memUsed || !memIq_->canEnter())
                break;
            if (ins.isLq() && (lqUsed || !lsq_->canEnqLd()))
                break;
            if (ins.isSq() && (sqUsed || !lsq_->canEnqSt()))
                break;
            iq = -2;
        } else if (ins.isMulDiv()) {
            if (mdUsed || !mdIq_->canEnter())
                break;
            iq = -1;
        } else {
            if (aluUsed >= cfg_.aluPipes)
                break;
            iq = static_cast<int>((aluRR_.read() + aluUsed) %
                                  cfg_.aluPipes);
            if (!aluIq_[iq]->canEnter())
                break;
        }
        bool needsTag = ins.isBranch() || ins.isJalr();
        if (needsTag && (branchUsed || !specMgr_->canAlloc()))
            break;

        // ---- perform the slot's renaming
        u.ps1 = locMap[ins.rs1];
        u.ps2 = locMap[ins.rs2];
        bool rdy1 = !ins.readsRs1() ||
                    (!newly[u.ps1] && sb_->rdy(u.ps1));
        bool rdy2 = !ins.readsRs2() ||
                    (!newly[u.ps2] && sb_->rdy(u.ps2));
        u.hasPd = needsPd;
        PhysReg stale = 0;
        if (needsPd) {
            u.pd = fl_->peekFree(allocCount);
            stale = locMap[ins.rd];
            u.stalePd = stale;
            locMap[ins.rd] = u.pd;
            newly[u.pd] = true;
            touched[ins.rd] = true;
            allocCount++;
        }
        u.specMask = curMask;
        if (needsTag) {
            uint8_t tag = specMgr_->alloc();
            u.specTag = tag;
            u.hasSpecTag = true;
            branchUsed = true;
            curMask |= static_cast<SpecMask>(1u << tag);
            snapshotTag = tag;
            snapshotAllocs = allocCount;
            std::copy(locMap, locMap + 32, snapshotMap);
        }
        u.rob = rob_->enqIndex(m);
        if (ins.isMem()) {
            memUsed = true;
            if (ins.isLq()) {
                lqUsed = true;
                u.lsqIdx = lsq_->enqLd(ins.op, ins.memBytes(), u.rob,
                                       u.pd, u.hasPd, u.specMask);
            } else {
                sqUsed = true;
                u.lsqIdx = lsq_->enqSt(ins.op, ins.memBytes(), u.rob,
                                       u.pd, u.hasPd, u.specMask);
            }
        } else if (iq == -1) {
            mdUsed = true;
        } else {
            aluUsed++;
        }

        RobEntry e;
        e.pc = u.pc;
        e.inst = ins;
        e.pd = u.pd;
        e.stalePd = stale;
        e.hasPd = u.hasPd;
        e.lsqIdx = u.lsqIdx;
        e.specMask = u.specMask;
        e.specTag = u.specTag;
        e.hasSpecTag = u.hasSpecTag;
        e.fetchCycle = u.fetchCycle;
        if (tracer_)
            u.seq = seqBase + ++traceN;
        entries[m] = e;
        placed[m] = {u, iq, rdy1, rdy2};
        m++;
        consumed++;
    }

    if (consumed == 0) {
        // Structurally stalled (ROB/IQ/LSQ full, no tag, ...): commit
        // as a no-op rather than aborting — the C++ exception unwind
        // is far too expensive for a condition that can persist for
        // hundreds of cycles during memory stalls.
        return;
    }

    if (m > 0 && !entries[0].done) {
        // Normal group: write back the rename-engine state.
        PhysReg pds[kMaxWidth];
        if (allocCount)
            fl_->allocGroup(pds, allocCount);
        for (uint32_t a = 0; a < 32; a++) {
            if (touched[a])
                rt_->setSpec(static_cast<uint8_t>(a), locMap[a]);
        }
        for (uint32_t i = 0; i < m; i++) {
            if (entries[i].hasPd) {
                sb_->setNotReady(entries[i].pd);
                prf_->setNotReady(entries[i].pd);
            }
        }
        if (snapshotTag >= 0) {
            rt_->snapshotFrom(static_cast<uint8_t>(snapshotTag),
                              snapshotMap);
            fl_->snapshotAt(static_cast<uint8_t>(snapshotTag),
                            snapshotAllocs);
        }
        rob_->enqGroup(entries, m);
        for (uint32_t i = 0; i < m; i++) {
            const Placed &p = placed[i];
            if (p.iq == -2)
                memIq_->enter(p.u, p.rdy1, p.rdy2);
            else if (p.iq == -1)
                mdIq_->enter(p.u, p.rdy1, p.rdy2);
            else
                aluIq_[p.iq]->enter(p.u, p.rdy1, p.rdy2);
        }
        aluRR_.write((aluRR_.read() + 1) % cfg_.aluPipes);
    } else if (m > 0) {
        // Serialized instruction (entries[0].done set above).
        PhysReg pds[kMaxWidth];
        if (allocCount)
            fl_->allocGroup(pds, allocCount);
        for (uint32_t a = 0; a < 32; a++) {
            if (touched[a])
                rt_->setSpec(static_cast<uint8_t>(a), locMap[a]);
        }
        if (entries[0].hasPd) {
            sb_->setNotReady(entries[0].pd);
            prf_->setNotReady(entries[0].pd);
        }
        rob_->enqGroup(entries, 1);
    }
    instQ_->deqN(consumed);

    if (tracer_ && m > 0) {
        const uint64_t now = k_.cycleCount();
        for (uint32_t i = 0; i < m; i++) {
            const Uop &u = placed[i].u;
            // Returns the pre-assigned u.seq, or 0 once the trace cap
            // is hit (then every later call on this id is a no-op).
            uint64_t s = tracer_->create(u.pc, opName(u.inst.op),
                                         u.fetchCycle, u.decodeCycle);
            tracer_->stage(s, obs::Stage::Rename, now);
            tracer_->setSpecMask(s, u.specMask);
            robSeq_[u.rob] = s;
            if (u.inst.isLq())
                tracer_->mapLq(u.lsqIdx, s);
            else if (u.inst.isSq())
                tracer_->mapSq(u.lsqIdx, s);
        }
    }
}

// --------------------------------------------------------- ALU pipelines

bool
OooCore::readOperands(Uop &u)
{
    const Inst &ins = u.inst;
    u.a = 0;
    u.b = 0;
    if (ins.readsRs1()) {
        if (!bypass_->get(u.ps1, u.a)) {
            if (!prf_->present(u.ps1))
                return false;
            u.a = prf_->read(u.ps1);
        }
    }
    if (ins.readsRs2()) {
        if (!bypass_->get(u.ps2, u.b)) {
            if (!prf_->present(u.ps2))
                return false;
            u.b = prf_->read(u.ps2);
        }
    }
    return true;
}

void
OooCore::doIssue(uint32_t p)
{
    Uop u = aluIq_[p]->issue();
    aluRrq_[p]->enq(u);
    OBS_STAGE(u.seq, Issue);
}

void
OooCore::doRegRead(uint32_t p)
{
    Uop u = aluRrq_[p]->first();
    require(readOperands(u));
    aluExq_[p]->enq(u);
    aluRrq_[p]->deq();
    OBS_STAGE(u.seq, RegRead);
}

void
OooCore::applyWrongSpec(SpecMask dead)
{
    rob_->wrongSpec(dead);
    lsq_->wrongSpec(dead);
    for (auto &iq : aluIq_)
        iq->wrongSpec(dead);
    mdIq_->wrongSpec(dead);
    memIq_->wrongSpec(dead);
    for (auto &q : aluRrq_)
        q->wrongSpec(dead);
    for (auto &q : aluExq_)
        q->wrongSpec(dead);
    for (auto &q : aluWbq_)
        q->wrongSpec(dead);
    mdRrq_->wrongSpec(dead);
    memRrq_->wrongSpec(dead);
    memAmq_->wrongSpec(dead);
    killRaw(dead);
}

void
OooCore::applyCorrectSpec(SpecMask bit)
{
    rob_->correctSpec(bit);
    lsq_->correctSpec(bit);
    for (auto &iq : aluIq_)
        iq->correctSpec(bit);
    mdIq_->correctSpec(bit);
    memIq_->correctSpec(bit);
    for (auto &q : aluRrq_)
        q->correctSpec(bit);
    for (auto &q : aluExq_)
        q->correctSpec(bit);
    for (auto &q : aluWbq_)
        q->correctSpec(bit);
    mdRrq_->correctSpec(bit);
    memRrq_->correctSpec(bit);
    memAmq_->correctSpec(bit);
    // Raw holders: clear the bit from their masks.
    MdBusy b = mdBusy_.read();
    if (b.valid && (b.uop.specMask & bit)) {
        b.uop.specMask &= ~bit;
        mdBusy_.write(b);
    }
    for (uint32_t i = 0; i < inflight_.size(); i++) {
        InflightMem im = inflight_.read(i);
        if (im.valid && (im.uop.specMask & bit)) {
            im.uop.specMask &= ~bit;
            inflight_.write(i, im);
        }
    }
}

void
OooCore::killRaw(SpecMask dead)
{
    MdBusy b = mdBusy_.read();
    if (b.valid && (b.uop.specMask & dead))
        mdBusy_.write(MdBusy{});
    for (uint32_t i = 0; i < inflight_.size(); i++) {
        const InflightMem &im = inflight_.read(i);
        if (im.valid && (im.uop.specMask & dead))
            inflight_.write(i, InflightMem{});
    }
}

void
OooCore::doExec(uint32_t p)
{
    Uop u = aluExq_[p]->first();
    const Inst &ins = u.inst;
    uint64_t res = 0;
    uint64_t actualNext = u.pc + 4;
    bool taken = false;
    SpecMask deadForObs = 0; // squashed mask, recorded at body end

    if (ins.isBranch()) {
        taken = branchTaken(ins, u.a, u.b);
        if (taken)
            actualNext = u.pc + static_cast<uint64_t>(ins.imm);
        branches_->inc();
    } else if (ins.isJal() || ins.isJalr()) {
        actualNext = controlTarget(ins, u.pc, u.a);
        res = u.pc + 4;
        taken = true;
    } else {
        res = aluCompute(ins, u.a, u.b, u.pc);
    }

    if (ins.isControlFlow()) {
        bool mispredict = actualNext != u.predNext;
        if (ins.isBranch())
            bp_->update(u.pc, u.ghist, taken);
        if (taken || mispredict)
            btb_->update(u.pc, actualNext, taken);
        if (u.hasSpecTag) {
            SpecMask bit = static_cast<SpecMask>(1u << u.specTag);
            if (mispredict) {
                SpecMask dead = specMgr_->squash(u.specTag);
                applyWrongSpec(dead);
                rt_->rollback(u.specTag);
                fl_->rollback(u.specTag);
                epoch_->redirect(actualNext);
                fetchGhr_.write(static_cast<uint16_t>(
                    (u.ghist << 1) | (taken ? 1 : 0)));
                mispredicts_->inc();
                deadForObs = dead;
            } else {
                specMgr_->commit(u.specTag);
                applyCorrectSpec(bit);
                // The branch's own mask bit is already absent (it does
                // not depend on itself).
            }
        } else if (mispredict) {
            panic("%s: untagged control flow mispredicted at %#llx",
                  name_.c_str(), (unsigned long long)u.pc);
        }
    }

    if (u.hasPd) {
        bypass_->set(p * 2, u.pd, res);
        sb_->setReady(u.pd);
        for (auto &iq : aluIq_)
            iq->wakeup(u.pd);
        mdIq_->wakeup(u.pd);
        memIq_->wakeup(u.pd);
    }
    u.a = res;
    aluWbq_[p]->enq(u);
    aluExq_[p]->deq();
    OBS_STAGE(u.seq, Execute);
    if (deadForObs) {
        mispredRecover_ = true;
        if (tracer_)
            tracer_->squashMask(deadForObs, k_.cycleCount());
    }
}

void
OooCore::doRegWrite(uint32_t p)
{
    Uop u = aluWbq_[p]->first();
    if (u.hasPd) {
        prf_->write(u.pd, u.a);
        bypass_->set(p * 2 + 1, u.pd, u.a);
    }
    rob_->markDone(u.rob);
    aluWbq_[p]->deq();
    OBS_STAGE(u.seq, Writeback);
}

// ------------------------------------------------------------ MULDIV pipe

void
OooCore::doIssueMd()
{
    Uop u = mdIq_->issue();
    mdRrq_->enq(u);
    OBS_STAGE(u.seq, Issue);
}

void
OooCore::doRegReadMd()
{
    require(!mdBusy_.read().valid);
    Uop u = mdRrq_->first();
    require(readOperands(u));
    MdBusy b;
    b.valid = true;
    b.uop = u;
    b.result = aluCompute(u.inst, u.a, u.b, u.pc);
    b.doneCycle = k_.cycleCount() +
                  (u.inst.isDiv() ? cfg_.divLatency : cfg_.mulLatency);
    mdBusy_.write(b);
    mdRrq_->deq();
    // RegRead + the multi-cycle Execute start in the same body; Execute
    // renders as the busy window once doMdWb posts Writeback.
    OBS_STAGE(u.seq, RegRead);
    OBS_STAGE(u.seq, Execute);
}

void
OooCore::doMdWb()
{
    MdBusy b = mdBusy_.read();
    require(b.valid && k_.cycleCount() >= b.doneCycle);
    if (b.uop.hasPd) {
        prf_->write(b.uop.pd, b.result);
        sb_->setReady(b.uop.pd);
        for (auto &iq : aluIq_)
            iq->wakeup(b.uop.pd);
        mdIq_->wakeup(b.uop.pd);
        memIq_->wakeup(b.uop.pd);
    }
    rob_->markDone(b.uop.rob);
    mdBusy_.write(MdBusy{});
    OBS_STAGE(b.uop.seq, Writeback);
}

// -------------------------------------------------------------- MEM pipe

void
OooCore::doIssueMem()
{
    Uop u = memIq_->issue();
    memRrq_->enq(u);
    OBS_STAGE(u.seq, Issue);
}

void
OooCore::doRegReadMem()
{
    Uop u = memRrq_->first();
    require(readOperands(u));
    memAmq_->enq(u);
    memRrq_->deq();
    OBS_STAGE(u.seq, RegRead);
}

void
OooCore::doAddrCalc()
{
    Uop u = memAmq_->first();
    const Inst &ins = u.inst;
    bool isLq = ins.isLq();
    uint64_t va = ins.isAtomic()
                      ? u.a
                      : u.a + static_cast<uint64_t>(ins.imm);

    if (va & (ins.memBytes() - 1)) {
        uint8_t cause = static_cast<uint8_t>(
            isLq ? Cause::LoadMisaligned : Cause::StoreMisaligned);
        if (isLq)
            lsq_->updateLd(u.lsqIdx, va, 0, true, cause, false);
        else
            lsq_->updateSt(u.lsqIdx, va, 0, true, cause, false, u.b);
        rob_->setAfterTranslation(u.rob, false, true, cause, va, false);
        memAmq_->deq();
        OBS_STAGE(u.seq, Mem);
        return;
    }

    // The translate path waits for room in the TLB request queue; the
    // misaligned path above needs no TLB.
    if (!dtlb_->canReq()) {
        cmd::retry();
        return;
    }
    uint8_t id = memId(isLq, u.lsqIdx);
    if (inflight_.read(id).valid)
        panic("%s: inflight-mem slot %u busy", name_.c_str(), id);
    AccessType t = (ins.isStore() || ins.isSc() || ins.isAmoRmw())
                       ? AccessType::Store
                       : AccessType::Load;
    dtlb_->req(id, va, t);
    inflight_.write(id, {true, u, va});
    memAmq_->deq();
    OBS_STAGE(u.seq, Mem);
}

void
OooCore::doUpdateLsq()
{
    L1Tlb::Resp r = dtlb_->resp();
    const InflightMem &imRef = inflight_.read(r.id);
    if (!imRef.valid)
        return; // wrong path: response dropped
    InflightMem im = imRef;
    inflight_.write(r.id, InflightMem{});
    const Inst &ins = im.uop.inst;
    bool isLq = ins.isLq();
    bool mmio = !r.fault && isMmioAddr(r.pa);
    uint8_t cause = static_cast<uint8_t>(
        isLq ? Cause::LoadPageFault : Cause::StorePageFault);

    if (isLq)
        lsq_->updateLd(im.uop.lsqIdx, im.va, r.pa, r.fault, cause, mmio);
    else
        lsq_->updateSt(im.uop.lsqIdx, im.va, r.pa, r.fault, cause, mmio,
                       im.uop.b);
    bool plainStoreDone =
        ins.isStore() && !mmio && !r.fault; // SC/AMO wait for commit
    rob_->setAfterTranslation(im.uop.rob, mmio, r.fault, cause, im.va,
                              plainStoreDone);
}

// ------------------------------------------------------- load-store unit

void
OooCore::completeLoad(uint8_t lqIdx, uint64_t value)
{
    const Lsq::LqEntry &e = lsq_->lqEntry(lqIdx);
    bool hasPd = e.valid && e.hasPd;
    PhysReg pd = e.pd;
    bool wrongPath = lsq_->respLd(lqIdx, value);
    if (wrongPath || !hasPd)
        return;
    prf_->write(pd, value);
    sb_->setReady(pd);
    for (auto &iq : aluIq_)
        iq->wakeup(pd);
    mdIq_->wakeup(pd);
    memIq_->wakeup(pd);
    if (tracer_)
        tracer_->stage(tracer_->lqSeq(lqIdx), obs::Stage::Writeback,
                       k_.cycleCount());
}

void
OooCore::doIssueLd()
{
    int idx = lsq_->getIssueLd();
    require(idx >= 0);
    const Lsq::LqEntry &e = lsq_->lqEntry(idx);
    Addr pa = e.pa;
    SpecMask mask = e.specMask;
    uint8_t bytes = e.bytes;
    StoreBuffer::SearchResult sbRes;
    if (!cfg_.tso)
        sbRes = storeBuf_->search(pa, bytes);
    uint64_t fwd = 0;
    Lsq::IssueResult res =
        lsq_->issueLd(static_cast<uint8_t>(idx), sbRes, !cfg_.tso, fwd);
    switch (res) {
      case Lsq::IssueResult::Forward:
        forwardQ_->enq({static_cast<uint8_t>(idx), fwd, mask});
        break;
      case Lsq::IssueResult::ToCache:
        dcache_.reqLd(static_cast<uint8_t>(idx), pa);
        break;
      case Lsq::IssueResult::Stall:
        break;
    }
}

void
OooCore::doRespLdCache()
{
    L1Cache::LdResp r = dcache_.respLd();
    const Lsq::LqEntry &e = lsq_->lqEntry(r.id);
    uint64_t value = 0;
    if (e.valid && e.state == Lsq::LdState::Issued) {
        value = loadExtend(e.op,
                           r.line.read(lineOffset(e.pa), e.bytes));
    }
    completeLoad(r.id, value);
}

void
OooCore::doRespLdFwd()
{
    Forwarded f = forwardQ_->deq();
    completeLoad(f.lqIdx, f.value);
}

void
OooCore::doDeqLd()
{
    Lsq::LqEntry e = lsq_->deqLd();
    rob_->setAtLSQDeq(e.rob, e.killed, e.fault, e.cause, e.va);
}

void
OooCore::doIssueStTso()
{
    require(lsq_->canIssueSt() );
    uint8_t idx = lsq_->sqHeadIdx();
    const Lsq::SqEntry &e = lsq_->sqEntry(idx);
    dcache_.reqSt(idx, e.pa);
    lsq_->markStIssued(idx);
}

void
OooCore::doRespStTso()
{
    uint8_t idx = dcache_.respSt();
    const Lsq::SqEntry &e = lsq_->sqEntry(idx);
    dcache_.writeData(e.pa, e.data, e.bytes);
    lsq_->deqSt();
}

void
OooCore::doDeqStToSb()
{
    require(lsq_->canDeqStToSb(*storeBuf_));
    Lsq::SqEntry e = lsq_->deqSt();
    storeBuf_->enq(e.pa, e.data, e.bytes);
}

void
OooCore::doSbIssue()
{
    Addr line = 0;
    uint8_t idx = storeBuf_->issue(line);
    dcache_.reqSt(idx, line);
}

void
OooCore::doRespStWmm()
{
    uint8_t idx = dcache_.respSt();
    StoreBuffer::DeqResult d = storeBuf_->deq(idx);
    dcache_.writeLineData(d.line, d.data, d.byteMask);
    lsq_->wakeupBySBDeq(idx);
}

void
OooCore::doStPrefetch()
{
    int idx = lsq_->getStPrefetch();
    require(idx >= 0);
    const Lsq::SqEntry &e = lsq_->sqEntry(idx);
    dcache_.prefetchHint(e.pa, Msi::M);
    lsq_->markStPrefetched(static_cast<uint8_t>(idx));
}

void
OooCore::doIssueAtomic()
{
    PendingAtomic p = pendingAtomic_.read();
    require(p.valid);
    if (p.isLq) {
        const Lsq::LqEntry &e = lsq_->lqEntry(p.idx);
        dcache_.reqAtomic(memId(true, p.idx), e.pa, e.op, 0, e.bytes);
    } else {
        const Lsq::SqEntry &e = lsq_->sqEntry(p.idx);
        dcache_.reqAtomic(memId(false, p.idx), e.pa, e.op, e.data,
                          e.bytes);
    }
    pendingAtomic_.write(PendingAtomic{});
}

void
OooCore::doRespAtomic()
{
    L1Cache::AtomicResp r = dcache_.respAtomic();
    bool isLq = r.id & 0x40;
    committedAmos_->inc();
    if (isLq) {
        Lsq::LqEntry e = lsq_->dropLd();
        if (e.hasPd) {
            prf_->write(e.pd, r.value);
            sb_->setReady(e.pd);
            for (auto &iq : aluIq_)
                iq->wakeup(e.pd);
            mdIq_->wakeup(e.pd);
            memIq_->wakeup(e.pd);
        }
        rob_->markDone(e.rob);
    } else {
        Lsq::SqEntry e = lsq_->deqSt();
        if (e.hasPd) {
            prf_->write(e.pd, r.value);
            sb_->setReady(e.pd);
            for (auto &iq : aluIq_)
                iq->wakeup(e.pd);
            mdIq_->wakeup(e.pd);
            memIq_->wakeup(e.pd);
        }
        rob_->markDone(e.rob);
    }
}

// ---------------------------------------------------------------- commit

void
OooCore::emitCommit(const RobEntry &e, bool trapped, uint64_t cause,
                    bool haveVal, uint64_t val)
{
    if (!onCommit)
        return;
    CommitRecord r;
    r.pc = e.pc;
    r.raw = e.inst.raw;
    r.trapped = trapped;
    r.cause = cause;
    if (!trapped && e.hasPd) {
        r.hasRd = true;
        r.rd = e.inst.rd;
        // Values produced *by the commit rule itself* (CSR reads,
        // MMIO loads) are staged, not yet visible through peek; the
        // caller passes them explicitly.
        r.rdVal = haveVal ? val : prf_->peek(e.pd);
        r.volatileRd = e.inst.isCsr() && CsrState::isVolatile(e.inst.csr);
    }
    onCommit(r);
}

bool
OooCore::commitReady() const
{
    // doCommit's implicit guards, in the order its body meets them: a
    // done head always commits; an undone head commits only as a
    // commit-time atomic launch or an MMIO access whose ordering
    // conditions hold. An atomic to MMIO space passes, so the body
    // raises its panic.
    if (flushReq_.read().valid || !rob_->frontValid())
        return false;
    const RobEntry &e = rob_->front();
    if (e.done)
        return true;
    const Inst &i = e.inst;
    if (i.isAtomic() && !e.atCommitSent && !pendingAtomic_.read().valid) {
        if (i.isLq()) {
            const Lsq::LqEntry &le = lsq_->lqEntry(e.lsqIdx);
            return le.valid &&
                   (le.mmio ||
                    (le.addrValid &&
                     (lsq_->sqEmpty() ||
                      lsq_->firstSt().memSeq > le.memSeq) &&
                     storeBuf_->empty()));
        }
        const Lsq::SqEntry &se = lsq_->sqEntry(e.lsqIdx);
        return se.valid &&
               (se.mmio || (se.addrValid && se.dataValid &&
                            lsq_->sqHeadIdx() == e.lsqIdx &&
                            storeBuf_->empty()));
    }
    if (e.isMmio && i.isMem()) {
        if (i.isLq())
            return lsq_->lqHeadIdx() == e.lsqIdx &&
                   (lsq_->sqEmpty() || lsq_->firstSt().memSeq >
                                           lsq_->lqEntry(e.lsqIdx).memSeq) &&
                   storeBuf_->empty();
        return lsq_->sqHeadIdx() == e.lsqIdx &&
               lsq_->sqEntry(e.lsqIdx).dataValid && storeBuf_->empty();
    }
    return false;
}

void
OooCore::doCommit()
{
    require(!flushReq_.read().valid);
    require(rob_->frontValid());
    // Head index before any deqGroup moves it (retire hooks below).
    const RobIdx head0 = rob_->frontIdx();
    RobEntry e0 = rob_->front();
    const Inst &i0 = e0.inst;

    if (!e0.done) {
        // Launch a commit-time atomic once the address is known.
        if (i0.isAtomic() && !e0.atCommitSent &&
            !pendingAtomic_.read().valid) {
            if (i0.isLq()) {
                const Lsq::LqEntry &le = lsq_->lqEntry(e0.lsqIdx);
                if (le.valid && le.mmio)
                    panic("%s: atomic to MMIO space", name_.c_str());
                require(le.valid && le.addrValid);
                // All *older* stores must have drained (younger ones
                // may legitimately sit in the SQ behind this LR).
                require(lsq_->sqEmpty() ||
                        lsq_->firstSt().memSeq > le.memSeq);
                require(storeBuf_->empty());
                pendingAtomic_.write({true, true, e0.lsqIdx});
            } else {
                const Lsq::SqEntry &se = lsq_->sqEntry(e0.lsqIdx);
                if (se.valid && se.mmio)
                    panic("%s: atomic to MMIO space", name_.c_str());
                require(se.valid && se.addrValid && se.dataValid);
                require(lsq_->sqHeadIdx() == e0.lsqIdx &&
                        storeBuf_->empty());
                pendingAtomic_.write({true, false, e0.lsqIdx});
            }
            rob_->setAtCommitSent(rob_->frontIdx());
            return;
        }
    if (e0.isMmio && i0.isMem()) {
        if (i0.isLq()) {
            require(lsq_->lqHeadIdx() == e0.lsqIdx);
            const Lsq::LqEntry &le = lsq_->lqEntry(e0.lsqIdx);
            require(lsq_->sqEmpty() ||
                    lsq_->firstSt().memSeq > le.memSeq);
            require(storeBuf_->empty());
            uint64_t raw = host_.load(hartId_, le.pa, k_.cycleCount());
            uint64_t val = loadExtend(i0.op, raw);
            lsq_->dropLd();
            if (e0.hasPd) {
                prf_->write(e0.pd, val);
                sb_->setReady(e0.pd);
                for (auto &iq : aluIq_)
                    iq->wakeup(e0.pd);
                mdIq_->wakeup(e0.pd);
                memIq_->wakeup(e0.pd);
                rt_->setCommitted(i0.rd, e0.pd);
                PhysReg stale = e0.stalePd;
                fl_->freeGroup(&stale, 1);
            }
            rob_->deqGroup(1);
            committedLoads_->inc();
            instret_.write(instret_.read() + 1);
            emitCommit(e0, false, 0, true, val);
            fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
            OBS_RETIRE(head0);
        } else {
            require(lsq_->sqHeadIdx() == e0.lsqIdx);
            const Lsq::SqEntry &se = lsq_->sqEntry(e0.lsqIdx);
            require(se.dataValid && storeBuf_->empty());
            Addr pa = se.pa;
            uint64_t data = se.data;
            lsq_->deqSt();
            rob_->deqGroup(1);
            committedStores_->inc();
            instret_.write(instret_.read() + 1);
            // MMIO store is the last (non-abortable) effect.
            host_.store(hartId_, pa, data, k_.cycleCount());
            emitCommit(e0, false, 0);
            fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
            OBS_RETIRE(head0);
        }
        return;
    }

        require(false); // still waiting for completion
    }

    // ---- single-instruction special cases at the head
    if (e0.ldKilled) {
        // Memory-order violation: squash and re-execute from this pc.
        flushReq_.write({true, e0.pc, false});
        ldKillFlushes_->inc();
        flushes_->inc();
        return;
    }
    if (e0.exception) {
        CsrState cs = csr_.read();
        cs.mepc = e0.pc;
        cs.mcause = e0.cause;
        cs.mtval = e0.tval;
        if (cs.mtvec == 0)
            panic("%s: trap cause %u at pc %#llx with no handler",
                  name_.c_str(), e0.cause, (unsigned long long)e0.pc);
        csr_.write(cs);
        serialPending_.write(false);
        flushReq_.write({true, cs.mtvec & ~3ull, false});
        flushes_->inc();
        rob_->deqGroup(1);
        instret_.write(instret_.read() + 1);
        emitCommit(e0, true, e0.cause);
        fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
        OBS_RETIRE(head0);
        return;
    }
    if (i0.op == Op::MRET) {
        flushReq_.write({true, csr_.read().mepc, false});
        flushes_->inc();
        serialPending_.write(false);
        rob_->deqGroup(1);
        instret_.write(instret_.read() + 1);
        emitCommit(e0, false, 0);
        fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
        OBS_RETIRE(head0);
        return;
    }
    if (i0.isCsr()) {
        CsrState cs = csr_.read();
        uint64_t old = 0;
        uint64_t operand =
            (i0.op >= Op::CSRRWI) ? i0.rs1 : prf_->peek(
                /* rs1 still maps through committed state: the CSR was
                   rename-serialized, so spec == committed here */
                rt_->spec(i0.rs1));
        bool readOk = cs.read(i0.csr, k_.cycleCount(), instret_.read(),
                              hartId_, old);
        bool doWrite = (i0.op == Op::CSRRW || i0.op == Op::CSRRWI) ||
                       ((i0.op == Op::CSRRS || i0.op == Op::CSRRSI ||
                         i0.op == Op::CSRRC || i0.op == Op::CSRRCI) &&
                        i0.rs1 != 0);
        uint64_t newVal = old;
        if (i0.op == Op::CSRRW || i0.op == Op::CSRRWI)
            newVal = operand;
        else if (i0.op == Op::CSRRS || i0.op == Op::CSRRSI)
            newVal = old | operand;
        else
            newVal = old & ~operand;
        bool writeOk = true;
        bool satpChanged = false;
        if (doWrite) {
            writeOk = cs.write(i0.csr, newVal);
            satpChanged = i0.csr == kCsrSatp;
        }
        if (!readOk || !writeOk) {
            // Unimplemented CSR: illegal-instruction trap.
            cs = csr_.read();
            cs.mepc = e0.pc;
            cs.mcause = static_cast<uint64_t>(Cause::IllegalInst);
            cs.mtval = i0.raw;
            csr_.write(cs);
            serialPending_.write(false);
            flushReq_.write({true, cs.mtvec & ~3ull, false});
            flushes_->inc();
            rob_->deqGroup(1);
            instret_.write(instret_.read() + 1);
            emitCommit(e0, true, cs.mcause);
            fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
            OBS_RETIRE(head0);
            return;
        }
        csr_.write(cs);
        serialPending_.write(false);
        if (e0.hasPd) {
            prf_->write(e0.pd, old);
            sb_->setReady(e0.pd);
            for (auto &iq : aluIq_)
                iq->wakeup(e0.pd);
            mdIq_->wakeup(e0.pd);
            memIq_->wakeup(e0.pd);
            rt_->setCommitted(i0.rd, e0.pd);
            PhysReg stale = e0.stalePd;
            fl_->freeGroup(&stale, 1);
        }
        rob_->deqGroup(1);
        if (satpChanged) {
            flushReq_.write({true, e0.pc + 4, true});
            flushes_->inc();
        }
        instret_.write(instret_.read() + 1);
        emitCommit(e0, false, 0, true, old);
        fetchToCommit_->sample(k_.cycleCount() - e0.fetchCycle);
        OBS_RETIRE(head0);
        return;
    }
    // ---- normal path: retire up to `width` plain instructions
    RobEntry group[kMaxWidth];
    uint32_t n = 0;
    for (uint32_t s = 0; s < cfg_.width && s < rob_->count(); s++) {
        RobEntry e = s == 0 ? e0
                            : rob_->entry(static_cast<RobIdx>(
                                  (rob_->frontIdx() + s) %
                                  rob_->size()));
        if (!e.valid || !e.done)
            break;
        if (s > 0 &&
            (e.exception || e.ldKilled || e.isMmio ||
             e.inst.isCsr() || e.inst.op == Op::MRET ||
             e.inst.isAtomic()))
            break;
        group[n++] = e;
    }
    require(n > 0);

    PhysReg stale[kMaxWidth];
    uint32_t nStale = 0;
    PhysReg finalMap[32];
    bool mapTouched[32] = {};
    for (uint32_t s = 0; s < n; s++) {
        const RobEntry &e = group[s];
        if (e.inst.isSystem())
            serialPending_.write(false);
        if (e.inst.isSq() && !e.inst.isAtomic()) {
            // Plain store: may access memory from now on. (Atomics
            // already performed their access via the commit-time
            // atomic port and left the SQ.)
            lsq_->setAtCommitSt(e.lsqIdx);
            committedStores_->inc();
        }
        if (e.inst.isLq())
            committedLoads_->inc();
        if (e.hasPd) {
            stale[nStale++] = e.stalePd;
            finalMap[e.inst.rd] = e.pd;
            mapTouched[e.inst.rd] = true;
        }
    }
    for (uint32_t a = 0; a < 32; a++) {
        if (mapTouched[a])
            rt_->setCommitted(static_cast<uint8_t>(a), finalMap[a]);
    }
    if (nStale)
        fl_->freeGroup(stale, nStale);
    rob_->deqGroup(n);
    instret_.write(instret_.read() + n);
    for (uint32_t s = 0; s < n; s++)
        emitCommit(group[s], false, 0);
    const uint64_t now = k_.cycleCount();
    for (uint32_t s = 0; s < n; s++) {
        fetchToCommit_->sample(now - group[s].fetchCycle);
        OBS_RETIRE(static_cast<RobIdx>((head0 + s) % rob_->size()));
    }
}

void
OooCore::doFlush()
{
    FlushReq f = flushReq_.read();
    require(f.valid);
    if (f.satpChanged) {
        uint64_t satp = csr_.read().satp;
        itlb_->flush();
        dtlb_->flush();
        itlb_->setSatp(satp);
        dtlb_->setSatp(satp);
        l2tlb_->setSatp(satp);
    }
    rob_->clearAll();
    lsq_->flushAll();
    for (auto &iq : aluIq_)
        iq->clearAll();
    mdIq_->clearAll();
    memIq_->clearAll();
    for (auto &q : aluRrq_)
        q->clear();
    for (auto &q : aluExq_)
        q->clear();
    for (auto &q : aluWbq_)
        q->clear();
    mdRrq_->clear();
    memRrq_->clear();
    memAmq_->clear();
    mdBusy_.write(MdBusy{});
    for (uint32_t i = 0; i < inflight_.size(); i++) {
        if (inflight_.read(i).valid)
            inflight_.write(i, InflightMem{});
    }
    specMgr_->clear();
    rt_->reset();
    fl_->rebuild(*rt_);
    sb_->setAllReady();
    prf_->setAllReady();
    epoch_->redirect(f.redirectPc);
    serialPending_.write(false);
    flushReq_.write(FlushReq{});
    flushRecover_ = true;
    if (tracer_)
        tracer_->squashAll(k_.cycleCount());
}

// --------------------------------------------------------- observability

void
OooCore::obsCycle()
{
    if (cpiMuted_)
        return; // sampled-mode warmup window: keep measured stats pure
    robOccupancy_->sample(rob_->count());
    if (cpiStack_)
        cpiStack_->attribute(classifyCycle());
}

/*
 * Commit-point cycle attribution (top-down): blame the oldest
 * instruction. Exactly one cause per cycle, so the CPI components sum
 * to the sampled cycles by construction (conservation test).
 */
obs::StallCause
OooCore::classifyCycle()
{
    const uint64_t instret = instret_.read();
    const uint64_t committed = instret - cpiLastInstret_;
    cpiLastInstret_ = instret;
    if (committed > 0) {
        mispredRecover_ = flushRecover_ = false;
        return obs::StallCause::Base;
    }
    if (flushReq_.read().valid)
        return obs::StallCause::Serialization;
    if (rob_->empty()) {
        // Empty backend: either recovering from a redirect or starved
        // by the front end.
        if (mispredRecover_)
            return obs::StallCause::BranchMispredict;
        if (flushRecover_)
            return obs::StallCause::Serialization;
        return obs::StallCause::Frontend;
    }
    // The backend holds work again: recovery windows are over.
    mispredRecover_ = flushRecover_ = false;

    const RobEntry &e = rob_->front();
    if (e.done) {
        // Done but not committed this cycle: commit-point serialized
        // work (atomics waiting for drain, MMIO ordering, CSRs).
        return obs::StallCause::Serialization;
    }
    const Inst &ins = e.inst;
    if (ins.isMem()) {
        if (ins.isAtomic() || e.isMmio)
            return obs::StallCause::DMiss;
        if (ins.isLq()) {
            const Lsq::LqEntry &le = lsq_->lqEntry(e.lsqIdx);
            if (le.valid && le.addrValid) {
                // Address known: blocked on the D-cache if issued,
                // else it's still contending in the LSQ (base).
                if (le.state == Lsq::LdState::Issued) {
                    if (dramBound_ && dramBound_(le.pa))
                        return obs::StallCause::DMissDram;
                    return obs::StallCause::DMiss;
                }
            } else if (inflight_.read(memId(true, e.lsqIdx)).valid) {
                return obs::StallCause::TlbMiss;
            }
        } else if (inflight_.read(memId(false, e.lsqIdx)).valid) {
            return obs::StallCause::TlbMiss;
        }
    }
    // Head is mid-execution: charge rename backpressure if a structure
    // is full, otherwise the cycle is plain latency/dependency (base).
    if (!rob_->canEnq(1))
        return obs::StallCause::RobFull;
    bool iqFull = !mdIq_->canEnter() || !memIq_->canEnter();
    for (auto &iq : aluIq_)
        iqFull = iqFull || !iq->canEnter();
    if (iqFull)
        return obs::StallCause::IqFull;
    if (!lsq_->canEnqLd() || !lsq_->canEnqSt())
        return obs::StallCause::LsqFull;
    return obs::StallCause::Base;
}

} // namespace riscy
