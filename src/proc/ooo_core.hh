/**
 * @file
 * The RiscyOO-style out-of-order core (paper Fig. 9): front-end with
 * BTB + tournament predictor + RAS, rename with speculation tags and
 * checkpoints, per-pipeline issue queues, ALU/MEM/MULDIV pipelines,
 * the load-store unit (LSQ + store buffer + non-blocking L1 D), and
 * a 2-way commit stage that defers exceptions, load-order kills,
 * MMIO, atomics and CSRs to the commit point, exactly as the paper
 * describes.
 *
 * The core is an assembly of CMD modules composed by roughly two
 * dozen top-level rules; see ooo_core.cc for the rule bodies and the
 * conflict-matrix reasoning.
 */
#pragma once

#include <functional>
#include <memory>

#include <array>

#include "cache/hierarchy.hh"
#include "frontend/predictors.hh"
#include "isa/csr.hh"
#include "isa/golden.hh"
#include "lsq/lsq.hh"
#include "obs/cpi.hh"
#include "obs/pipeline.hh"
#include "ooo/engine.hh"
#include "ooo/group_fifo.hh"
#include "ooo/iq.hh"
#include "ooo/rob.hh"
#include "ooo/spec_fifo.hh"
#include "proc/config.hh"
#include "tlb/tlb.hh"

namespace riscy {

/** One architecturally retired instruction (or trap), for co-sim. */
struct CommitRecord {
    uint64_t pc = 0;
    uint32_t raw = 0;
    bool hasRd = false;
    uint8_t rd = 0;
    uint64_t rdVal = 0;
    bool volatileRd = false; ///< timing-dependent (cycle CSR)
    bool trapped = false;
    uint64_t cause = 0;
};

class OooCore
{
  public:
    OooCore(cmd::Kernel &k, const std::string &name, uint32_t hartId,
            const CoreConfig &cfg, L1Cache &icache, L1Cache &dcache,
            UncachedPort &walkPort, HostDevice &host);

    /** Initialize architectural state (call after Kernel::elaborate). */
    void reset(Addr pc, uint64_t satp, Addr sp);

    // ---- fast-forward handoff (System::runSampled,
    //      System::handoffToDetailed)
    /**
     * Detailed -> fast-forward: stall fetch and raise a commit-point
     * flush, squashing every in-flight instruction back to the
     * committed state with the same machinery a trap uses — caches,
     * TLBs and predictors stay warm. Call between cycles, then run the
     * kernel until drained().
     */
    void beginDrain();
    /** Fully drained after beginDrain(): pipeline empty, no memory or
     *  translation request in flight (between cycles only). */
    bool drained() const;
    /**
     * Fast-forward -> detailed on an empty pipeline (drained, or reset
     * with no cycle run since): materialize a full architectural state
     * (identity rename, all 32 registers, CSRs, instret, pc) and
     * resume fetch. Caches, TLBs and predictors keep their contents;
     * the TLBs are flushed only when satp changes. Call between cycles.
     */
    void resumeArch(const isa::ArchState &as);
    /**
     * Functional TLB warming (sampled handoff, drained core, between
     * cycles): replay the fast-forward leg's leaf translations into
     * the L1 I/D TLBs and the shared L2 TLB, as if each walk had
     * completed during the skipped region.
     */
    void warmTlbs(const std::vector<isa::GoldenModel::XlateRec> &recs);
    /**
     * Functional predictor warming: replay the fast-forward leg's
     * control transfers through the same BTB / tournament-predictor /
     * RAS update discipline the execute stage uses, rolling the global
     * history forward exactly as fetch would have.
     */
    void
    warmPredictors(const std::vector<isa::GoldenModel::BranchRec> &recs);

    uint64_t instret() const { return instret_.read(); }
    bool halted() const { return host_.exited(hartId_); }
    cmd::StatGroup &stats() { return meta_->stats(); }
    cmd::StatGroup &dtlbStats() { return dtlb_->stats(); }
    cmd::StatGroup &l2tlbStats() { return l2tlb_->stats(); }
    cmd::StatGroup &lsqStats() { return lsq_->stats(); }
    const CoreConfig &config() const { return cfg_; }

    /** Invoked (in program order) for every retired instruction. */
    std::function<void(const CommitRecord &)> onCommit;

    /** Human-readable stall diagnosis (watchdog reports). */
    std::string debugString() const;

    // ---- observability wiring (System::elaborate / obs::ObsHub)
    /** Per-uop pipeline tracer for this hart (null = untraced). */
    void setTracer(obs::PipelineTracer *t) { tracer_ = t; }
    /** CPI-stack accumulator for this hart (null = off). */
    void setCpiStack(obs::CpiStack *c) { cpiStack_ = c; }
    /** D-miss refinement probe: given the blocked load's physical
     *  address, is the line DRAM-bound right now? (null = no split,
     *  every cache-blocked cycle stays in plain DMiss). */
    void
    setDramBoundProbe(std::function<bool(Addr)> p)
    {
        dramBound_ = std::move(p);
    }
    /**
     * Suppress per-cycle CPI/occupancy sampling (sampled-mode warmup
     * windows): with muting toggled around each measured interval the
     * CPI stack conserves exactly the measured cycles.
     */
    void
    setCpiMuted(bool m)
    {
        cpiMuted_ = m;
        cpiLastInstret_ = instret_.read(); // commit-delta baseline
    }
    /**
     * Per-cycle observability sampling: ROB-occupancy histogram and
     * (when a CPI stack is attached) commit-point cycle attribution.
     * Called by the ObsHub post-cycle hook between kernel cycles,
     * never under a rule context.
     */
    void obsCycle();

  private:
    static constexpr uint32_t kMaxWidth = 4;

    struct FetchReq {
        uint64_t pc = 0;
        uint64_t nextAssumed = 0;
        uint8_t n = 0;
        uint8_t epoch = 0;
        uint8_t seq = 0;
        uint64_t fetchCycle = 0; ///< cycle doFetch1 issued this request
    };

    struct FetchXlated {
        FetchReq req;
        Addr pa = 0;
        bool fault = false;
    };

    struct RespSlot {
        bool valid = false;
        Line line;
    };

    struct MdBusy {
        bool valid = false;
        Uop uop;
        uint64_t result = 0;
        uint64_t doneCycle = 0;
    };

    struct InflightMem {
        bool valid = false;
        Uop uop;
        uint64_t va = 0;
    };

    struct Forwarded {
        uint8_t lqIdx = 0;
        uint64_t value = 0;
        SpecMask specMask = 0; ///< for SpecFifo (kill by mask)
    };

    struct PendingAtomic {
        bool valid = false;
        bool isLq = false;
        uint8_t idx = 0;
    };

    struct FlushReq {
        bool valid = false;
        uint64_t redirectPc = 0;
        bool satpChanged = false;
    };

    /** A tiny module that only exists to hold the core's stats. */
    class Meta : public cmd::Module
    {
      public:
        Meta(cmd::Kernel &k, const std::string &n) : Module(k, n) {}
    };

    // ---- rule bodies
    void doFetch1();
    void doFetch2();
    void doIcacheResp();
    void doFetch3();
    /** doCommit's when(): the ROB head can commit this attempt. */
    bool commitReady() const;
    /** doFetch3's when(): f3q head ready and room for one uop. */
    bool fetch3Ready() const;
    void doRename();
    void doIssue(uint32_t pipe);
    void doRegRead(uint32_t pipe);
    void doExec(uint32_t pipe);
    void doRegWrite(uint32_t pipe);
    void doIssueMd();
    void doRegReadMd();
    void doMdWb();
    void doIssueMem();
    void doRegReadMem();
    void doAddrCalc();
    void doUpdateLsq();
    void doIssueLd();
    void doRespLdCache();
    void doRespLdFwd();
    void doDeqLd();
    void doIssueStTso();
    void doRespStTso();
    void doDeqStToSb();
    void doSbIssue();
    void doRespStWmm();
    void doStPrefetch();
    void doIssueAtomic();
    void doRespAtomic();
    void doCommit();
    void doFlush();

    // ---- helpers
    bool readOperands(Uop &u);
    void completeLoad(uint8_t lqIdx, uint64_t value);
    void applyWrongSpec(SpecMask dead);
    void applyCorrectSpec(SpecMask bit);
    void killRaw(SpecMask dead);
    void emitCommit(const RobEntry &e, bool trapped, uint64_t cause,
                    bool haveVal = false, uint64_t val = 0);
    std::vector<const cmd::Method *> specMethods() const;
    std::vector<const cmd::Method *> wakeupMethods() const;
    /** Top-down commit-point attribution of one non-committing cycle;
     *  exhaustive and exclusive (see obs/cpi.hh). */
    obs::StallCause classifyCycle();

    cmd::Kernel &k_;
    std::string name_;
    uint32_t hartId_;
    CoreConfig cfg_;
    L1Cache &icache_, &dcache_;
    HostDevice &host_;

    std::unique_ptr<Meta> meta_;

    // Front end
    std::unique_ptr<EpochManager> epoch_;
    std::unique_ptr<Btb> btb_;
    std::unique_ptr<TournamentBp> bp_;
    std::unique_ptr<Ras> ras_;
    cmd::Reg<uint16_t> fetchGhr_;
    cmd::Reg<uint8_t> fetchSeq_;
    std::unique_ptr<cmd::CfFifo<FetchReq>> f2q_;
    std::unique_ptr<cmd::CfFifo<FetchXlated>> f3q_;
    cmd::RegArray<RespSlot> fetchResp_;
    std::unique_ptr<GroupFifo<Uop>> instQ_;

    // TLBs
    std::unique_ptr<TlbChannel> itlbChan_, dtlbChan_;
    std::unique_ptr<L1Tlb> itlb_, dtlb_;
    std::unique_ptr<L2Tlb> l2tlb_;

    // Rename engine
    std::unique_ptr<SpecManager> specMgr_;
    std::unique_ptr<RenameTable> rt_;
    std::unique_ptr<FreeList> fl_;
    std::unique_ptr<Scoreboard> sb_;
    std::unique_ptr<Prf> prf_;
    std::unique_ptr<Bypass> bypass_;
    std::unique_ptr<Rob> rob_;
    cmd::Reg<uint32_t> aluRR_;

    // Execution pipelines
    std::vector<std::unique_ptr<IssueQueue>> aluIq_;
    std::vector<std::unique_ptr<SpecFifo<Uop>>> aluRrq_, aluExq_, aluWbq_;
    std::unique_ptr<IssueQueue> mdIq_;
    std::unique_ptr<SpecFifo<Uop>> mdRrq_;
    cmd::Reg<MdBusy> mdBusy_;
    std::unique_ptr<IssueQueue> memIq_;
    std::unique_ptr<SpecFifo<Uop>> memRrq_, memAmq_;
    cmd::RegArray<InflightMem> inflight_; ///< indexed by TLB req id

    // Load-store unit
    std::unique_ptr<Lsq> lsq_;
    std::unique_ptr<StoreBuffer> storeBuf_;
    std::unique_ptr<cmd::CfFifo<Forwarded>> forwardQ_;
    cmd::Reg<PendingAtomic> pendingAtomic_;

    // Commit / architectural state
    cmd::Reg<isa::CsrState> csr_;
    cmd::Reg<uint64_t> instret_;
    cmd::Reg<FlushReq> flushReq_;
    /// a rename-serialized instruction is in flight: rename stalls
    cmd::Reg<bool> serialPending_;
    /// sampled-mode drain: doFetch1 parks until resumeArch()
    cmd::Reg<bool> fetchStall_;

    // stats
    cmd::Stat *branches_, *mispredicts_, *ldKillFlushes_, *flushes_,
        *fetchRedirects_, *committedLoads_, *committedStores_,
        *committedAmos_;
    cmd::Histogram *robOccupancy_ = nullptr;
    cmd::Histogram *fetchToCommit_ = nullptr;

    // ---- observability (not architectural state: none of this is in
    // the kernel snapshot, and none of it feeds back into timing)
    obs::PipelineTracer *tracer_ = nullptr;
    obs::CpiStack *cpiStack_ = nullptr;
    std::function<bool(Addr)> dramBound_;
    /// instret at the last CPI sample (commit-per-cycle delta)
    uint64_t cpiLastInstret_ = 0;
    /// refilling after a mispredict redirect / a commit-point flush
    bool mispredRecover_ = false, flushRecover_ = false;
    /// warmup window of a sampled interval: skip CPI/occupancy samples
    bool cpiMuted_ = false;
    /// ROB index -> pipeline-trace seq (side map; RobIdx is 8 bits)
    std::array<uint64_t, 256> robSeq_{};
};

} // namespace riscy
