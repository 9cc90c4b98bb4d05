/**
 * @file
 * A Rocket-class in-order scalar core, used as the Fig. 17 comparison
 * baseline. Built from the same CMD modules (TLBs, caches, BTB) as the
 * OOO core: a pipelined front end steered by a BTB, an execute stage
 * that retires one ALU/branch instruction per cycle, and a one-
 * outstanding-access memory unit with stall-on-use busy bits (loads
 * overlap independent ALU work, as in Rocket).
 *
 * Simplifications relative to Rocket (documented in DESIGN.md): no
 * compressed instructions, BTB-only branch prediction, and a single
 * outstanding data-memory access.
 */
#pragma once

#include <functional>
#include <memory>

#include "cache/hierarchy.hh"
#include "frontend/predictors.hh"
#include "isa/csr.hh"
#include "ooo/group_fifo.hh"
#include "ooo/uop.hh"
#include "proc/config.hh"
#include "proc/ooo_core.hh" // CommitRecord
#include "tlb/tlb.hh"

namespace riscy {

class InOrderCore
{
  public:
    InOrderCore(cmd::Kernel &k, const std::string &name, uint32_t hartId,
                const CoreConfig &cfg, L1Cache &icache, L1Cache &dcache,
                UncachedPort &walkPort, HostDevice &host);

    void reset(Addr pc, uint64_t satp, Addr sp);
    uint64_t instret() const { return instret_.read(); }
    bool halted() const { return host_.exited(hartId_); }
    cmd::StatGroup &stats() { return meta_->stats(); }
    cmd::StatGroup &dtlbStats() { return dtlb_->stats(); }
    cmd::StatGroup &l2tlbStats() { return l2tlb_->stats(); }

    /**
     * Invoked for every retired instruction, in completion order — not
     * program order. A load, store or atomic reports when its access
     * completes, after younger ALU instructions have already reported,
     * so a consumer that steps a functional model once per record
     * (the sampled-mode ShadowTracker) cannot follow it.
     */
    std::function<void(const CommitRecord &)> onCommit;

  private:
    struct FetchReq {
        uint64_t pc = 0;
        uint64_t nextAssumed = 0;
        uint8_t epoch = 0;
        uint8_t seq = 0;
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

    /** The one-outstanding memory access state machine. */
    struct MemOp {
        bool valid = false;
        uint8_t phase = 0; ///< 0 WaitTlb, 1 WaitCacheLd, 2 WaitCacheSt,
                           ///< 3 WaitAtomic
        isa::Inst inst;
        uint64_t pc = 0;
        uint64_t va = 0;
        Addr pa = 0;
        uint64_t data = 0; ///< store data / AMO operand
    };

    class Meta : public cmd::Module
    {
      public:
        Meta(cmd::Kernel &k, const std::string &n) : Module(k, n) {}
    };

    void doFetch1();
    void doFetch2();
    void doIcacheResp();
    void doFetch3();
    void doExec();
    void doMemTlbResp();
    void doMemCacheResp();
    void trap(uint64_t pc, isa::Cause cause, uint64_t tval);
    void writeback(uint8_t rd, uint64_t val);
    void emit(uint64_t pc, uint32_t raw, const isa::Inst &ins, bool hasRd,
              uint64_t rdVal, bool volatileRd, bool trapped,
              uint64_t cause);

    cmd::Kernel &k_;
    std::string name_;
    uint32_t hartId_;
    CoreConfig cfg_;
    L1Cache &icache_, &dcache_;
    HostDevice &host_;
    std::unique_ptr<Meta> meta_;

    std::unique_ptr<EpochManager> epoch_;
    std::unique_ptr<Btb> btb_;
    cmd::Reg<uint8_t> fetchSeq_;
    std::unique_ptr<cmd::CfFifo<FetchReq>> f2q_;
    std::unique_ptr<cmd::CfFifo<FetchXlated>> f3q_;
    cmd::RegArray<RespSlot> fetchResp_;
    std::unique_ptr<GroupFifo<Uop>> instQ_;

    std::unique_ptr<TlbChannel> itlbChan_, dtlbChan_;
    std::unique_ptr<L1Tlb> itlb_, dtlb_;
    std::unique_ptr<L2Tlb> l2tlb_;

    cmd::RegArray<uint64_t> regs_;
    cmd::RegArray<uint8_t> busy_; ///< stall-on-use for loads/atomics
    cmd::Reg<MemOp> memOp_;
    cmd::Reg<isa::CsrState> csr_;
    cmd::Reg<uint64_t> instret_;

    cmd::Stat *branches_, *mispredicts_, *loads_, *stores_;
};

} // namespace riscy
