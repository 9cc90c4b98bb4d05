#include "proc/inorder_core.hh"

#include <algorithm>

#include "isa/exec.hh"

namespace riscy {

using namespace cmd;
using namespace isa;

InOrderCore::InOrderCore(Kernel &k, const std::string &name,
                         uint32_t hartId, const CoreConfig &cfg,
                         L1Cache &icache, L1Cache &dcache,
                         UncachedPort &walkPort, HostDevice &host)
    : k_(k), name_(name), hartId_(hartId), cfg_(cfg), icache_(icache),
      dcache_(dcache), host_(host),
      fetchSeq_(k, name + ".fetchSeq", 0),
      fetchResp_(k, name + ".fetchResp", 8),
      regs_(k, name + ".regs", 32, 0),
      busy_(k, name + ".busy", 32, 0),
      memOp_(k, name + ".memOp"),
      csr_(k, name + ".csr"),
      instret_(k, name + ".instret", 0)
{
    meta_ = std::make_unique<Meta>(k, name + ".core");
    branches_ = &meta_->stats().counter("branches");
    mispredicts_ = &meta_->stats().counter("mispredicts");
    loads_ = &meta_->stats().counter("loads");
    stores_ = &meta_->stats().counter("stores");

    epoch_ = std::make_unique<EpochManager>(k, name + ".epoch");
    btb_ = std::make_unique<Btb>(k, name + ".btb", cfg.btbEntries);
    f2q_ = std::make_unique<CfFifo<FetchReq>>(k, name + ".f2q", 2);
    f3q_ = std::make_unique<CfFifo<FetchXlated>>(k, name + ".f3q", 4);
    instQ_ = std::make_unique<GroupFifo<Uop>>(k, name + ".instQ", 8);

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

    k.rule(name + ".doFetch1", [this] { doFetch1(); })
        .when([this] {
            return !epoch_->redirectedThisCycle() && f2q_->canEnq() &&
                   itlb_->canReq();
        })
        .uses({&btb_->predictM, &itlb_->reqM, &f2q_->enqM,
               &epoch_->setFetchPcM});
    k.rule(name + ".doFetch2", [this] { doFetch2(); })
        .when([this] { return itlb_->respReady() && f3q_->canEnq(); })
        .uses({&itlb_->respM, &f2q_->deqM, &f2q_->firstM, &icache_.reqLdM,
               &f3q_->enqM});
    k.rule(name + ".doIcacheResp", [this] { doIcacheResp(); })
        .when([this] { return icache_.respLdReady(); })
        .uses({&icache_.respLdM});
    k.rule(name + ".doFetch3", [this] { doFetch3(); })
        .when([this] { return f3q_->canDeq(); })
        .uses({&f3q_->firstM, &f3q_->deqM, &instQ_->enqM});
    k.rule(name + ".doExec", [this] { doExec(); })
        .when([this] { return instQ_->size() > 0; })
        .uses({&instQ_->deqM, &btb_->updateM, &epoch_->redirectM,
               &dtlb_->reqM, &itlb_->setSatpM, &dtlb_->setSatpM,
               &itlb_->flushM, &dtlb_->flushM, &l2tlb_->setSatpM});
    k.rule(name + ".doMemTlbResp", [this] { doMemTlbResp(); })
        .when([this] { return dtlb_->respReady(); })
        .uses({&dtlb_->respM, &dcache_.reqLdM, &dcache_.reqStM,
               &dcache_.reqAtomicM, &epoch_->redirectM});
    k.rule(name + ".doMemCacheResp", [this] { doMemCacheResp(); })
        .when([this] {
            return dcache_.respLdReady() || dcache_.respStReady() ||
                   dcache_.respAtomicReady();
        })
        .uses({&dcache_.respLdM, &dcache_.respStM, &dcache_.respAtomicM,
               &dcache_.writeDataM});
}

void
InOrderCore::reset(Addr pc, uint64_t satp, Addr sp)
{
    bool ok = k_.runAtomically([&] {
        CsrState cs;
        cs.satp = satp;
        csr_.write(cs);
        epoch_->setFetchPc(pc);
        itlb_->setSatp(satp);
        dtlb_->setSatp(satp);
        l2tlb_->setSatp(satp);
        regs_.write(2, sp);
        regs_.write(10, hartId_);
    });
    if (!ok)
        panic("%s: reset failed", name_.c_str());
}

void
InOrderCore::doFetch1()
{
    require(!epoch_->redirectedThisCycle());
    uint64_t pc = epoch_->fetchPc();
    uint64_t t = btb_->predict(pc);
    uint64_t next = t ? t : pc + 4;
    FetchReq fr;
    fr.pc = pc;
    fr.nextAssumed = next;
    fr.epoch = epoch_->current();
    fr.seq = fetchSeq_.read();
    fetchSeq_.write((fetchSeq_.read() + 1) & 7);
    itlb_->req(0, pc, AccessType::Fetch);
    f2q_->enq(fr);
    epoch_->setFetchPc(next);
}

void
InOrderCore::doFetch2()
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
InOrderCore::doIcacheResp()
{
    L1Cache::LdResp r = icache_.respLd();
    fetchResp_.write(r.id, {true, r.line});
}

void
InOrderCore::doFetch3()
{
    FetchXlated x = f3q_->first();
    const FetchReq &fr = x.req;
    if (!x.fault)
        require(fetchResp_.read(fr.seq).valid);

    Uop u;
    u.pc = fr.pc;
    u.epoch = epoch_->renameEpoch();
    u.predNext = fr.nextAssumed;
    if (x.fault) {
        u.preException = true;
        u.preCause = static_cast<uint8_t>(Cause::FetchPageFault);
    } else {
        Line line = fetchResp_.read(fr.seq).line;
        uint32_t raw =
            static_cast<uint32_t>(line.read(lineOffset(fr.pc), 4));
        u.inst = decode(raw);
        u.inst.raw = raw;
        fetchResp_.write(fr.seq, RespSlot{});
    }
    if (!epoch_->isStale(fr.epoch))
        instQ_->enqGroup(&u, 1);
    f3q_->deq();
}

void
InOrderCore::trap(uint64_t pc, Cause cause, uint64_t tval)
{
    CsrState cs = csr_.read();
    cs.mepc = pc;
    cs.mcause = static_cast<uint64_t>(cause);
    cs.mtval = tval;
    if (cs.mtvec == 0)
        panic("%s: trap cause %llu at %#llx with no handler",
              name_.c_str(), (unsigned long long)cs.mcause,
              (unsigned long long)pc);
    csr_.write(cs);
    epoch_->redirect(cs.mtvec & ~3ull);
    instret_.write(instret_.read() + 1);
}

void
InOrderCore::writeback(uint8_t rd, uint64_t val)
{
    if (rd != 0)
        regs_.write(rd, val);
}

void
InOrderCore::emit(uint64_t pc, uint32_t raw, const Inst &ins, bool hasRd,
                  uint64_t rdVal, bool volatileRd, bool trapped,
                  uint64_t cause)
{
    if (!trapped)
        instret_.write(instret_.read() + 1);
    if (!onCommit)
        return;
    CommitRecord r;
    r.pc = pc;
    r.raw = raw;
    r.hasRd = hasRd;
    r.rd = ins.rd;
    r.rdVal = rdVal;
    r.volatileRd = volatileRd;
    r.trapped = trapped;
    r.cause = cause;
    onCommit(r);
}

void
InOrderCore::doExec()
{
    const Uop &u = instQ_->peek(0);
    if (epoch_->isStaleRename(u.epoch)) {
        instQ_->deqN(1);
        return;
    }
    const Inst &ins = u.inst;

    if (u.preException) {
        trap(u.pc, static_cast<Cause>(u.preCause), u.pc);
        emit(u.pc, 0, ins, false, 0, false, true, u.preCause);
        instQ_->deqN(1);
        return;
    }
    if (ins.op == Op::ILLEGAL) {
        trap(u.pc, Cause::IllegalInst, ins.raw);
        emit(u.pc, ins.raw, ins, false, 0, false, true,
             static_cast<uint64_t>(Cause::IllegalInst));
        instQ_->deqN(1);
        return;
    }

    // Stall-on-use / WAW against the in-flight memory op.
    require(!(ins.readsRs1() && busy_.read(ins.rs1)));
    require(!(ins.readsRs2() && busy_.read(ins.rs2)));
    require(!(ins.writesRd() && busy_.read(ins.rd)));

    uint64_t a = regs_.read(ins.rs1);
    uint64_t b = regs_.read(ins.rs2);
    uint64_t actualNext = u.pc + 4;

    if (ins.isMem()) {
        require(!memOp_.read().valid); // one outstanding access
        MemOp m;
        m.valid = true;
        m.phase = 0;
        m.inst = ins;
        m.pc = u.pc;
        m.va = ins.isAtomic() ? a : a + static_cast<uint64_t>(ins.imm);
        m.data = b;
        if (m.va & (ins.memBytes() - 1)) {
            Cause c = ins.isLq() ? Cause::LoadMisaligned
                                 : Cause::StoreMisaligned;
            trap(u.pc, c, m.va);
            emit(u.pc, ins.raw, ins, false, 0, false, true,
                 static_cast<uint64_t>(c));
            instQ_->deqN(1);
            return;
        }
        AccessType t = (ins.isStore() || ins.isSc() || ins.isAmoRmw())
                           ? AccessType::Store
                           : AccessType::Load;
        dtlb_->req(0, m.va, t);
        memOp_.write(m);
        if (ins.writesRd())
            busy_.write(ins.rd, 1);
        (ins.isLq() ? *loads_ : *stores_).inc();
        // Redirect check for the fall-through path happened at fetch.
        if (u.predNext != u.pc + 4) {
            epoch_->redirect(u.pc + 4); // bogus BTB hit on a mem op
            btb_->update(u.pc, 0, false);
            mispredicts_->inc();
        }
        instQ_->deqN(1);
        return;
    }

    if (ins.isCsr()) {
        // Serialized: wait for the memory unit to drain.
        require(!memOp_.read().valid);
        CsrState cs = csr_.read();
        uint64_t operand = (ins.op >= Op::CSRRWI) ? ins.rs1 : a;
        uint64_t old = 0;
        bool readOk = cs.read(ins.csr, k_.cycleCount(), instret_.read(),
                              hartId_, old);
        bool doWrite = (ins.op == Op::CSRRW || ins.op == Op::CSRRWI) ||
                       ((ins.op == Op::CSRRS || ins.op == Op::CSRRSI ||
                         ins.op == Op::CSRRC || ins.op == Op::CSRRCI) &&
                        ins.rs1 != 0);
        uint64_t nv = old;
        if (ins.op == Op::CSRRW || ins.op == Op::CSRRWI)
            nv = operand;
        else if (ins.op == Op::CSRRS || ins.op == Op::CSRRSI)
            nv = old | operand;
        else
            nv = old & ~operand;
        bool writeOk = doWrite ? cs.write(ins.csr, nv) : true;
        if (!readOk || !writeOk) {
            trap(u.pc, Cause::IllegalInst, ins.raw);
            emit(u.pc, ins.raw, ins, false, 0, false, true,
                 static_cast<uint64_t>(Cause::IllegalInst));
            instQ_->deqN(1);
            return;
        }
        csr_.write(cs);
        if (doWrite && ins.csr == kCsrSatp) {
            itlb_->flush();
            dtlb_->flush();
            itlb_->setSatp(nv);
            dtlb_->setSatp(nv);
            l2tlb_->setSatp(nv);
            epoch_->redirect(u.pc + 4);
        }
        writeback(ins.rd, old);
        emit(u.pc, ins.raw, ins, ins.writesRd(), old,
             CsrState::isVolatile(ins.csr), false, 0);
        instQ_->deqN(1);
        return;
    }
    if (ins.op == Op::ECALL) {
        trap(u.pc, Cause::EcallM, 0);
        emit(u.pc, ins.raw, ins, false, 0, false, true,
             static_cast<uint64_t>(Cause::EcallM));
        instQ_->deqN(1);
        return;
    }
    if (ins.op == Op::EBREAK) {
        trap(u.pc, Cause::Breakpoint, 0);
        emit(u.pc, ins.raw, ins, false, 0, false, true,
             static_cast<uint64_t>(Cause::Breakpoint));
        instQ_->deqN(1);
        return;
    }
    if (ins.op == Op::MRET) {
        epoch_->redirect(csr_.read().mepc);
        emit(u.pc, ins.raw, ins, false, 0, false, false, 0);
        instret_.write(instret_.read() + 1);
        instQ_->deqN(1);
        return;
    }
    if (ins.isFence() || ins.op == Op::WFI) {
        require(!memOp_.read().valid);
        emit(u.pc, ins.raw, ins, false, 0, false, false, 0);
        instQ_->deqN(1);
        return;
    }

    // ALU / control flow.
    uint64_t res = 0;
    bool taken = false;
    if (ins.isBranch()) {
        taken = branchTaken(ins, a, b);
        actualNext = taken ? u.pc + static_cast<uint64_t>(ins.imm)
                           : u.pc + 4;
        branches_->inc();
    } else if (ins.isJal() || ins.isJalr()) {
        actualNext = controlTarget(ins, u.pc, a);
        res = u.pc + 4;
        taken = true;
    } else {
        res = aluCompute(ins, a, b, u.pc);
    }
    if (ins.isControlFlow()) {
        btb_->update(u.pc, actualNext, taken);
        if (actualNext != u.predNext) {
            epoch_->redirect(actualNext);
            mispredicts_->inc();
        }
    } else if (u.predNext != u.pc + 4) {
        epoch_->redirect(u.pc + 4); // bogus BTB hit
        btb_->update(u.pc, 0, false);
        mispredicts_->inc();
    }
    if (ins.writesRd())
        writeback(ins.rd, res);
    emit(u.pc, ins.raw, ins, ins.writesRd(), res, false, false, 0);
    instQ_->deqN(1);
}

void
InOrderCore::doMemTlbResp()
{
    L1Tlb::Resp r = dtlb_->resp();
    MemOp m = memOp_.read();
    if (!m.valid)
        panic("%s: TLB response with no memory op", name_.c_str());
    const Inst &ins = m.inst;
    if (r.fault) {
        Cause c = ins.isLq() ? Cause::LoadPageFault
                             : Cause::StorePageFault;
        trap(m.pc, c, m.va);
        emit(m.pc, ins.raw, ins, false, 0, false, true,
             static_cast<uint64_t>(c));
        if (ins.writesRd())
            busy_.write(ins.rd, 0);
        memOp_.write(MemOp{});
        return;
    }
    m.pa = r.pa;
    if (isMmioAddr(r.pa)) {
        // MMIO performed directly (in order, at the access point).
        if (ins.isLoad()) {
            uint64_t v = loadExtend(ins.op, host_.load(hartId_, r.pa, k_.cycleCount()));
            writeback(ins.rd, v);
            busy_.write(ins.rd, 0);
            emit(m.pc, ins.raw, ins, ins.writesRd(), v, true, false, 0);
        } else if (ins.isStore()) {
            host_.store(hartId_, r.pa, m.data, k_.cycleCount());
            emit(m.pc, ins.raw, ins, false, 0, false, false, 0);
        } else {
            panic("%s: atomic to MMIO space", name_.c_str());
        }
        memOp_.write(MemOp{});
        return;
    }
    if (ins.isAtomic()) {
        dcache_.reqAtomic(0, r.pa, ins.op, m.data, ins.memBytes());
        m.phase = 3;
    } else if (ins.isLoad()) {
        dcache_.reqLd(0, r.pa);
        m.phase = 1;
    } else {
        dcache_.reqSt(0, r.pa);
        m.phase = 2;
    }
    memOp_.write(m);
}

void
InOrderCore::doMemCacheResp()
{
    MemOp m = memOp_.read();
    require(m.valid);
    const Inst &ins = m.inst;
    if (m.phase == 1) {
        require(dcache_.respLdReady());
        L1Cache::LdResp r = dcache_.respLd();
        uint64_t v =
            loadExtend(ins.op, r.line.read(lineOffset(m.pa), ins.memBytes()));
        writeback(ins.rd, v);
        busy_.write(ins.rd, 0);
        emit(m.pc, ins.raw, ins, ins.writesRd(), v, false, false, 0);
    } else if (m.phase == 2) {
        require(dcache_.respStReady());
        dcache_.respSt();
        dcache_.writeData(m.pa, m.data, ins.memBytes());
        emit(m.pc, ins.raw, ins, false, 0, false, false, 0);
    } else {
        require(m.phase == 3 && dcache_.respAtomicReady());
        L1Cache::AtomicResp r = dcache_.respAtomic();
        if (ins.writesRd()) {
            writeback(ins.rd, r.value);
            busy_.write(ins.rd, 0);
        }
        emit(m.pc, ins.raw, ins, ins.writesRd(), r.value, false, false, 0);
    }
    memOp_.write(MemOp{});
}

} // namespace riscy
