/**
 * @file
 * GoldenModel: an architectural RV64IMA interpreter, playing the role
 * Spike plays for RiscyOO — the oracle that every core model is
 * co-simulated against (commit-by-commit) in the test suite, and the
 * engine behind the fast-forward execution mode (ExecMode in
 * proc/config.hh).
 *
 * The hot loop is accelerated by three caches, all architecturally
 * transparent:
 *
 *  - a direct-mapped decoded-instruction cache keyed by fetch PA
 *    (flushed by FENCE.I, per the ISA's self-modifying-code contract);
 *  - one-entry page-granular translation caches for fetch, load and
 *    store streams (flushed on any satp write, the same convention the
 *    detailed cores' TLBs follow — there is no SFENCE.VMA in this
 *    subset);
 *  - cached PhysMem page pointers alongside those translations, so a
 *    hit costs one tag compare and one memcpy instead of a hash-map
 *    walk per access.
 *
 * step() retires one instruction and returns a full Commit record (the
 * cosim interface); run() retires up to N instructions through the
 * same semantics without materializing records — the multi-MIPS
 * fast-forward loop.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/csr.hh"
#include "isa/inst.hh"
#include "isa/sv39.hh"
#include "mem/memory.hh"

namespace riscy::isa {

/**
 * The complete architectural state of one hart, as transferred on a
 * fast-forward <-> detailed handoff (proc/sampling.hh). Memory and the
 * host device travel separately (they are shared, not per-hart).
 */
struct ArchState {
    std::array<uint64_t, 32> regs{};
    uint64_t pc = 0;
    uint64_t instret = 0;
    CsrState csr;
};

class GoldenModel
{
  public:
    GoldenModel(PhysMem &mem, HostDevice &host, uint32_t hartId,
                Addr resetPc);

    /** Result of retiring one instruction. */
    struct Commit {
        uint64_t pc = 0;
        uint32_t raw = 0;
        Inst inst;
        bool hasRd = false;
        uint8_t rd = 0;
        uint64_t rdVal = 0;
        /** rdVal depends on the timing model (cycle CSR, etc.). */
        bool volatileRd = false;
        bool trapped = false;
        uint64_t cause = 0;
        uint64_t nextPc = 0;
    };

    /** Execute and retire exactly one instruction. */
    Commit step();

    /**
     * Execute and retire up to @p maxInsts instructions in a tight
     * loop (no Commit materialization), stopping early when the hart
     * exits via the host device. @return instructions retired.
     */
    uint64_t run(uint64_t maxInsts);

    bool halted() const { return host_.exited(hartId_); }

    uint64_t pc() const { return pc_; }
    void setPc(uint64_t pc) { pc_ = pc; }
    uint64_t reg(unsigned i) const { return regs_[i]; }
    void setReg(unsigned i, uint64_t v);
    uint64_t instret() const { return instret_; }
    void setInstret(uint64_t n) { instret_ = n; }
    const CsrState &csrs() const { return csr_; }
    CsrState &csrs() { return csr_; }

    /** Copy out / replace the full per-hart architectural state. */
    ArchState archState() const;
    void setArchState(const ArchState &as);

    /**
     * Drop every cached decode entry, translation and page pointer.
     * Must be called when the underlying PhysMem is replaced behind
     * the model's back (deserialize, copy-assignment from a shadow) —
     * cached page pointers would dangle otherwise.
     */
    void invalidateFastCaches();

    /** Touch-journal flag bits, OR-ed into the 64-byte-aligned line
     *  address (whose low six bits are free). No flag = data load. */
    static constexpr uint64_t kTouchStore = 1;
    static constexpr uint64_t kTouchFetch = 2;

    /** One recorded leaf translation (for functional TLB warming). */
    struct XlateRec {
        Addr va = 0;
        uint64_t ppn = 0;
        uint8_t level = 0; ///< leaf level (0 = 4K, 1 = 2M, 2 = 1G)
        uint8_t flags = 0; ///< PTE R/W/X bits
        uint8_t type = 0;  ///< AccessType
    };

    /** One resolved control transfer (for predictor warming). */
    struct BranchRec {
        enum Kind : uint8_t { Branch = 0, Jal = 1, Jalr = 2 };
        uint64_t pc = 0;
        uint64_t target = 0; ///< actual next PC
        uint8_t kind = 0;
        bool taken = false;  ///< always true for Jal/Jalr
        uint8_t rs1 = 0, rd = 0; ///< RAS call/return discrimination
    };

    /**
     * Record every cache line the model touches — instruction fetch,
     * data load (including page-table-walk reads), store / SC / AMO;
     * MMIO excluded — into @p journal in program order as
     * (line | kTouch* flags). A sampled warm handoff replays the
     * journal into the detailed cache models (SMARTS-style functional
     * warming) and re-syncs the stored-to lines' cached data
     * (System::runSampled). Consecutive repeats of the same line
     * within one access kind collapse to one entry; callers still
     * dedupe across the whole journal where order doesn't matter.
     * nullptr disables.
     */
    void
    setTouchJournal(std::vector<uint64_t> *journal)
    {
        journal_ = journal;
        lastSt_ = lastLd_ = lastIf_ = ~0ull;
    }

    /**
     * Record every leaf translation installed into the page caches
     * (fetch/load/store page changes) — the TLB-warming companion of
     * the touch journal. Replay with OooCore::warmTlbs. nullptr
     * disables.
     */
    void setXlateJournal(std::vector<XlateRec> *j) { xlateJournal_ = j; }

    /**
     * Record every executed control transfer (branch direction and
     * target, JAL/JALR with their RAS-relevant registers) in program
     * order — the predictor-warming companion of the touch journal.
     * Replay with OooCore::warmPredictors. nullptr disables.
     */
    void setBranchJournal(std::vector<BranchRec> *j) { branchJournal_ = j; }

    /** Decoded-instruction-cache effectiveness counters. */
    struct FastStats {
        uint64_t decodeAccesses = 0;
        uint64_t decodeHits = 0;
        double
        hitRate() const
        {
            return decodeAccesses
                       ? double(decodeHits) / double(decodeAccesses)
                       : 0.0;
        }
    };
    const FastStats &fastStats() const { return fastStats_; }

    /** Sv39 translation result. */
    struct Xlate {
        bool fault = false;
        Addr pa = 0;
        // Leaf PTE details (valid when !fault), for TLB warming.
        uint64_t ppn = 0;
        uint8_t level = 0;
        uint8_t flags = 0;
    };
    /** Translate @p va for @p type under the current satp. */
    Xlate translate(Addr va, AccessType type) const;

  private:
    /** One way of the direct-mapped decode cache, tagged by fetch PA. */
    struct DecEntry {
        uint64_t tag = ~0ull;
        Inst inst;
    };
    /** One-entry page-granular translation + page-pointer cache. */
    struct PageCache {
        uint64_t vaPage = ~0ull;
        uint64_t paPage = 0;
        uint8_t *ptr = nullptr;
    };

    static constexpr size_t kDecEntries = 8192; ///< power of two

    template <bool kRecord> Commit stepImpl();
    Commit trap(Commit c, Cause cause, uint64_t tval);
    uint64_t memLoad(Addr pa, const Inst &inst);
    void memStore(Addr pa, uint64_t v, unsigned bytes);
    /** Translate one page through @p pgc, filling it on a hit-capable
     *  miss. @return false on a page fault (pgc untouched). */
    bool xlatePage(PageCache &pgc, Addr va, AccessType type, Addr &pa);

    PhysMem &mem_;
    HostDevice &host_;
    uint32_t hartId_;
    uint64_t pc_;
    std::array<uint64_t, 32> regs_{};
    CsrState csr_;
    uint64_t instret_ = 0;
    bool hasReservation_ = false;
    Addr reservation_ = 0;

    std::vector<DecEntry> decCache_;
    PageCache fetchPg_, loadPg_, storePg_;
    FastStats fastStats_;
    // Warm-handoff journals (mutable: translate() is const but its
    // page-table reads are real line touches the handoff must replay).
    mutable std::vector<uint64_t> *journal_ = nullptr;
    mutable Addr lastSt_ = ~0ull, lastLd_ = ~0ull, lastIf_ = ~0ull;
    std::vector<XlateRec> *xlateJournal_ = nullptr;
    std::vector<BranchRec> *branchJournal_ = nullptr;
};

} // namespace riscy::isa
