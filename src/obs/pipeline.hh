/**
 * @file
 * Per-uop pipeline lifecycle tracing with a Konata/Kanata export.
 *
 * Each traced core owns one PipelineTracer; the core's rule bodies
 * report lifecycle transitions (create at fetch, rename, issue, ...,
 * commit or squash) against the uop's stable sequence id (Uop::seq,
 * assigned by create()). Records are buffered in memory — a tracer is
 * owned by its core's partition domain, so no locking is needed even
 * under the parallel scheduler — and KonataWriter merges every core's
 * buffer into one viewer-ready file at the end of the run.
 *
 * Determinism: every event carries the kernel cycle it happened at,
 * and the writer orders output canonically by (cycle, hart, seq), so
 * the exported bytes are identical under all three SchedulerKinds
 * (rule firings — and hence uop transitions — are bit-identical
 * across schedulers; only attempt patterns differ).
 */
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace obs {

/** Pipeline stages reported to the tracer (Konata lane labels). */
enum class Stage : uint8_t {
    Fetch,     ///< F:  fetch request to decode
    Decode,    ///< Dc: in the instruction queue
    Rename,    ///< Rn: rename/dispatch
    Issue,     ///< Is: waiting in an issue queue
    RegRead,   ///< RR: register read
    Execute,   ///< Ex: ALU / MulDiv / address calculation
    Mem,       ///< Mem: in the LSQ / waiting on the data cache
    Writeback, ///< Wb: register write / completion
    Commit,    ///< Cm: at the commit point
};

const char *stageName(Stage s);

class PipelineTracer
{
  public:
    /** Stop tracing new uops past this many per core (memory bound);
     *  drops are counted and reported, never silent. */
    static constexpr uint64_t kMaxUops = 1u << 20;

    explicit PipelineTracer(uint32_t hartId) : hartId_(hartId) {}

    uint32_t hartId() const { return hartId_; }

    /**
     * Begin tracing a new uop: stage Fetch from @p fetchCycle, then
     * Decode from @p nowCycle (the fetch3/decode cycle). @return the
     * uop's nonzero sequence id, or 0 when the trace is full (the uop
     * stays untraced; every other call ignores seq 0).
     */
    uint64_t create(uint64_t pc, const std::string &label,
                    uint64_t fetchCycle, uint64_t nowCycle);

    /** Report that @p seq entered @p st at @p cycle. */
    void stage(uint64_t seq, Stage st, uint64_t cycle);

    /** Rename-time bookkeeping: the squash mask to kill by. */
    void setSpecMask(uint64_t seq, uint16_t mask);

    /** Map LQ/SQ slots to seq ids so LSQ-side events can be reported
     *  by slot index (the only name the memory rules have). */
    void mapLq(uint8_t idx, uint64_t seq);
    void mapSq(uint8_t idx, uint64_t seq);
    uint64_t lqSeq(uint8_t idx) const
    {
        return idx < lqMap_.size() ? lqMap_[idx] : 0;
    }
    uint64_t sqSeq(uint8_t idx) const
    {
        return idx < sqMap_.size() ? sqMap_[idx] : 0;
    }

    /** The uop retired (architecturally committed) at @p cycle. */
    void retire(uint64_t seq, uint64_t cycle);
    /** The uop was squashed (wrong path) at @p cycle. */
    void squash(uint64_t seq, uint64_t cycle);
    /** Kill every live renamed uop whose specMask hits @p deadMask. */
    void squashMask(uint16_t deadMask, uint64_t cycle);
    /** Kill every live uop (commit-point flush). */
    void squashAll(uint64_t cycle);

    uint64_t created() const { return recs_.size(); }
    uint64_t retired() const { return retired_; }
    uint64_t squashed() const { return squashed_; }
    /** Uops not traced because the buffer cap was reached. */
    uint64_t dropped() const { return dropped_; }

  private:
    friend class KonataWriter;

    struct Rec {
        uint64_t pc = 0;
        std::string label;
        uint16_t specMask = 0;
        bool renamed = false;
        uint8_t state = 0; ///< 0 live, 1 retired, 2 squashed
        uint64_t endCycle = 0;
        /// (stage, startCycle) in report order; a stage ends where the
        /// next begins (or at endCycle)
        std::vector<std::pair<Stage, uint64_t>> stages;
    };

    Rec *
    rec(uint64_t seq)
    {
        // seq is 1-based; 0 means untraced.
        return seq && seq <= recs_.size() ? &recs_[seq - 1] : nullptr;
    }

    void finishRec(Rec &r, uint8_t state, uint64_t cycle);

    uint32_t hartId_;
    uint64_t retired_ = 0;
    uint64_t squashed_ = 0;
    uint64_t dropped_ = 0;
    /// first index that may still be live (squashMask scan floor)
    size_t liveFloor_ = 0;
    std::vector<Rec> recs_;
    std::vector<uint64_t> lqMap_, sqMap_;
};

/** Merge per-core tracers into one Kanata-format file. */
class KonataWriter
{
  public:
    /** @return false when @p os is not writable. */
    static bool write(std::ostream &os,
                      const std::vector<const PipelineTracer *> &cores);
    static bool writeFile(const std::string &path,
                          const std::vector<const PipelineTracer *> &cores);
};

} // namespace obs
