/**
 * @file
 * Journaled state elements: Reg<T> and RegArray<T>.
 *
 * Reads performed inside a rule return the committed value as of the
 * start of that rule (so "x.write(y.read()); y.write(x.read())" swaps,
 * matching BSV register semantics). Writes are staged and applied only
 * if the rule commits, which is what makes rules atomic. A rule firing
 * later in the same cycle observes the committed writes of earlier
 * rules — the "<" ordering of the conflict matrix.
 *
 * readStable() additionally exposes the value as of the *start of the
 * cycle*, regardless of what earlier rules committed. Module
 * implementations use it to realize conflict-free (CF) method pairs
 * whose guards must not depend on intra-cycle execution order (see
 * fifo.hh's CfFifo).
 */
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "core/kernel.hh"

namespace cmd {

/** A single register holding a trivially copyable value. */
template <typename T>
class Reg final : public StateBase
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Reg<T> requires trivially copyable T (snapshots)");

  public:
    Reg(Kernel &kernel, std::string name, T init = T{})
        : StateBase(kernel, std::move(name)), cur_(init)
    {
        // Clear in place: a copy of a cleared value need not carry its
        // zeroed padding. Commits copy padding-cleared staged values,
        // so the padding stays zero from here on.
        detail::clearPadding(cur_);
    }

    /** Committed value (as of the start of the current rule). */
    const T &
    read() const
    {
        noteRead();
        return cur_;
    }

    /** Value as of the start of the current cycle. */
    const T &
    readStable() const
    {
        noteRead();
        return stableCycle_ == kernelCycle() ? stable_ : cur_;
    }

    /** Stage a write; commits only if the enclosing rule fires. */
    void
    write(const T &v)
    {
        if (stagedValid_)
            kfault(FaultKind::DesignError, name(),
                   "double write within one rule");
        // Register with the transaction before staging: if the touch
        // is rejected (cross-domain write), nothing must be staged, or
        // the orphaned value would leak past the rollback.
        kernel_.noteStateTouched(this);
        staged_ = v;
        detail::clearPadding(staged_);
        stagedValid_ = true;
    }

    void
    commitStaged() override
    {
        uint64_t now = kernelCycle();
        if (stableCycle_ != now) {
            stableCycle_ = now;
            stable_ = cur_;
        }
        cur_ = staged_;
        stagedValid_ = false;
    }

    void abortStaged() override { stagedValid_ = false; }

    void
    save(std::vector<uint8_t> &out) const override
    {
        const uint8_t *p = reinterpret_cast<const uint8_t *>(&cur_);
        out.insert(out.end(), p, p + sizeof(T));
    }

    void
    restore(const uint8_t *&in) override
    {
        std::memcpy(&cur_, in, sizeof(T));
        in += sizeof(T);
        stagedValid_ = false;
        stableCycle_ = ~0ull;
    }

    size_t savedSize() const override { return sizeof(T); }

  private:
    T cur_;
    T staged_{};
    T stable_{};
    bool stagedValid_ = false;
    uint64_t stableCycle_ = ~0ull;
};

/**
 * A monotonic uint64 counter whose committed value is queryable at
 * *past cycle epochs*: readAt(c) returns the value as of the end of
 * cycle c, from a bounded ring of (cycle, value) commit records.
 *
 * This is the state element behind TimedFifo's enq/deq totals under
 * multi-cycle lookahead PDES. A consumer domain running ahead inside
 * a lookahead window is only allowed to see the producer's counter as
 * of `now - latency` — an epoch that is always covered by the batch
 * published at the last sync barrier (the window width never exceeds
 * the channel latency). The sequential schedulers use the *same*
 * lagged views on the live history, which is why parallel-with-
 * lookahead stays bit-identical to them.
 *
 * The ring records at most one entry per cycle (the counters are
 * written by one conflicting method, so they commit at most once per
 * cycle; a same-cycle atomic-action bump updates the entry in place).
 * Capacity 2*lag+8 therefore retains every epoch a reader may query:
 * queries reach back at most `lag` cycles behind a local clock that
 * itself runs at most `window <= lag` cycles ahead of the publish
 * epoch. Evicted entries fold into floor_, the value before the
 * oldest retained record. History is part of save()/restore() so a
 * restored run reproduces lagged guard reads bit-exactly.
 */
class EpochCounter final : public StateBase
{
  public:
    EpochCounter(Kernel &kernel, std::string name, uint32_t lagCycles,
                 uint64_t init = 0)
        : StateBase(kernel, std::move(name)), cur_(init), floor_(init),
          pubCur_(init), pubFloor_(init),
          hist_(2 * size_t(lagCycles ? lagCycles : 1) + 8),
          pubHist_(hist_.size())
    {
    }

    /** Committed value (as of the start of the current rule). */
    uint64_t
    read() const
    {
        noteRead();
        return cur_;
    }

    /** Value as of the start of the current cycle. */
    uint64_t
    readStable() const
    {
        noteRead();
        uint64_t c = kernelCycle();
        // Before the first cycle nothing is stable yet: the start-of-
        // cycle view is the initial value, not this cycle's commits
        // (c - 1 would wrap and admit them).
        if (c == 0)
            return floor_;
        return valueAt(hist_, floor_, pos_, count_, c - 1);
    }

    /**
     * Committed value as of the end of cycle @p c, from the live
     * history. Same-domain (or sequential-scheduler) readers only;
     * cross-domain readers must use readPublishedAt(). @p c at or
     * before the first commit returns the initial/floor value.
     */
    uint64_t
    readAt(uint64_t c) const
    {
        noteRead();
        return valueAt(hist_, floor_, pos_, count_, c);
    }

    /**
     * Value as of the end of cycle @p c, from the epoch batch latched
     * at the last sync barrier (Kernel::registerMirror). Complete for
     * every epoch up to the publish cycle; written solely by the
     * driving thread at the barrier, so cross-domain reads are
     * race-free. Bypasses noteRead() — callers flag themselves with
     * detail::noteCrossRead().
     */
    uint64_t
    readPublishedAt(uint64_t c) const
    {
        return valueAt(pubHist_, pubFloor_, pubPos_, pubCount_, c);
    }

    /** Scalar value as latched at the last sync barrier. */
    uint64_t readPublished() const { return pubCur_; }

    void
    publishMirror() override
    {
        pubCur_ = cur_;
        pubFloor_ = floor_;
        pubPos_ = pos_;
        pubCount_ = count_;
        pubHist_ = hist_;
    }

    /** Stage a write; commits only if the enclosing rule fires. */
    void
    write(uint64_t v)
    {
        if (stagedValid_)
            kfault(FaultKind::DesignError, name(),
                   "double write within one rule");
        kernel_.noteStateTouched(this);
        staged_ = v;
        stagedValid_ = true;
    }

    void
    commitStaged() override
    {
        uint64_t now = kernelCycle();
        if (count_ && hist_[newestIdx()].cycle == now) {
            hist_[newestIdx()].value = staged_;
        } else {
            if (count_ == hist_.size()) {
                // Evict the oldest record into the floor. Readers
                // never query epochs that old (see class comment).
                floor_ = hist_[pos_].value;
                pos_ = (pos_ + 1) % hist_.size();
                count_--;
            }
            hist_[(pos_ + count_) % hist_.size()] = {now, staged_};
            count_++;
        }
        cur_ = staged_;
        stagedValid_ = false;
    }

    void abortStaged() override { stagedValid_ = false; }

    void
    save(std::vector<uint8_t> &out) const override
    {
        auto put64 = [&out](uint64_t v) {
            const uint8_t *p = reinterpret_cast<const uint8_t *>(&v);
            out.insert(out.end(), p, p + 8);
        };
        put64(cur_);
        put64(floor_);
        put64(pos_);
        put64(count_);
        for (const Entry &e : hist_) {
            put64(e.cycle);
            put64(e.value);
        }
    }

    void
    restore(const uint8_t *&in) override
    {
        auto get64 = [&in] {
            uint64_t v;
            std::memcpy(&v, in, 8);
            in += 8;
            return v;
        };
        cur_ = get64();
        floor_ = get64();
        pos_ = get64();
        count_ = get64();
        for (Entry &e : hist_) {
            e.cycle = get64();
            e.value = get64();
        }
        stagedValid_ = false;
    }

    size_t savedSize() const override { return 8 * (4 + 2 * hist_.size()); }

  private:
    struct Entry
    {
        uint64_t cycle = 0;
        uint64_t value = 0;
    };

    size_t newestIdx() const { return (pos_ + count_ - 1) % hist_.size(); }

    /** Newest record with record.cycle <= c, else the floor. */
    static uint64_t
    valueAt(const std::vector<Entry> &hist, uint64_t floorValue,
            uint64_t pos, uint64_t count, uint64_t c)
    {
        for (uint64_t i = 0; i < count; i++) {
            const Entry &e = hist[(pos + count - 1 - i) % hist.size()];
            if (e.cycle <= c)
                return e.value;
        }
        return floorValue;
    }

    uint64_t cur_;
    uint64_t staged_ = 0;
    bool stagedValid_ = false;
    uint64_t floor_;    ///< value before the oldest retained record
    uint64_t pos_ = 0;  ///< ring index of the oldest record
    uint64_t count_ = 0;
    uint64_t pubCur_;
    uint64_t pubFloor_;
    uint64_t pubPos_ = 0;
    uint64_t pubCount_ = 0;
    std::vector<Entry> hist_;
    std::vector<Entry> pubHist_; ///< barrier-latched batch copy
};

/**
 * A register array (register file / RAM macro) with per-element
 * journaled writes. Element reads see committed state; writes commit
 * in program order within the rule. Writing the same index twice in
 * one rule is a design error.
 */
template <typename T>
class RegArray final : public StateBase
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "RegArray<T> requires trivially copyable T");

  public:
    RegArray(Kernel &kernel, std::string name, size_t size, T init = T{})
        : StateBase(kernel, std::move(name)), cur_(size, init)
    {
        // Clear in place: the vector's element copies need not carry
        // zeroed padding (see Reg).
        for (T &v : cur_)
            detail::clearPadding(v);
    }

    size_t size() const { return cur_.size(); }

    const T &
    read(size_t idx) const
    {
        noteRead();
        return cur_[checkIdx(idx)];
    }

    /**
     * Raw committed value of element @p idx, bypassing both journal
     * bookkeeping and noteRead(). Only for cross-domain boundary reads
     * of slots the owning domain provably is not writing this cycle
     * (TimedFifo payload/ready slots, whose occupancy guard already
     * imposes a one-cycle visibility delay — see timed_fifo.hh); the
     * caller must flag itself with detail::noteCrossRead().
     */
    const T &readDirect(size_t idx) const { return cur_[checkIdx(idx)]; }

    /** Value of element @p idx as of the start of the current cycle. */
    const T &
    readStable(size_t idx) const
    {
        noteRead();
        checkIdx(idx);
        if (historyCycle_ == kernelCycle()) {
            for (const auto &h : history_) {
                if (h.first == idx)
                    return h.second;
            }
        }
        return cur_[idx];
    }

    void
    write(size_t idx, const T &v)
    {
        checkIdx(idx);
        for (const auto &w : staged_) {
            if (w.first == idx)
                kfault(FaultKind::DesignError, name(),
                       "[%zu]: double write within one rule", idx);
        }
        // Touch before staging (see Reg::write).
        if (staged_.empty())
            kernel_.noteStateTouched(this);
        staged_.emplace_back(idx, v);
        detail::clearPadding(staged_.back().second);
    }

    void
    commitStaged() override
    {
        uint64_t now = kernelCycle();
        if (historyCycle_ != now) {
            historyCycle_ = now;
            history_.clear();
        }
        for (const auto &w : staged_) {
            bool seen = false;
            for (const auto &h : history_) {
                if (h.first == w.first) {
                    seen = true;
                    break;
                }
            }
            if (!seen)
                history_.emplace_back(w.first, cur_[w.first]);
            cur_[w.first] = w.second;
        }
        staged_.clear();
    }

    void abortStaged() override { staged_.clear(); }

    void
    save(std::vector<uint8_t> &out) const override
    {
        const uint8_t *p = reinterpret_cast<const uint8_t *>(cur_.data());
        out.insert(out.end(), p, p + sizeof(T) * cur_.size());
    }

    void
    restore(const uint8_t *&in) override
    {
        std::memcpy(cur_.data(), in, sizeof(T) * cur_.size());
        in += sizeof(T) * cur_.size();
        staged_.clear();
        history_.clear();
        historyCycle_ = ~0ull;
    }

    size_t savedSize() const override { return sizeof(T) * cur_.size(); }

  private:
    size_t
    checkIdx(size_t idx) const
    {
        if (idx >= cur_.size())
            kfault(FaultKind::DesignError, name(),
                   "index %zu out of range %zu", idx, cur_.size());
        return idx;
    }

    std::vector<T> cur_;
    std::vector<std::pair<size_t, T>> staged_;
    /// old values of elements overwritten this cycle (for readStable)
    std::vector<std::pair<size_t, T>> history_;
    uint64_t historyCycle_ = ~0ull;
};

} // namespace cmd
