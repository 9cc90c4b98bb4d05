/**
 * @file
 * Shared, inclusive L2 cache running the MSI directory protocol.
 *
 * The L2 is the coherence parent of every L1 (D and I side of every
 * core) and additionally serves uncached line reads for the page-table
 * walkers (the paper's "page walk cross bar" traffic). Transactions
 * are serialized per line: at most one open transaction per line
 * address, which together with the virtual-channel split in msg.hh
 * makes the protocol race-free (see the proof sketch there).
 *
 * The cross bars of Fig. 11 appear here as the round-robin arbitration
 * the rules perform over the per-child channels; the channels
 * themselves are TimedFifos, so cross-bar/pipeline latency is a
 * configuration parameter.
 */
#pragma once

#include <bitset>

#include "cache/l1.hh"
#include "mem/dram.hh"

namespace riscy {

/** Uncached read response: the line address and its data. */
struct UncachedResp {
    Addr line = 0;
    Line data;
};

/** Walker-side uncached read port (created by the system assembly). */
struct UncachedPort {
    UncachedPort(cmd::Kernel &k, const std::string &name, uint32_t delay)
        : req(k, name + ".req", 2, delay), resp(k, name + ".resp", 2, delay)
    {
    }

    cmd::TimedFifo<Addr> req;
    cmd::TimedFifo<UncachedResp> resp;
};

class L2Cache : public cmd::Module
{
  public:
    /** 64 cores x (D + I side). The directory packs 2 bits per child,
     *  so raising this costs 1 byte of DirEntry per 4 children. */
    static constexpr uint32_t kMaxChildren = 128;

    struct Config {
        uint32_t sizeKb = 1024;
        uint32_t ways = 16;
        uint32_t txns = 16;
        /** Grant E on sharer-free read misses (MESI extension). */
        bool mesi = false;
        /** Line-index bits to skip below the set index — the bank
         *  bits when this cache is one slice of a banked L2, so the
         *  slice uses its full set array. */
        uint32_t setShift = 0;
    };

    L2Cache(cmd::Kernel &k, const std::string &name, const Config &cfg,
            std::vector<CacheChannel *> children,
            std::vector<UncachedPort *> uncached, MemPort &mem);

    // ---- warm-handoff interface (see L1Cache::debugPatchLine)
    /** Data-only resync of @p line when resident; protocol state,
     *  directory and LRU untouched. Between cycles only. */
    bool debugPatchLine(Addr line, const Line &src);
    /** No open transaction. */
    bool quiescent() const;

    // ---- functional warming (sampled-mode handoff; between cycles on
    //      a drained, quiescent machine — see MemHierarchy::warmTouch)
    /**
     * Ensure @p line is resident with fresh @p src data (which came
     * from memory, so the line becomes clean) and record child
     * @p child as at least an S sharer. A miss installs into the LRU
     * victim way, recalling the victim from every child through
     * @p recall(childIdx, victimLine); the victim's writeback is
     * elided because at handoff time every cached line's data equals
     * memory. @return false when warming must be skipped: a
     * *different* child holds the line at E/M (warming never
     * downgrades a live exclusive copy) or no way is usable.
     */
    bool warmEnsure(int child, Addr line, const Line &src,
                    const std::function<void(uint32_t, Addr)> &recall);
    /** Child @p child silently dropped @p line during warming; clear
     *  its sharer bit (the analogue of a voluntary DowngradeResp). */
    void warmChildEvicted(int child, Addr line);

    /** True while an open transaction on @p line is waiting on DRAM
     *  (fill or victim writeback still to be queued or answered).
     *  Between-cycle observability probe: the CPI stack uses it to
     *  split D-miss stall cycles into L2-bound vs DRAM-bound. */
    bool dramPending(Addr line) const;

  private:
    /** Per-line directory: 2-bit Msi state per child, packed. */
    struct DirEntry {
        uint8_t bits[kMaxChildren / 4] = {};

        uint8_t
        get(uint32_t c) const
        {
            return (bits[c >> 2] >> ((c & 3) * 2)) & 3;
        }
        void
        set(uint32_t c, uint8_t v)
        {
            uint32_t sh = (c & 3) * 2;
            bits[c >> 2] = static_cast<uint8_t>(
                (bits[c >> 2] & ~(3u << sh)) | ((v & 3u) << sh));
        }
    };

    enum Phase : uint8_t {
        EvictWait = 0,
        EvictWb = 1,
        NeedFill = 2,
        WaitDram = 3,
        WaitAcks = 4,
        Grant = 5,
    };

    struct Txn {
        bool valid = false;
        Addr line = 0;
        int8_t child = -1; ///< requesting child, -1 for uncached port
        uint8_t port = 0;  ///< uncached port index when child == -1
        uint8_t want = 0;
        uint8_t phase = 0;
        uint8_t pendingAcks = 0;
        uint16_t way = 0;
        bool victimValid = false;
        Addr victimLine = 0;
    };

    uint32_t setOf(Addr line) const
    {
        return static_cast<uint32_t>(
            (line >> (kLineShift + cfg_.setShift)) & (sets_ - 1));
    }
    uint32_t slot(uint32_t set, uint32_t way) const
    {
        return set * ways_ + way;
    }
    int findWay(Addr line) const;
    /** MESI: promote a sharer-free S grant to E. */
    Msi upgradeGrant(const DirEntry &d, int child, Msi want) const;
    /** True if any transaction blocks starting one on @p line. */
    bool lineBlocked(Addr line) const;
    int freeTxn() const;
    int pickVictim(uint32_t set) const;

    void ruleDrainResp();
    void ruleStartTxn();
    void ruleTxnStep();
    void ruleDramResp();

    /** Downgrade targets for a hit on @p line requested by @p child,
     *  one bit per child. */
    std::bitset<kMaxChildren> computeTargets(uint32_t sl, int child,
                                             Msi want, Msi &downTo) const;

    Config cfg_;
    uint32_t sets_, ways_;
    std::vector<CacheChannel *> children_;
    std::vector<UncachedPort *> uncached_;
    MemPort &dram_;

    cmd::RegArray<Addr> tags_;
    cmd::RegArray<uint8_t> valid_;
    cmd::RegArray<uint8_t> dirty_;
    cmd::RegArray<uint8_t> wayBusy_;
    cmd::RegArray<DirEntry> dir_;
    cmd::RegArray<Line> data_;
    cmd::RegArray<uint8_t> lruPtr_;
    cmd::RegArray<Txn> txn_;
    cmd::Reg<uint32_t> rrChild_;

    cmd::Stat &hits_, &misses_, &writebacks_, &downgrades_,
        &uncachedReqs_, &eGrants_;
};

} // namespace riscy
