/**
 * @file
 * TimedFifo<T>: a conflict-free FIFO whose elements only become
 * visible a fixed number of cycles after they were enqueued. The
 * standard way to model pipeline/wire/array latency (L2 pipeline
 * depth, DRAM access time) without giving up latency-insensitive
 * interfaces: consumers simply see deq's guard stay false until the
 * element has "aged".
 *
 * A TimedFifo is also the parallel scheduler's domain *boundary*: its
 * latency is the PDES lookahead that lets the producer's and the
 * consumer's domains run a cycle concurrently. To make that sound the
 * fifo is built from two endpoint modules — the enq side owns the
 * payload/ready slots, the tail pointer, and a monotonic enqueue
 * counter; the deq side owns the head pointer and a monotonic dequeue
 * counter — so each side's rules commit only domain-local state (the
 * old shared read-modify-write `count` register would have needed a
 * cross-domain merge). Occupancy is the counter difference. The fifo
 * registers once with the kernel (Kernel::registerChannel), naming
 * both endpoints and both counters. When elaboration puts the ends in
 * different domains, each counter is latched (EpochCounter::publish())
 * at every sync window start by the thread that runs the domain
 * writing it; when they share a domain the fifo is sequential code
 * inside it and nothing is exchanged.
 *
 * Cross-side counter views under multi-cycle lookahead PDES (see
 * DESIGN.md "Multi-cycle lookahead PDES"): domains synchronize only
 * every W = min-cross-latency cycles, so a view of the other side's
 * counter can be at most W cycles stale. The fifo therefore defines
 * every cross-capable view with a *latency-sized* lag, uniformly
 * under every scheduler, which keeps them all bit-identical:
 *
 *  - Data direction (canDeq/first/deq): the enqueue count is read as
 *    the published (sync-latched) scalar under a domain context and
 *    readStable() otherwise. Any such count is exact for deq-ability:
 *    the head's per-slot ready stamp (enq cycle + latency) already
 *    rejects every element the lagged count could spuriously admit,
 *    so the outcome equals the exact-count outcome at any staleness
 *    up to `latency` cycles — which the window never exceeds.
 *  - Credit direction (canEnq/enq) and the consumer-side pending()
 *    probe: read the other side's counter as of cycle
 *    `now - max(latency, 1)` through the EpochCounter history (the
 *    live one sequentially, the sync-published batch across domains).
 *    For latency <= 1 this is exactly the historical start-of-cycle
 *    view; for latency >= 2 it models the credit-return wire taking
 *    as long as the data wire. Lagged guards are time-dependent, so
 *    they conservatively stay out of the sleep machinery.
 *
 * Payload/ready slots the consumer reads were written before the last
 * sync barrier (the published count only admits elements enqueued at
 * least `latency >= W` cycles ago), and the producer cannot reuse a
 * slot until its lagged credit view proves the consumer dequeued it,
 * so reading them raw from another domain is race-free.
 */
#pragma once

#include "core/fifo.hh"

namespace cmd {

template <typename T>
class TimedFifo : public ChannelPort
{
  private:
    // Each side's modules and state start on their own cache lines
    // (the side structs are line-aligned, so what follows each also
    // starts a new line): under Parallel the two sides commit on
    // different threads, and each polls the other's published
    // counter every cycle.
    struct alignas(detail::kCacheLine) EnqSide : Module
    {
        EnqSide(Kernel &k, const std::string &n)
            : Module(k, n, Conflict::C), enqM(this->method("enq"))
        {
        }
        Method &enqM;
    };
    struct alignas(detail::kCacheLine) DeqSide : Module
    {
        DeqSide(Kernel &k, const std::string &n)
            : Module(k, n, Conflict::C), deqM(this->method("deq")),
              firstM(this->method("first"))
        {
            this->cf(firstM, deqM);
            this->selfCf(firstM);
        }
        Method &deqM, &firstM;
    };

    EnqSide enqSide_;
    DeqSide deqSide_;

  public:
    Method &enqM, &deqM, &firstM;

    TimedFifo(Kernel &kernel, const std::string &name, uint32_t capacity,
              uint32_t delay)
        : enqSide_(kernel, name + ".enq"), deqSide_(kernel, name + ".deq"),
          enqM(enqSide_.enqM), deqM(deqSide_.deqM), firstM(deqSide_.firstM),
          kernel_(kernel), name_(name), delay_(delay), cap_(capacity),
          data_(kernel, name + ".data", capacity),
          ready_(kernel, name + ".ready", capacity),
          head_(kernel, name + ".head", 0),
          tail_(kernel, name + ".tail", 0),
          enqTotal_(kernel, name + ".enqTotal", delay < 1 ? 1 : delay, 0),
          deqTotal_(kernel, name + ".deqTotal", delay < 1 ? 1 : delay, 0)
    {
        kernel.registerChannel(*this, enqSide_, deqSide_, enqTotal_,
                               deqTotal_, &cross_);
        data_.setDomainOwner(&enqSide_);
        ready_.setDomainOwner(&enqSide_);
        tail_.setDomainOwner(&enqSide_);
        enqTotal_.setDomainOwner(&enqSide_);
        head_.setDomainOwner(&deqSide_);
        deqTotal_.setDomainOwner(&deqSide_);
    }

    ~TimedFifo() override { kernel_.unregisterChannel(this); }

    // ---- ChannelPort (PDES lookahead, fault injection, watchdog
    // diagnostics). The fault actions run as between-cycle atomic
    // actions on the main context, so they obey rule atomicity and
    // are exempt from the cross-domain access checks.
    const std::string &channelName() const override { return name_; }
    uint32_t occupancy() const override { return size(); }
    uint32_t channelCapacity() const override { return cap_; }
    /** Visibility delay in cycles — the PDES lookahead this cut buys. */
    uint32_t latency() const override { return delay_; }

    /** Message-loss fault: silently discard the head element. */
    bool
    faultDropHead() override
    {
        return kernel_.runAtomically([&] {
            require(size() > 0);
            uint32_t h = head_.read();
            head_.write(next(h));
            deqTotal_.write(deqTotal_.read() + 1);
        });
    }

    /** Latency fault: age the head element @p extraCycles more. */
    bool
    faultDelayHead(uint32_t extraCycles) override
    {
        return kernel_.runAtomically([&] {
            require(size() > 0);
            uint32_t h = head_.read();
            // Re-age from now if the element already matured, so the
            // delay is always observable.
            uint64_t base = ready_.read(h);
            uint64_t now = kernel_.cycleCount();
            if (now > base)
                base = now;
            ready_.write(h, base + extraCycles);
        });
    }

    // ---- probes (when() guards, testbenches)
    bool
    canEnq() const
    {
        return enqTotal_.readStable() - creditView(deqTotal_) < cap_;
    }
    bool
    canDeq() const
    {
        return enqTotalView() - deqTotal_.readStable() > 0 &&
               kernel_.cycleCount() >= readyView(head_.readStable());
    }
    /** Committed occupancy (same-side or testbench probes only). */
    uint32_t
    size() const
    {
        return static_cast<uint32_t>(enqTotal_.read() - deqTotal_.read());
    }
    /**
     * Occupancy as the consumer side may observe it: enqueues as of
     * `max(latency, 1)` cycles ago minus committed dequeues. Unlike
     * size() this is safe to read from the consumer's domain, and it
     * cannot go negative: the consumer can only have dequeued
     * elements whose ready stamp matured, i.e. enqueued at least
     * `latency` cycles ago — all counted in the lagged view.
     */
    uint32_t
    pending() const
    {
        return static_cast<uint32_t>(creditView(enqTotal_) -
                                     deqTotal_.read());
    }

    /** Enqueue; becomes visible @p delay cycles from now. */
    void
    enq(const T &v)
    {
        enqM();
        require(enqTotal_.readStable() - creditView(deqTotal_) < cap_);
        uint32_t t = tail_.readStable();
        data_.write(t, v);
        ready_.write(t, kernel_.cycleCount() + delay_);
        tail_.write(next(t));
        enqTotal_.write(enqTotal_.read() + 1);
    }

    /** Dequeue the oldest aged element. */
    T
    deq()
    {
        deqM();
        require(canDeq());
        uint32_t h = head_.readStable();
        T v = dataView(h);
        head_.write(next(h));
        deqTotal_.write(deqTotal_.read() + 1);
        return v;
    }

    /** Peek the oldest aged element. */
    T
    first()
    {
        firstM();
        require(canDeq());
        return dataView(head_.readStable());
    }

  private:
    /**
     * True when the calling context must take the cross-domain view:
     * the two sides landed in different domains AND a domain-bound
     * context is executing (between cycles, and under the sequential
     * schedulers, the start-of-cycle view is readStable()).
     */
    bool
    crossNow() const
    {
        return cross_ && detail::activeCtx &&
               detail::activeCtx->domainId != detail::kNoDomain;
    }

    // Cross views of the other side's state. The published/raw reads
    // bypass noteRead(), so the caller flags the attempt with
    // noteCrossRead(): a value that can change without a local commit
    // must keep the rule out of the sleep machinery.
    uint64_t
    enqTotalView() const
    {
        if (crossNow()) {
            detail::noteCrossRead();
            return enqTotal_.readPublished();
        }
        return enqTotal_.readStable();
    }
    /**
     * Credit-direction view of the other side's counter, lagged by
     * `max(latency, 1)` cycles for cross-domain fifos. For latency
     * <= 1 this is exactly the PR-2 start-of-cycle view (a delay-1
     * cross fifo caps the sync window at 1, so the published scalar
     * *is* the start-of-cycle value) and stays sleep-friendly. For
     * latency >= 2 the view ages like the data wire; it can flip a
     * guard true with no commit, so reading cycleCount() flags the
     * rule time-dependent and keeps it out of the sleep machinery.
     */
    uint64_t
    creditView(const EpochCounter &c) const
    {
        if (!cross_ || delay_ <= 1) {
            if (crossNow()) {
                detail::noteCrossRead();
                return c.readPublished();
            }
            return c.readStable();
        }
        uint64_t now = kernel_.cycleCount();
        uint64_t at = now > delay_ ? now - delay_ : 0;
        if (crossNow()) {
            detail::noteCrossRead();
            return c.readPublishedAt(at);
        }
        return c.readAt(at);
    }
    uint64_t
    readyView(uint32_t i) const
    {
        if (crossNow()) {
            detail::noteCrossRead();
            return ready_.readDirect(i);
        }
        return ready_.readStable(i);
    }
    T
    dataView(uint32_t i) const
    {
        if (crossNow()) {
            detail::noteCrossRead();
            return data_.readDirect(i);
        }
        return data_.readStable(i);
    }

    uint32_t next(uint32_t i) const { return i + 1 == cap_ ? 0 : i + 1; }

    Kernel &kernel_;
    std::string name_;
    uint32_t delay_;
    uint32_t cap_;
    bool cross_ = false; ///< endpoints in different domains (post-elab)
    alignas(detail::kCacheLine) RegArray<T> data_;
    alignas(detail::kCacheLine) RegArray<uint64_t> ready_;
    alignas(detail::kCacheLine) Reg<uint32_t> head_;
    alignas(detail::kCacheLine) Reg<uint32_t> tail_;
    /// monotonic totals; occupancy = difference. Each is written by
    /// exactly one side, which is what lets the sides commit
    /// domain-locally with no cross-domain merge. Epoch-stamped so
    /// credit views can be read as of `now - latency` under
    /// multi-cycle sync windows.
    alignas(detail::kCacheLine) EpochCounter enqTotal_;
    alignas(detail::kCacheLine) EpochCounter deqTotal_;
};

} // namespace cmd
