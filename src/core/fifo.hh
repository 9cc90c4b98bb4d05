/**
 * @file
 * The CMD FIFO library: the latency-insensitive glue of the paper.
 *
 * Three classic variants, distinguished only by their conflict
 * matrices (the implementation realizes whichever intra-cycle order
 * the CM permits, because rules that share a cycle execute
 * sequentially and later rules observe earlier commits):
 *
 *  - PipelineFifo: deq < enq. A full FIFO admits an enq in the same
 *    cycle as a deq; data spends at least one cycle in the FIFO.
 *  - BypassFifo:   enq < deq. An empty FIFO can be enqueued and
 *    dequeued in the same cycle (combinational bypass).
 *  - CfFifo:       enq CF deq. Both methods behave as if they saw the
 *    state at the start of the cycle; their effects commute. Used
 *    where two ends of a queue must not be coupled into any ordering
 *    (e.g. between independently scheduled subsystems).
 *
 * Guard probes (canEnq/canDeq/size/peekFirst) are plain combinational
 * reads for use in Rule::when() fast guards and testbenches; rule
 * bodies rely on the implicit guards of enq/deq/first via
 * cmd::require().
 */
#pragma once

#include <optional>

#include "core/kernel.hh"
#include "core/reg.hh"

namespace cmd {

/** CM flavor of a Fifo. */
enum class FifoKind {
    Pipeline,
    Bypass,
    Cf,
};

/**
 * A bounded FIFO of trivially copyable elements, exposed as a CMD
 * module with methods enq, deq, first, and clear.
 */
template <typename T>
class Fifo : public Module
{
  public:
    Fifo(Kernel &kernel, const std::string &name, uint32_t capacity,
         FifoKind kind)
        : Module(kernel, name, Conflict::C),
          enqM(method("enq")), deqM(method("deq")), firstM(method("first")),
          clearM(method("clear")), kind_(kind), cap_(capacity),
          data_(kernel, name + ".data", capacity),
          head_(kernel, name + ".head", 0),
          tail_(kernel, name + ".tail", 0),
          count_(kernel, name + ".count", 0)
    {
        if (capacity == 0)
            kfault(FaultKind::DesignError, this->name(),
                   "zero-capacity FIFO");
        if (kind == FifoKind::Cf && capacity < 2)
            warn("%s: CF FIFO of capacity 1 can never enq and deq "
                 "in the same cycle", this->name().c_str());
        switch (kind_) {
          case FifoKind::Pipeline:
            lt(deqM, enqM);
            lt(firstM, enqM);
            lt(firstM, deqM);
            break;
          case FifoKind::Bypass:
            lt(enqM, deqM);
            lt(enqM, firstM);
            lt(firstM, deqM);
            break;
          case FifoKind::Cf:
            cf(enqM, deqM);
            cf(enqM, firstM);
            cf(firstM, deqM);
            break;
        }
        selfCf(firstM);
        // clear defaults to C against everything (flush semantics).
    }

    uint32_t capacity() const { return cap_; }

    // ---- combinational probes (for when() guards and testbenches)
    bool canEnq() const { return guardCount() < cap_; }
    bool canDeq() const { return guardCount() > 0; }
    bool notEmpty() const { return canDeq(); }
    bool notFull() const { return canEnq(); }
    uint32_t size() const { return count_.read(); }

    /**
     * The element first() would return (the same readStable view on a
     * Cf fifo), or nothing while first() would fail its guard. Unlike
     * first() this is no method call, so a when() guard may use it.
     */
    std::optional<T>
    peekFirst() const
    {
        if (!canDeq())
            return std::nullopt;
        return headView();
    }

    // ---- interface methods
    /** Append an element; guarded by not-full. */
    void
    enq(const T &v)
    {
        enqM();
        require(guardCount() < cap_);
        uint32_t t = kind_ == FifoKind::Cf ? tail_.readStable()
                                           : tail_.read();
        data_.write(t, v);
        tail_.write(next(t));
        count_.write(count_.read() + 1);
    }

    /** Remove and return the oldest element; guarded by not-empty. */
    T
    deq()
    {
        deqM();
        require(guardCount() > 0);
        uint32_t h = kind_ == FifoKind::Cf ? head_.readStable()
                                           : head_.read();
        T v = kind_ == FifoKind::Cf ? data_.readStable(h) : data_.read(h);
        head_.write(next(h));
        count_.write(count_.read() - 1);
        return v;
    }

    /** The oldest element without removing it; guarded by not-empty. */
    T
    first()
    {
        firstM();
        require(guardCount() > 0);
        return headView();
    }

    /** Discard all contents (wrong-path flush). */
    void
    clear()
    {
        clearM();
        head_.write(0);
        tail_.write(0);
        count_.write(0);
    }

    Method &enqM, &deqM, &firstM, &clearM;

  private:
    uint32_t next(uint32_t i) const { return i + 1 == cap_ ? 0 : i + 1; }

    /** The head slot as first() sees it (no method call, no guard). */
    const T &
    headView() const
    {
        uint32_t h = kind_ == FifoKind::Cf ? head_.readStable()
                                           : head_.read();
        return kind_ == FifoKind::Cf ? data_.readStable(h) : data_.read(h);
    }

    uint32_t
    guardCount() const
    {
        return kind_ == FifoKind::Cf ? count_.readStable() : count_.read();
    }

    FifoKind kind_;
    uint32_t cap_;
    RegArray<T> data_;
    Reg<uint32_t> head_, tail_, count_;
};

template <typename T>
class PipelineFifo : public Fifo<T>
{
  public:
    PipelineFifo(Kernel &k, const std::string &name, uint32_t capacity)
        : Fifo<T>(k, name, capacity, FifoKind::Pipeline)
    {
    }
};

template <typename T>
class BypassFifo : public Fifo<T>
{
  public:
    BypassFifo(Kernel &k, const std::string &name, uint32_t capacity)
        : Fifo<T>(k, name, capacity, FifoKind::Bypass)
    {
    }
};

template <typename T>
class CfFifo : public Fifo<T>
{
  public:
    CfFifo(Kernel &k, const std::string &name, uint32_t capacity)
        : Fifo<T>(k, name, capacity, FifoKind::Cf)
    {
    }
};

} // namespace cmd
