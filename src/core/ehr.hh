/**
 * @file
 * Ehr<T>: an Ephemeral History Register (Rosenband, MEMOCODE'04).
 *
 * The paper builds modules with desired conflict matrices using EHRs:
 * port i of an EHR reads the value as updated by writes to ports < i
 * in the same cycle. In this embedded framework, cross-rule intra-
 * cycle forwarding already falls out of sequential rule execution, so
 * the Ehr's remaining job is *intra-rule* forwarding: within a single
 * atomic action, read(i) observes write(j, v) for j < i. This is how a
 * module implements a method pair whose net effect must be
 * read-after-write inside one action (e.g. a one-rule enq+deq).
 *
 * Ehrs are never domain-boundary state: intra-cycle forwarding is by
 * definition same-cycle coupling, so an EHR shared by two rules always
 * pulls them into one parallel-scheduler domain, and a cross-domain
 * EHR access is rejected at runtime like any other state element
 * (every read funnels through noteRead()). Cross-domain communication
 * goes through TimedFifo boundaries instead.
 */
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "core/kernel.hh"

namespace cmd {

template <typename T>
class Ehr : public StateBase
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Ehr<T> requires trivially copyable T");

  public:
    Ehr(Kernel &kernel, std::string name, uint32_t ports, T init = T{})
        : StateBase(kernel, std::move(name)), cur_(init), staged_(ports),
          valid_(ports, false)
    {
        // Clear in place: a copy of a cleared value need not carry its
        // zeroed padding (see Reg).
        detail::clearPadding(cur_);
        if (ports == 0 || ports > 16)
            kfault(FaultKind::DesignError, this->name(),
                   "unreasonable EHR port count %u", ports);
    }

    uint32_t ports() const { return static_cast<uint32_t>(staged_.size()); }

    /**
     * Read through port @p p: latest same-rule write to a port < p, or
     * the committed value.
     */
    const T &
    read(uint32_t p) const
    {
        noteRead();
        checkPort(p);
        for (uint32_t q = p; q-- > 0;) {
            if (valid_[q])
                return staged_[q];
        }
        return cur_;
    }

    /** Stage a write through port @p p (at most one per rule). */
    void
    write(uint32_t p, const T &v)
    {
        kernel_.checkWriteDomain(this); // first (see Reg::write)
        checkPort(p);
        if (valid_[p])
            kfault(FaultKind::DesignError, name(),
                   "double write on EHR port %u", p);
        if (!touched())
            kernel_.noteStateTouched(this);
        staged_[p] = v;
        detail::clearPadding(staged_[p]);
        valid_[p] = true;
    }

    void
    commitStaged() override
    {
        // Highest-numbered written port determines the final value.
        for (uint32_t q = ports(); q-- > 0;) {
            if (valid_[q]) {
                cur_ = staged_[q];
                break;
            }
        }
        std::fill(valid_.begin(), valid_.end(), false);
    }

    void
    abortStaged() override
    {
        std::fill(valid_.begin(), valid_.end(), false);
    }

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
        std::fill(valid_.begin(), valid_.end(), false);
    }

    size_t savedSize() const override { return sizeof(T); }

  private:
    bool
    touched() const
    {
        for (bool v : valid_) {
            if (v)
                return true;
        }
        return false;
    }

    void
    checkPort(uint32_t p) const
    {
        if (p >= staged_.size())
            kfault(FaultKind::DesignError, name(),
                   "EHR port %u out of range", p);
    }

    T cur_;
    std::vector<T> staged_;
    std::vector<bool> valid_;
};

} // namespace cmd
