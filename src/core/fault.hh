/**
 * @file
 * KernelFault: the structured fault type of the hardening layer.
 *
 * Design and API errors inside src/core used to die on a raw panic()
 * (fprintf + abort), which left a wedged campaign run or a long
 * multicore simulation with nothing but a one-line message. Every such
 * site now raises a KernelFault instead: an exception carrying the
 * fault kind, the module/state it concerns, the rule and cycle it
 * happened under, and a recent-execution trace — uniform diagnostics
 * that end the run (System::run and HardenedRunner let every fault
 * propagate) and that a caller such as a fault campaign can catch,
 * classify and log. Resuming is an explicit checkpoint restore.
 *
 * The throwing helper kfault() is defined in kernel.cc so it can pull
 * the rule/cycle/trace context from the execution context that is
 * active on the calling thread; call sites only supply the kind, the
 * module (or state) name, and a printf-style message.
 */
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cmd {

/** Broad classification of a KernelFault. */
enum class FaultKind : uint8_t {
    DesignError, ///< the design violated CMD discipline (double write,
                 ///< undeclared method, conflicting calls, bad index)
    CrossDomain, ///< a rule touched another parallel domain's state
    ApiMisuse,   ///< framework API called out of phase (post-elab
                 ///< construction, nested atomics, ...)
    Watchdog,    ///< forward-progress watchdog trip (between cycles)
    Checkpoint,  ///< checkpoint serialization/restore failure
};

const char *toString(FaultKind k);

/** Execution context captured at the fault site (best effort). */
struct FaultContext {
    std::string module; ///< module/state the fault concerns ("" if n/a)
    std::string rule;   ///< rule in flight ("" outside any rule)
    uint64_t cycle = 0; ///< kernel cycle at the fault ( 0 pre-elab )
    uint32_t domain = ~0u; ///< executing domain (~0 = main context)
    std::string trace;  ///< structured diagnostics (recent fires, ...)
};

/**
 * The structured fault. what() is the one-line headline; describe()
 * appends the captured context and trace for crash dumps.
 */
class KernelFault : public std::runtime_error
{
  public:
    KernelFault(FaultKind kind, std::string message, FaultContext ctx);

    FaultKind kind() const { return kind_; }
    const std::string &message() const { return message_; }
    const FaultContext &context() const { return ctx_; }

    /** Multi-line crash-dump form: headline + context + trace. */
    std::string describe() const;

  private:
    static std::string headline(FaultKind kind, const std::string &msg,
                                const FaultContext &ctx);

    FaultKind kind_;
    std::string message_;
    FaultContext ctx_;
};

/**
 * Raise a KernelFault of @p kind about @p module, capturing the rule,
 * cycle, domain, and recent-fire trace of the execution context active
 * on this thread. Defined in kernel.cc.
 */
[[noreturn]] void kfault(FaultKind kind, const std::string &module,
                         const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace cmd
