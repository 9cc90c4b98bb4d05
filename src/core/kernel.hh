/**
 * @file
 * The CMD (Composable Modular Design) execution kernel.
 *
 * This implements, as an embedded C++ framework, the design discipline
 * of "Composable Building Blocks to Open up Processor Design"
 * (Zhang, Wright, Bourgeat, Arvind — MICRO 2018):
 *
 *  - Modules expose *interface methods* that combinationally access
 *    and atomically update module-internal state.
 *  - Every method is *guarded*: calling a method whose guard is false
 *    aborts the calling rule, which then "does nothing".
 *  - Modules are composed by *rules* (atomic transactions) that call
 *    methods of several modules. A rule either updates all the called
 *    modules or none of them.
 *  - Intra-cycle concurrency is governed by each module's *Conflict
 *    Matrix* (CM): for two methods f1, f2 the CM entry is one of
 *    C (conflict: may not fire in the same cycle), < (net effect is
 *    f1-then-f2), > (net effect is f2-then-f1), or CF (conflict-free:
 *    order does not matter).
 *
 * Execution model. One call to Kernel::cycle() is one clock. Within a
 * cycle the scheduler attempts rules one-by-one in a fixed *schedule
 * order* computed at elaboration (a topological order of the
 * rule-level CM's "<" edges; a cycle of "<" edges is reported as a
 * combinational cycle, like the BSV compiler does). Because rules that
 * fire in the same cycle really do execute sequentially, the promise
 * that "the resulting behavior can always be expressed as executing
 * rules one-by-one" holds by construction; the CM machinery determines
 * *which* rules may share a cycle and in what order, i.e. it makes the
 * simulation cycle-faithful to the hardware the BSV compiler would
 * generate.
 *
 * Enforcement (the role the BSV compiler plays in the paper):
 *  - a rule may only call methods it declared with Rule::uses()
 *    (plus methods reachable through Method::subcalls());
 *  - a method call is *CM-legal* only if, for every method of the same
 *    module already called by a rule that fired earlier this cycle,
 *    the CM entry permits earlier-before-this (i.e. is "<" or CF);
 *    otherwise the calling rule is blocked out of this cycle;
 *  - two methods with a C entry may never be called by the same rule;
 *  - state written twice by one rule (through Reg and friends) is a
 *    design error (double write), as in BSV.
 *
 * State visibility. All state lives in Reg / RegArray / Ehr elements
 * (see reg.hh, ehr.hh). Reads performed by a rule see the values as of
 * the start of that rule; writes are journaled and commit only if the
 * rule fires. Hence "x <= y; y <= x" swaps, and an aborted rule leaves
 * no trace. A rule firing later in the same cycle sees the committed
 * effects of earlier rules — exactly the "<" semantics.
 *
 * Parallel execution (SchedulerKind::Parallel). At elaboration the
 * design is partitioned into *domains*: connected components of the
 * rule/module/state coupling graph, where edges that pass exclusively
 * through a TimedFifo are cut (the FIFO's latency is the PDES
 * lookahead). Cross-domain rule pairs are provably conflict-free —
 * computeRuleRelation() only produces C/</> for method pairs of one
 * module, and a shared module would have merged the two domains — so
 * domains may execute concurrently within a cycle without changing the
 * one-rule-at-a-time semantics, provided every cross-domain *read*
 * observes only start-of-cycle values. TimedFifo endpoints guarantee
 * that by construction (see timed_fifo.hh); any other cross-domain
 * access is a design error caught at runtime. See DESIGN.md
 * "Parallel execution" for the full argument.
 */
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/fault.hh"
#include "core/log.hh"
#include "core/stats.hh"

namespace cmd {

class Kernel;
class Module;
class Method;
class Rule;
class StateBase;

/** Conflict-matrix entry for a pair of methods (or rules). */
enum class Conflict : uint8_t {
    C,  ///< conflict: may not execute in the same cycle
    LT, ///< first < second: net effect is first-then-second
    GT, ///< first > second: net effect is second-then-first
    CF, ///< conflict-free: order does not affect the final state
};

/** Invert a CM entry (the relation seen from the other operand). */
Conflict invert(Conflict c);

/** Printable name of a CM entry. */
const char *toString(Conflict c);

/**
 * Rule-scheduling strategy of a Kernel.
 *
 *  - Exhaustive: attempt every enabled rule every cycle (the reference
 *    scheduler; what the seed kernel always did).
 *  - EventDriven: rules whose attempt ended in a false guard are put
 *    to sleep on the set of state elements they read; they are skipped
 *    until one of those elements is committed (by a firing rule or by
 *    runAtomically). Attempts whose read set cannot be captured
 *    exactly — read-set overflow, a guard that reads cycleCount(), a
 *    CM-blocked rule, a when() guard that passed but whose body then
 *    failed an implicit guard — conservatively stay awake, so the
 *    architectural state evolution is bit-identical to Exhaustive.
 *  - Parallel: the event-driven scheduler, run concurrently across the
 *    domains computed at elaboration on a persistent thread pool with
 *    a per-cycle barrier. Falls back to the sequential event-driven
 *    walk when the design partitions into a single domain. State
 *    evolution stays bit-identical to the other schedulers.
 *  - Compiled: retired. Kernel::setScheduler() rejects it with an
 *    ApiMisuse fault; the enumerator remains only so existing
 *    switches over SchedulerKind keep compiling.
 */
enum class SchedulerKind : uint8_t {
    Exhaustive,
    EventDriven,
    Parallel,
    Compiled, ///< retired; rejected by Kernel::setScheduler()
};

/** Printable name of a scheduler kind ("exhaustive", "event-driven", ...). */
const char *toString(SchedulerKind k);

/**
 * Thrown when a guard is false: the enclosing rule aborts and "does
 * nothing". This is the implicit-guard mechanism of CMD; raise it via
 * cmd::require().
 */
struct GuardFail
{
};

/**
 * Thrown when a method call would violate the conflict matrix given
 * the rules already fired this cycle: the rule is blocked out of this
 * cycle (it may fire on a later one). This corresponds to the BSV
 * scheduler refusing to fire two rules together.
 */
struct CmBlock
{
};

/** Raised on design errors detected at elaboration time. */
class ElaborationError : public std::runtime_error
{
  public:
    explicit ElaborationError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Guard helper: abort the current rule unless @p cond holds. */
inline void
require(bool cond)
{
    if (!cond)
        throw GuardFail{};
}

/**
 * Fault-injection and diagnostics hook of a latency-bearing channel
 * (TimedFifo registers one per fifo). The watchdog dumps occupancies
 * through it; the fault injector drops or delays in-flight messages.
 * The fault methods must be called between cycles only — they mutate
 * channel state through an atomic action on the owning kernel.
 */
class ChannelPort
{
  public:
    virtual ~ChannelPort() = default;

    virtual const std::string &channelName() const = 0;
    virtual uint32_t occupancy() const = 0;
    virtual uint32_t channelCapacity() const = 0;
    /** Silently discard the oldest in-flight message. @return dropped */
    virtual bool faultDropHead() = 0;
    /** Age the oldest message by @p extraCycles more. @return delayed */
    virtual bool faultDelayHead(uint32_t extraCycles) = 0;
    /**
     * Visibility delay in cycles. When the channel is a cross-domain
     * cut, this is its PDES lookahead contribution: the sync window
     * is the minimum latency over all cross-domain channels.
     */
    virtual uint32_t latency() const = 0;
};

/**
 * Observer of the kernel's fire/commit path — the hook layer the
 * observability subsystem (src/obs) plugs into. At most one observer
 * is installed per kernel; every hook site is a single null-pointer
 * check when no observer is installed.
 *
 * Threading contract: ruleFired runs on whichever thread executes
 * the rule — under SchedulerKind::Parallel that is the
 * domain's worker thread, so implementations must only touch state
 * owned by the rule's domain (@p domain is the rule's elaborated
 * domain, stable across schedulers). cycleEnd runs on the driving
 * thread between cycles.
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;

    /** @p r committed its effects this cycle. */
    virtual void ruleFired(const Rule &r, uint64_t cycle, uint32_t domain)
    {
        (void)r;
        (void)cycle;
        (void)domain;
    }
    /** End of Kernel::cycle(); @p fired rules committed in it. */
    virtual void cycleEnd(uint64_t cycle, uint32_t fired)
    {
        (void)cycle;
        (void)fired;
    }
    /**
     * Return false to let the parallel scheduler run multi-cycle sync
     * windows. When any installed observer needs cycleEnd() called at
     * every simulated cycle, the kernel clamps the sync stride to 1.
     * Inside a multi-cycle window cycleEnd() is NOT invoked for the
     * interior cycles; ruleFired still fires with exact per-domain
     * local cycle numbers.
     */
    virtual bool needsPerCycle() const { return true; }
};

/**
 * Machine-readable snapshot of the scheduler's progress state, built
 * from the per-rule outcome/counter state plus the per-context
 * scheduler counters; text() renders it for humans.
 */
struct KernelReport
{
    struct RuleLine
    {
        std::string name;
        const char *outcome; ///< toString(Rule::Outcome)
        uint64_t fired = 0;
        uint64_t guardAborts = 0;
        uint64_t cmAborts = 0;
        uint32_t domain = 0;
    };
    struct DomainLine
    {
        uint32_t id = 0;
        std::string name;
        uint64_t rules = 0;
        uint64_t attempts = 0;
        uint64_t fired = 0;
        uint64_t sleeps = 0;
        uint64_t wakes = 0;
        uint64_t sleepSkips = 0;
        uint64_t execNs = 0;
        /// ns this domain spent waiting at sync barriers for the
        /// other domains (window completion to barrier release).
        uint64_t syncWaitNs = 0;
    };

    const char *scheduler = "exhaustive";
    uint64_t cycle = 0;
    uint32_t domains = 1;
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
    uint64_t sleeps = 0;
    uint64_t wakes = 0;
    uint64_t guardThrows = 0;
    /// Retired: nothing sets it, so it always reads 0. It stays only
    /// because perfbench/perf_e2e.cc reads it.
    uint64_t fastGuardFails = 0;
    // Parallel-scheduler extras (threads == 0 otherwise):
    uint32_t threads = 0;
    uint64_t parallelCycles = 0;
    uint64_t barrierWaitNs = 0;
    /// Number of barrier synchronizations (== parallelCycles when the
    /// sync stride is 1; drops by the lookahead factor otherwise).
    uint64_t syncEpochs = 0;
    /// Effective sync window width in cycles (min cross-channel
    /// latency, possibly capped by setLookahead()).
    uint32_t lookahead = 1;
    std::vector<RuleLine> rules;
    std::vector<DomainLine> domainLines;

    /** One line per rule, then the scheduler counter lines. */
    std::string text() const;
};

namespace detail {
/**
 * Zero the padding bytes of a trivially copyable value. State elements
 * canonicalize every value they store so that byte-wise snapshots (and
 * the digests the lockstep cosim tests compare) are deterministic:
 * without this, struct padding carries whatever happened to be on the
 * stack when the value temporary was built.
 */
template <typename T>
inline void
clearPadding(T &v)
{
#if defined(__GNUC__) && __GNUC__ >= 11
    if constexpr (!std::has_unique_object_representations_v<T>)
        __builtin_clear_padding(&v);
#else
    (void)v;
#endif
}

/// Domain id of the main context: sequential schedulers and
/// between-cycle testbench actions run under it and are exempt from
/// cross-domain access enforcement.
constexpr uint32_t kNoDomain = ~0u;

/// A rule reading more than this many state elements in one attempt
/// overflows read-set capture and stays always-awake.
constexpr size_t kSensitivityCap = 64;

/** What StateBase::noteRead() does for the attempt in flight. */
enum class ReadMode : uint8_t {
    Off,     ///< nothing (exhaustive scheduler; bodies after when())
    Enforce, ///< cross-domain access check only (parallel bodies)
    Capture, ///< record the read set + cross-domain check
};

/**
 * Per-execution-context scheduler state: the transaction bookkeeping
 * of the rule attempt in flight plus one domain's slice of the
 * schedule, its event wheel, and its counters. Sequential schedulers
 * use a single context (Kernel::mainCtx_, domainId == kNoDomain);
 * the parallel scheduler runs one context per domain, each owned by
 * exactly one thread for the duration of a cycle.
 */
/// Depth of the per-context recently-fired ring buffer (watchdog
/// crash dumps show the merged tail of these).
constexpr uint32_t kFireRingSize = 64;

struct ExecContext
{
    uint32_t domainId = kNoDomain;
    Kernel *kernel = nullptr; ///< owning kernel (fault-context capture)

    // Per-rule transaction state:
    bool inRule = false;
    const Rule *currentRule = nullptr;
    std::vector<StateBase *> touched;
    std::vector<Module *> touchedModules;

    // Read-set capture / cross-domain enforcement for the attempt:
    ReadMode readMode = ReadMode::Off;
    bool cycleRead = false;       ///< attempt read cycleCount()
    bool readOverflow = false;
    bool attemptCaptured = true;  ///< read set covers the whole attempt
    uint64_t readMark = 0;        ///< current attempt's dedup stamp
    std::vector<StateBase *> readSet;

    /// this context's rules, in global schedule order
    std::vector<Rule *> sched;
    /// bitmap over sched positions of awake rules (the event wheel)
    std::vector<uint64_t> awakeBits;

    // Counters (Kernel::report() sums them across contexts):
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
    uint64_t sleeps = 0;
    uint64_t wakes = 0;
    uint64_t guardThrows = 0;
    uint64_t fired = 0;
    uint64_t execNs = 0;    ///< parallel mode: time inside domain cycles
    uint32_t lastFired = 0; ///< rules fired in the most recent cycle
    /// rules fired in the current sync window (summed at the barrier)
    uint32_t windowFired = 0;

    // Multi-cycle sync windows (parallel scheduler):
    /// this domain's simulated cycle inside the current window; the
    /// kernel-visible time for every rule running on this context
    uint64_t localCycle = 0;
    /// ns this domain spent finished-and-waiting at sync barriers
    uint64_t syncWaitNs = 0;
    /// monotonic timestamp when this domain finished its window
    uint64_t windowDoneNs = 0;

    /// Ring of the last kFireRingSize (rule, cycle) fires of this
    /// context, for watchdog/fault crash dumps. firePos counts total
    /// pushes; entry i lives at fireRing[i % kFireRingSize].
    std::array<std::pair<const Rule *, uint64_t>, kFireRingSize> fireRing{};
    uint64_t firePos = 0;

    void
    noteFired(const Rule *r, uint64_t cycle)
    {
        fireRing[firePos % kFireRingSize] = {r, cycle};
        firePos++;
    }

    void
    setAwakeBit(uint32_t pos)
    {
        awakeBits[pos >> 6] |= 1ull << (pos & 63);
    }
    void
    clearAwakeBit(uint32_t pos)
    {
        awakeBits[pos >> 6] &= ~(1ull << (pos & 63));
    }
    /** First awake schedule position >= @p from, or -1. */
    int64_t
    nextAwake(uint32_t from) const
    {
        size_t w = from >> 6;
        if (w >= awakeBits.size())
            return -1;
        uint64_t cur = awakeBits[w] & (~0ull << (from & 63));
        while (true) {
            if (cur)
                return int64_t((w << 6) + __builtin_ctzll(cur));
            if (++w >= awakeBits.size())
                return -1;
            cur = awakeBits[w];
        }
    }
    /** Size the event wheel to sched and mark every rule awake. */
    void
    resetWheel()
    {
        awakeBits.assign((sched.size() + 63) / 64, 0);
        for (uint32_t p = 0; p < sched.size(); p++)
            setAwakeBit(p);
    }
};

/// Execution context of the rule attempt (or atomic action) in flight
/// on this thread; null outside of one.
inline thread_local ExecContext *activeCtx = nullptr;

/** RAII scope setting detail::activeCtx. */
struct CtxScope
{
    explicit CtxScope(ExecContext *c) : prev(activeCtx) { activeCtx = c; }
    ~CtxScope() { activeCtx = prev; }
    CtxScope(const CtxScope &) = delete;
    CtxScope &operator=(const CtxScope &) = delete;
    ExecContext *prev;
};

/**
 * Mark the attempt in flight as having read a value that can change
 * without a local commit (a published cross-domain boundary value).
 * The rule then conservatively stays awake instead of sleeping on an
 * incomplete sensitivity set.
 */
inline void
noteCrossRead()
{
    if (ExecContext *c = activeCtx)
        c->attemptCaptured = false;
}

/** Spin-wait hint for barrier loops. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}
} // namespace detail

/**
 * RAII domain-partitioning hint: state elements, modules, and rules
 * constructed while a DomainHint is in scope are attributed to the
 * named group, and the partitioner starts from one node per group.
 * Groups are keyed by name within a kernel, so two scopes with the
 * same name (e.g. "hart0" opened once in the memory hierarchy and once
 * around the core) contribute to one group. Hints are only hints:
 * groups that turn out to share same-cycle state through a common
 * module are merged into one domain, and any coupling the partitioner
 * could not see (a direct cross-domain state access at runtime) is a
 * design error caught by the parallel scheduler's access checks.
 */
class DomainHint
{
  public:
    DomainHint(Kernel &kernel, const std::string &name);
    ~DomainHint();

    DomainHint(const DomainHint &) = delete;
    DomainHint &operator=(const DomainHint &) = delete;

  private:
    Kernel &kernel_;
};

/**
 * Base class for all state elements (registers, register arrays,
 * EHRs). Writes are staged during rule execution and either committed
 * or discarded when the rule ends; this is what makes rules atomic.
 */
class StateBase
{
  public:
    StateBase(Kernel &kernel, std::string name);
    virtual ~StateBase();

    StateBase(const StateBase &) = delete;
    StateBase &operator=(const StateBase &) = delete;

    const std::string &name() const { return name_; }

    /** Apply this rule's staged writes to the committed value. */
    virtual void commitStaged() = 0;
    /** Discard this rule's staged writes. */
    virtual void abortStaged() = 0;

    /** Append the committed value to a snapshot buffer. */
    virtual void save(std::vector<uint8_t> &out) const = 0;
    /** Restore the committed value from a snapshot buffer. */
    virtual void restore(const uint8_t *&in) = 0;
    /** Bytes save() appends; fixed for the element's lifetime. */
    virtual size_t savedSize() const = 0;

    /**
     * Latch the committed value for cross-domain readers. Called on
     * the main thread at every parallel cycle barrier for elements
     * registered with Kernel::registerMirror() (TimedFifo occupancy
     * counters); a no-op for everything else.
     */
    virtual void publishMirror() {}

    /**
     * Attribute this element to @p m's domain, overriding the
     * construction-scope hint. TimedFifo uses this to hand each of its
     * state elements to the producer- or consumer-side endpoint.
     */
    void setDomainOwner(Module *m) { domainOwner_ = m; }

  protected:
    /**
     * Record this element in the read set of the rule attempt in
     * flight. Every committed-value read path of a state element must
     * call this so the event-driven scheduler can compute sensitivity
     * sets; it is a load-and-branch when tracking is off. Under the
     * parallel scheduler it also rejects cross-domain accesses.
     */
    void noteRead() const;

    /**
     * Cycle count for journaling internals (readStable epochs). Not
     * recorded as a sensitivity: the cycle-skew it governs is handled
     * by the scheduler's commit-cycle check, whereas a *guard* that
     * genuinely depends on time must read Kernel::cycleCount() and
     * thereby stay awake.
     */
    uint64_t kernelCycle() const;

    Kernel &kernel_;

  private:
    friend class Kernel;

    std::string name_;
    uint32_t stateIdx_ = 0;       ///< position in Kernel::states_
    uint64_t readMark_ = 0;       ///< dedup stamp for read-set capture
    uint64_t lastCommitCycle_ = ~0ull;
    uint32_t waiterCompactAt_ = 8;
    /// sleeping rules sensitive to this element, with the sleep
    /// generation they subscribed under (stale entries are lazily
    /// dropped on wake or compaction)
    std::vector<std::pair<Rule *, uint64_t>> waiters_;

    // Domain partitioning (see Kernel::computeDomains()):
    uint32_t hintGroup_ = 0;        ///< hint group at construction
    Module *domainOwner_ = nullptr; ///< explicit owner (fifo endpoints)
    uint32_t domain_ = 0;           ///< resolved at elaboration
};

/**
 * An interface method of a module. Calling the method object records
 * the call with the kernel, which enforces declaration and CM
 * legality. The C++ member function implementing the method should
 * invoke this at its top, then check its guard with cmd::require().
 */
class Method
{
  public:
    /** Record a call to this method from the current rule. */
    void operator()() const;

    Module &owner() const { return owner_; }
    const std::string &name() const { return name_; }
    /** Fully qualified "module.method" name. */
    std::string fullName() const;
    uint32_t localIndex() const { return localIdx_; }

    /**
     * Declare that this method internally calls the given methods of
     * submodules. Used at elaboration to compute the transitive
     * method set of every rule, so that rule-level CM entries account
     * for methods hidden behind module boundaries.
     *
     * When two rules reach the same submodule through two *parent*
     * methods of one module, the parent's declared CM entry for that
     * method pair is authoritative and the submodule pair does not
     * contribute to the rule relation. This lets a module like the
     * paper's round-robin TwoGCD declare start CF getResult even
     * though each sub-GCD's start conflicts with its getResult: the
     * parent guarantees (dynamically) that concurrent calls touch
     * different sub-units, and the always-on runtime CM enforcement
     * still catches the cycles where they collide on one unit.
     */
    Method &subcalls(std::initializer_list<const Method *> ms);

  private:
    friend class Module;
    friend class Kernel;

    Method(Module &owner, std::string name, uint32_t localIdx);

    Module &owner_;
    std::string name_;
    uint32_t localIdx_;
    std::vector<const Method *> subcalls_;

    // Computed at elaboration from the module CM:
    /// bits of same-module methods that, once fired earlier this
    /// cycle, make calling this method illegal (CM entry C or >).
    uint64_t illegalBeforeMask_ = 0;
    /// bits of same-module methods that may not be called by the same
    /// rule as this one (CM entry C).
    uint64_t intraConflictMask_ = 0;
    /// per-rule declaration bitmap, indexed by rule id.
    std::vector<bool> usedByRule_;
};

/**
 * Base class for CMD modules. A module owns state elements, declares
 * interface methods and their conflict matrix, and may register
 * internal rules.
 *
 * The conflict matrix defaults to @p defaultCm for distinct method
 * pairs and to C for a method against itself (a method may be called
 * at most once per cycle unless declared selfCf()).
 */
class Module
{
  public:
    Module(Kernel &kernel, std::string name, Conflict defaultCm = Conflict::C);
    virtual ~Module();

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    Kernel &kernel() const { return kernel_; }
    const std::string &name() const { return name_; }

    /** Statistics group for this module. */
    StatGroup &stats() { return stats_; }

    /** Conflict-matrix entry for a pair of this module's methods. */
    Conflict cm(const Method &a, const Method &b) const;

    /** Domain this module was assigned to (valid after elaborate()). */
    uint32_t domain() const { return domain_; }

  protected:
    /** Declare a new interface method. */
    Method &method(const std::string &name);

    /** Set CM(a, b) = rel (and CM(b, a) = invert(rel)). */
    void setCm(const Method &a, const Method &b, Conflict rel);

    /** Sugar: a happens-before b when both fire in one cycle. */
    void lt(const Method &a, const Method &b) { setCm(a, b, Conflict::LT); }
    /** Sugar: a and b are conflict-free. */
    void cf(const Method &a, const Method &b) { setCm(a, b, Conflict::CF); }
    /** Sugar: a and b may not share a cycle. */
    void conflictPair(const Method &a, const Method &b)
    {
        setCm(a, b, Conflict::C);
    }
    /** Allow a to be called any number of times per cycle. */
    void selfCf(const Method &a) { setCm(a, a, Conflict::CF); }

  private:
    friend class Kernel;
    friend class Method;

    /** Epoch-synchronize per-cycle masks. */
    void syncMasks();
    /** Record a tentative (current-rule) call of local method bit. */
    void noteRuleCall(uint64_t bit);

    Kernel &kernel_;
    std::string name_;
    Conflict defaultCm_;
    StatGroup stats_;

    std::deque<Method> methods_;
    std::map<std::pair<uint32_t, uint32_t>, Conflict> cmOverride_;
    std::vector<Conflict> cmFlat_; // methods^2, filled at elaboration

    // Per-cycle scheduling state (epoch-stamped, no per-cycle reset):
    uint64_t firedMask_ = 0;  ///< methods called by rules fired this cycle
    uint64_t firedEpoch_ = ~0ull;
    uint64_t ruleMask_ = 0;   ///< methods called by the rule in flight
    bool inRuleList_ = false; ///< registered on the kernel's touch list

    // Domain partitioning:
    uint32_t hintGroup_ = 0;    ///< hint group at construction
    bool boundarySide_ = false; ///< a TimedFifo endpoint (cut point)
    uint32_t partNode_ = 0;     ///< union-find node (elaboration-local)
    uint32_t domain_ = 0;       ///< resolved at elaboration
};

/**
 * A rule: a guarded atomic action composing module methods. Rules are
 * created through Kernel::rule() and configured fluently.
 */
class Rule
{
  public:
    /**
     * Declare the methods this rule may call. Strict by default:
     * calling an undeclared method is a design error. Subcalls of
     * declared methods are implicitly included.
     */
    Rule &uses(std::initializer_list<const Method *> ms);
    /** Same, from a dynamically built list. */
    Rule &uses(const std::vector<const Method *> &ms);

    /**
     * Cheap explicit guard evaluated before attempting the body: the
     * exception-free exit. A false when() aborts the rule without
     * dispatching the body; a guard inside the body (require()) aborts
     * it by throwing GuardFail. Put the common not-ready conditions
     * here so the throwing path stays off the fast path.
     */
    Rule &when(std::function<bool()> guard);

    /** Enable or disable the rule at runtime (e.g. config variants). */
    Rule &setEnabled(bool e);

    const std::string &name() const { return name_; }
    bool enabled() const { return enabled_; }

    /** Number of cycles in which this rule fired. */
    uint64_t firedCount() const { return fired_.value(); }
    /** Aborts due to a false guard (explicit or implicit). */
    uint64_t guardAbortCount() const { return guardAborts_.value(); }
    /** Aborts due to CM conflicts with already-fired rules. */
    uint64_t cmAbortCount() const { return cmAborts_.value(); }

    /** What happened to this rule in the most recent cycle. */
    enum class Outcome : uint8_t {
        NotTried,
        Disabled,
        GuardFalse,
        CmBlocked,
        Fired,
        Sleeping, ///< skipped: asleep on its sensitivity set
    };
    Outcome lastOutcome() const { return last_; }

    /** True while the event-driven scheduler has this rule asleep. */
    bool asleep() const { return asleep_; }

    /** Position in the elaborated schedule (valid after elaborate();
     *  stable per-run id, used by the observability timeline). */
    uint32_t schedPos() const { return schedPos_; }

  private:
    friend class Kernel;

    Rule(Kernel &kernel, std::string name, std::function<void()> body);

    Kernel &kernel_;
    std::string name_;
    std::function<void()> body_;
    std::function<bool()> guard_;
    std::vector<const Method *> uses_;
    /// transitive method set as (method, declared ancestor) pairs
    std::vector<std::pair<const Method *, const Method *>> closure_;
    bool enabled_ = true;
    uint32_t id_ = 0;
    Stat fired_, guardAborts_, cmAborts_;
    Outcome last_ = Outcome::NotTried;

    // Event-driven scheduler bookkeeping:
    bool asleep_ = false;
    /// bumped on every sleep and wake; waiter entries carrying an old
    /// generation are stale and ignored
    uint64_t sleepGen_ = 0;
    uint32_t schedPos_ = 0; ///< position in Kernel::schedule_

    // Domain partitioning / context binding:
    uint32_t hintGroup_ = 0; ///< hint group at construction
    uint32_t domain_ = 0;    ///< resolved at elaboration
    /// context this rule currently executes under (set by binding)
    detail::ExecContext *ctx_ = nullptr;
    uint32_t ctxPos_ = 0; ///< position in ctx_->sched
};

/** Printable name of a rule outcome ("fired", "guard-false", ...). */
const char *toString(Rule::Outcome o);

/**
 * The simulation kernel: owns the rule schedule and drives cycles.
 * One Kernel is one clock domain; an entire multicore design lives in
 * a single kernel, as in the paper's FPGA prototype.
 */
class Kernel
{
  public:
    Kernel();
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Register a top-level rule. Rules execute in elaborated order. */
    Rule &rule(const std::string &name, std::function<void()> body);

    /**
     * Finish construction: materialize conflict matrices, compute
     * rule-level CM entries and the schedule order, verify there is no
     * combinational cycle, and partition the design into domains.
     * Must be called exactly once, before the first cycle(). Throws
     * ElaborationError on design errors.
     */
    void elaborate();
    bool elaborated() const { return elaborated_; }

    /** Execute one clock cycle. @return number of rules fired. */
    uint32_t cycle();

    /** Run @p n cycles. @return rules fired in total. */
    uint64_t run(uint64_t n);

    /**
     * Run until @p done returns true, at most @p maxCycles cycles.
     * @return true if @p done was satisfied.
     */
    bool runUntil(const std::function<bool()> &done, uint64_t maxCycles);

    /**
     * Current cycle number (count of completed/active cycles). Reads
     * from inside a tracked rule attempt mark the rule time-dependent,
     * which keeps it always-awake under the event-driven scheduler
     * (its guard can change with no state commit).
     */
    uint64_t
    cycleCount() const
    {
        detail::ExecContext *c = detail::activeCtx;
        if (c && c->readMode == detail::ReadMode::Capture)
            c->cycleRead = true;
        if (c && c->domainId != detail::kNoDomain)
            return c->localCycle;
        return cycle_;
    }

    /**
     * The simulated cycle as seen by the calling context: a domain
     * context inside a parallel sync window sees its own local cycle
     * (domains advance through the window independently); everywhere
     * else this is the global cycle counter. Unlike cycleCount() this
     * never marks the running attempt time-dependent — it is the
     * kernel-internal clock for commit stamps and observers.
     */
    uint64_t
    currentCycle() const
    {
        detail::ExecContext *c = detail::activeCtx;
        if (c && c->domainId != detail::kNoDomain)
            return c->localCycle;
        return cycle_;
    }

    /**
     * Select the rule-scheduling strategy. May be called at any point
     * between cycles (before or after elaboration); switching wakes
     * every rule so no stale sleep survives the previous strategy.
     * The retired Compiled kind raises ApiMisuse.
     */
    void setScheduler(SchedulerKind k);
    SchedulerKind scheduler() const { return sched_; }

    /**
     * Total execution threads (including the calling thread) the
     * parallel scheduler may use; 0 picks min(hardware concurrency,
     * domain count). With 1 the caller runs every domain itself —
     * same partitioned execution, no concurrency.
     */
    void setParallelThreads(uint32_t n);
    uint32_t parallelThreads() const { return threadsWanted_; }

    /** Number of domains the design partitioned into (post-elab). */
    uint32_t domainCount() const { return domainCount_; }
    /** Domain a rule was assigned to (valid after elaborate()). */
    uint32_t domainOf(const Rule &r) const { return r.domain_; }
    /** Human-readable name of a domain (its hint group, or "d<i>"). */
    const std::string &domainName(uint32_t d) const;
    /** True when cycles are currently executed by the domain pool. */
    bool parallelActive() const { return parallelActive_; }
    /** Time the driving thread spent waiting at sync-epoch barriers. */
    uint64_t barrierWaitNs() const { return barrierWaitNs_; }
    /** Barrier synchronizations performed by the parallel scheduler. */
    uint64_t syncEpochs() const { return syncEpochs_; }

    /**
     * Cap the parallel scheduler's sync window (lookahead) at @p n
     * cycles; 0 (the default) means "fifo-min": the minimum latency
     * over all cross-domain channels, computed at elaboration. The
     * effective window is always min(cap, fifo-min) — running past
     * fifo-min would let a domain observe cycles it must not see.
     */
    void setLookahead(uint32_t n) { lookahead_ = n; }
    uint32_t lookahead() const { return lookahead_; }
    /** Min cross-domain channel latency (1 when there is no cut). */
    uint32_t fifoMinLookahead() const { return fifoMinLookahead_; }
    /** The sync window actually used: min(cap, fifo-min), >= 1. */
    uint32_t
    effectiveLookahead() const
    {
        uint32_t w = fifoMinLookahead_;
        if (lookahead_ && lookahead_ < w)
            w = lookahead_;
        return w ? w : 1;
    }
    /**
     * Cycles run(n) may advance between barriers right now: the
     * effective lookahead when the domain pool drives execution and
     * no installed observer demands per-cycle hooks; 1 otherwise.
     */
    uint32_t
    syncStride() const
    {
        if (!parallelActive_ || (obs_ && obs_->needsPerCycle()))
            return 1;
        return effectiveLookahead();
    }

    /**
     * True when every domain of the last started parallel cycle has
     * finished its slice, i.e. the pool is parked between cycles.
     * After a barrier-timeout KernelFault, a caller that has unwedged
     * the stuck rule must poll this before running a sequential
     * scheduler: a straggler worker finishing its commit bookkeeping
     * must not overlap sequential execution.
     */
    bool parallelQuiesced() const
    {
        return parallelCycles_ == 0 ||
               doneCount_.load(std::memory_order_acquire) >= domainCount_;
    }

    /**
     * Wall-clock bound on one parallel cycle barrier; 0 disables. When
     * a worker fails to finish its domains within the budget the main
     * thread raises a KernelFault(Watchdog) naming the unfinished
     * domains instead of spinning forever — the stuck-worker detector.
     * After such a fault the pool stays wedged on the stuck rule until
     * it returns; a caller that unwedges it waits for
     * parallelQuiesced(), then continues on a sequential scheduler.
     */
    void setBarrierTimeoutNs(uint64_t ns) { barrierTimeoutNs_ = ns; }
    uint64_t barrierTimeoutNs() const { return barrierTimeoutNs_; }

    /**
     * When false, the driving thread only publishes mirrors and waits
     * at the barrier during parallel cycles; workers run every domain.
     * Keeps the driver responsive for timeout detection (and makes
     * stuck-worker tests deterministic).
     */
    void setParallelMainParticipates(bool p) { mainParticipates_ = p; }

    /**
     * Execute @p fn as an anonymous atomic action within the current
     * cycle — the testbench's way of poking a design. Obeys the same
     * CM and atomicity discipline as a rule (no uses-declaration
     * check). @return true if it committed, false if a guard failed.
     */
    bool runAtomically(const std::function<void()> &fn);

    /** Rule-level CM entry computed at elaboration (for tests). */
    Conflict ruleRelation(const Rule &a, const Rule &b) const;

    /** Rules in schedule order (valid after elaborate()). */
    const std::vector<Rule *> &scheduleOrder() const { return schedule_; }

    /** All rules in registration order. */
    const std::vector<Rule *> &rules() const { return rulePtrs_; }

    /** Snapshot all architectural state (between cycles only). */
    std::vector<uint8_t> snapshot() const;
    /** Restore a snapshot taken from the same elaborated design. */
    void restore(const std::vector<uint8_t> &snap);

    // ---- hardening hooks (see harden.hh)
    /** Registered state elements, in registration order. */
    uint32_t stateCount() const { return uint32_t(states_.size()); }
    StateBase *stateAt(uint32_t i) const { return states_[i]; }

    /**
     * Tell the kernel that @p s was mutated outside of any rule (a
     * fault injector flipping a bit between cycles): wakes the rules
     * sleeping on it and invalidates its stable-read epoch, so the
     * event-driven schedulers observe the new value exactly as they
     * would a committed write.
     */
    void pokeState(StateBase *s);

    /** Latency-bearing channels (TimedFifo registers one per fifo). */
    void registerChannel(ChannelPort *p);
    void unregisterChannel(ChannelPort *p);
    const std::vector<ChannelPort *> &channelPorts() const
    {
        return channels_;
    }

    /**
     * Structured crash-dump body: per-domain awake/fired counters, the
     * merged tail of the recently-fired rings, and every channel's
     * occupancy. Watchdog and KernelFault traces embed this.
     */
    std::string diagnosticReport() const;

    /**
     * Structured scheduler-progress report (per-rule outcomes and
     * counters, per-domain scheduler state); report().text() is the
     * human-readable rendering.
     */
    KernelReport report() const;

    /**
     * Install (or, with null, remove) the fire/commit-path observer.
     * At most one; the caller keeps ownership and must remove it
     * before destroying it. Install between cycles only.
     */
    void setObserver(KernelObserver *o) { obs_ = o; }
    KernelObserver *observer() const { return obs_; }

    /**
     * Reset every module's statistics group (counters + histograms;
     * formulas are recomputed on read). Supports warmup windows: run
     * N cycles, resetAllStats(), measure. Architectural state is
     * untouched.
     */
    void resetAllStats();

    // ---- framework-internal interface (used by Method/State/Module)
    void registerState(StateBase *s);
    void unregisterState(StateBase *s);
    void registerModule(Module *m);
    /**
     * Declare @p a / @p b as the producer/consumer endpoints of a
     * latency-bearing channel: the partitioner treats them as separate
     * nodes (the cut), and after partitioning stores into @p crossFlag
     * whether the two ends landed in different domains.
     */
    void registerBoundary(Module &a, Module &b, bool *crossFlag,
                          ChannelPort *chan = nullptr);
    /** Publish @p s to cross-domain readers at every cycle barrier. */
    void registerMirror(StateBase *s);
    void onMethodCall(const Method &m);
    void noteStateTouched(StateBase *s); // inline, below StateBase
    bool
    inRule() const
    {
        detail::ExecContext *c = detail::activeCtx;
        return c && c->inRule;
    }
    /** Slow path of StateBase::noteRead(). */
    void noteStateRead(StateBase *s, detail::ExecContext &c);
    /** Out-of-line fault path of noteStateTouched(). */
    void crossDomainTouchFault(detail::ExecContext *c, StateBase *s);

  private:
    friend class Module;
    friend class StateBase;
    friend class Rule;
    friend class DomainHint;

    /** Attempt one rule; commit or roll back. @return fired? */
    bool tryFire(detail::ExecContext &c, Rule &r);
    /**
     * Run @p body as one atomic transaction on @p c (@p r is the rule
     * it belongs to, null for an atomic action): commit its effects
     * if it completes, roll them back if it fails a guard or is
     * CM-blocked. Any other exception is rethrown after the rollback.
     * @return Fired, GuardFalse or CmBlocked.
     */
    Rule::Outcome runTransaction(detail::ExecContext &c, const Rule *r,
                                 const std::function<void()> &body);
    void commitRuleEffects(detail::ExecContext &c);
    void abortRuleEffects(detail::ExecContext &c);

    /** One event-driven walk of @p c's schedule. @return fired. */
    uint32_t runCtxCycle(detail::ExecContext &c);

    // ---- event-driven scheduler internals
    /** Sleep @p r on the attempt's read set if it was captured exactly. */
    void maybeSleep(detail::ExecContext &c, Rule &r);
    /** Wake every live waiter of @p s (called when @p s commits). */
    void wakeWaiters(StateBase *s);
    /** Subscribe @p r to @p s, compacting stale waiter entries. */
    void addWaiter(StateBase *s, Rule *r);
    /** Wake every rule and drop all waiter lists. */
    void wakeAll();
    /** Fresh kernel-unique read-set dedup stamp for one attempt. */
    uint64_t
    newReadMark()
    {
        return readMarkSrc_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    // ---- domain partitioning + parallel driver internals
    void pushHint(const std::string &name);
    void popHint();
    /** Partition rules/modules/states into domains (at elaborate()). */
    void computeDomains();
    /** Point every rule at the context the current scheduler uses. */
    void bindContexts();
    /** Run a @p width cycle sync window on the domain pool. */
    uint32_t runParallelWindow(uint32_t width);
    /** Claim and run unprocessed domains until none remain. */
    void runDomains();
    void runDomainCycle(detail::ExecContext &c);
    /** @param seen starting generation, captured by the spawning
     *  thread before the first cycle's bump (see ensurePool()). */
    void workerMain(uint64_t seen);
    void ensurePool();
    void stopWorkers();
    uint32_t effectiveThreads() const;

    /** Sum one counter over the main and every domain context. */
    uint64_t
    sumCtx(uint64_t detail::ExecContext::*counter) const
    {
        uint64_t total = mainCtx_.*counter;
        for (const detail::ExecContext &c : ctxs_)
            total += c.*counter;
        return total;
    }

    /** Compute the CM relation of rule a before rule b. */
    Conflict computeRuleRelation(const Rule &a, const Rule &b) const;

    std::vector<StateBase *> states_;
    std::vector<Module *> modules_;
    std::deque<Rule> rules_;
    std::vector<Rule *> rulePtrs_;
    std::vector<Rule *> schedule_;
    std::vector<Conflict> ruleCm_; // rules^2, flattened

    bool elaborated_ = false;
    uint64_t cycle_ = 0;
    KernelObserver *obs_ = nullptr;

    // Scheduler state:
    SchedulerKind sched_ = SchedulerKind::Exhaustive;
    /// context of the sequential schedulers and of between-cycle
    /// testbench actions (domainId == kNoDomain)
    detail::ExecContext mainCtx_;
    /// one context per domain (parallel scheduler); stable addresses
    std::deque<detail::ExecContext> ctxs_;
    /// kernel-unique source of read-set dedup stamps: contexts share
    /// the per-state readMark_ stamp slots, so marks must never repeat
    /// across contexts
    std::atomic<uint64_t> readMarkSrc_{0};

    // Domain partitioning:
    std::vector<std::string> hintNames_{""}; ///< group names; [0] = root
    std::map<std::string, uint32_t> hintIds_;
    std::vector<uint32_t> hintStack_{0};
    struct Boundary
    {
        Module *a;
        Module *b;
        bool *crossFlag;
        ChannelPort *chan; ///< latency source (null for non-channels)
    };
    std::vector<Boundary> boundaries_;
    std::vector<StateBase *> mirrors_;
    uint32_t domainCount_ = 1;
    bool parallelActive_ = false;
    /// resolved domain -> display name (hint groups; filled at elab)
    std::vector<std::string> domainNames_;

    // Hardening:
    std::vector<ChannelPort *> channels_;
    /// faults raised inside worker threads, one slot per domain; the
    /// main thread rethrows the lowest-domain one after the barrier
    std::vector<std::exception_ptr> domainFaults_;
    /// per-domain completion flags for the current parallel cycle
    /// (barrier-timeout dumps name the unfinished domains)
    std::unique_ptr<std::atomic<bool>[]> domainDone_;
    uint64_t barrierTimeoutNs_ = 0; ///< 0 = no stuck-worker detection
    bool mainParticipates_ = true;

    // Worker pool (parallel scheduler):
    uint32_t threadsWanted_ = 0; ///< 0 = min(hw concurrency, domains)
    std::vector<std::thread> workers_;
    std::mutex poolMutex_;
    std::condition_variable poolCv_;
    std::atomic<uint64_t> startGen_{0};  ///< bumped to release a cycle
    std::atomic<bool> stopPool_{false};
    std::atomic<uint32_t> claimCursor_{0}; ///< next unclaimed domain
    std::atomic<uint32_t> doneCount_{0};   ///< domains finished
    uint64_t barrierWaitNs_ = 0;
    uint64_t parallelCycles_ = 0;

    // Multi-cycle lookahead PDES:
    uint32_t lookahead_ = 0;         ///< user cap; 0 = fifo-min (auto)
    uint32_t fifoMinLookahead_ = 1;  ///< min cross-channel latency
    uint32_t windowWidth_ = 1;       ///< cycles in the released window
    uint64_t syncEpochs_ = 0;        ///< barrier synchronizations run
};

inline void
StateBase::noteRead() const
{
    detail::ExecContext *c = detail::activeCtx;
    if (c && c->readMode != detail::ReadMode::Off)
        kernel_.noteStateRead(const_cast<StateBase *>(this), *c);
}

inline void
Method::operator()() const
{
    owner_.kernel().onMethodCall(*this);
}

inline void
Kernel::noteStateTouched(StateBase *s)
{
    detail::ExecContext *c = detail::activeCtx;
    if (!c) {
        // Construction-time initialization outside any transaction;
        // swept up by the next main-context commit, as before.
        mainCtx_.touched.push_back(s);
        return;
    }
    if (c->domainId != detail::kNoDomain && s->domain_ != c->domainId)
        crossDomainTouchFault(c, s); // throws
    c->touched.push_back(s);
}

inline uint64_t
StateBase::kernelCycle() const
{
    return kernel_.currentCycle();
}

} // namespace cmd
