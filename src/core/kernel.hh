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
 * ruleRelation() only produces C/</> for method pairs of one module,
 * and a shared module would have merged the two domains — so
 * domains may execute concurrently within a cycle without changing the
 * one-rule-at-a-time semantics, provided every cross-domain *read*
 * observes only start-of-cycle values. TimedFifo endpoints guarantee
 * that by construction (see timed_fifo.hh); any other cross-domain
 * access is a design error caught at runtime. See DESIGN.md
 * "Parallel execution" for the full argument.
 */
#pragma once

#include <algorithm>
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
class EpochCounter;

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
 *    failed an implicit guard or retried — conservatively stay awake,
 *    so the architectural state evolution is bit-identical to
 *    Exhaustive.
 *  - Parallel: the event-driven scheduler, run concurrently across the
 *    domains computed at elaboration on a persistent thread pool in
 *    which each thread runs a fixed set of domains, with barriers
 *    only at sync-window edges. Falls back to the sequential
 *    event-driven walk when the design partitions into a single
 *    domain. State evolution stays bit-identical to the other
 *    schedulers.
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

/**
 * Guard helper: abort the current rule unless @p cond holds. The
 * abort throws GuardFail, which costs an unwind; a rule that waits
 * often should say so in its when() guard or through retry().
 */
inline void
require(bool cond)
{
    if (!cond)
        throw GuardFail{};
}

/**
 * A latency-bearing channel as the kernel sees it (TimedFifo is the
 * one implementation; each fifo registers itself once, with
 * Kernel::registerChannel()). Its two endpoint modules are the
 * partitioner's cut; when they land in different domains, each side's
 * occupancy counter is published at every sync window start by the
 * thread that runs that side's domain, and the channel's latency
 * bounds the sync window. The watchdog dumps occupancies through it;
 * the fault injector drops or delays in-flight messages. The fault
 * methods must be called between cycles only — they mutate channel
 * state through an atomic action on the owning kernel.
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

  private:
    friend class Kernel;
    Module *enqEnd_ = nullptr; ///< producer endpoint (the cut's one side)
    Module *deqEnd_ = nullptr; ///< consumer endpoint
    /// the counter each side writes and the other side reads published
    EpochCounter *enqCount_ = nullptr;
    EpochCounter *deqCount_ = nullptr;
    bool *cross_ = nullptr; ///< set at elaboration: ends split?
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
 * thread after every cycle: an installed observer keeps the parallel
 * scheduler at one cycle per sync window (see Kernel::syncStride()).
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
        /// guard aborts that threw GuardFail (require() in the body)
        uint64_t guardThrows = 0;
        /// guard aborts through cmd::retry() (no throw)
        uint64_t retries = 0;
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
        /// ns the thread running this domain spent waiting at sync
        /// barriers for the other threads (the finish of its last
        /// domain to the barrier release); equal for the domains of
        /// one thread.
        uint64_t syncWaitNs = 0;
    };

    const char *scheduler = "exhaustive";
    uint64_t cycle = 0;
    uint32_t domains = 1;
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
    uint64_t sleeps = 0;
    uint64_t wakes = 0;
    /// bodies (rules and atomic actions) that aborted by a throw
    uint64_t guardThrows = 0;
    /// bodies that aborted through cmd::retry()
    uint64_t retries = 0;
    /// Retired: nothing sets it, so it always reads 0. It stays only
    /// because perfbench/perf_e2e.cc reads it.
    uint64_t fastGuardFails = 0;
    // Parallel-scheduler extras, filled only while the domain pool
    // runs (parallelActive()); threads == 0 otherwise:
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

/// Cache-line size: state one thread writes while another runs starts
/// on its own line, so the two threads never share one.
constexpr size_t kCacheLine = 64;

// Line-aligned: the contexts of neighbouring domains run on different
// threads and write their per-attempt fields at every attempt.
struct alignas(kCacheLine) ExecContext
{
    uint32_t domainId = kNoDomain;
    Kernel *kernel = nullptr; ///< owning kernel (fault-context capture)

    // Per-rule transaction state:
    bool inRule = false;
    /// the body called cmd::retry(): abort it once it returns
    bool retryRequested = false;
    const Rule *currentRule = nullptr;
    std::vector<StateBase *> touched;
    std::vector<Module *> touchedModules;
    /// stat updates of the body in flight (applied on commit)
    StatStage stats;

    // Read-set capture / cross-domain enforcement for the attempt:
    ReadMode readMode = ReadMode::Off;
    bool cycleRead = false;       ///< attempt read cycleCount()
    bool readOverflow = false;
    bool attemptCaptured = true;  ///< read set covers the whole attempt
    /// current attempt's dedup stamp, bumped per attempt. Contexts
    /// share the per-state readMark_ slots, so each draws from its own
    /// range (domain d + 1 in the top 16 bits, 0 for the main context)
    /// and marks never repeat across contexts or scheduler switches.
    uint64_t readMark = 0;
    std::vector<StateBase *> readSet;

    /// this context's rules, in global schedule order
    std::vector<Rule *> sched;
    /// cross-domain channel counters this domain writes; the thread
    /// that runs the domain publishes them at every window start
    std::vector<EpochCounter *> publishes;
    /// bitmap over sched positions of awake rules (the event wheel)
    std::vector<uint64_t> awakeBits;

    // Counters (Kernel::report() sums them across contexts):
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
    uint64_t sleeps = 0;
    uint64_t wakes = 0;
    uint64_t guardThrows = 0;
    uint64_t retries = 0;
    uint64_t fired = 0;
    uint64_t execNs = 0; ///< parallel mode: time inside domain cycles
    /// rules fired in the current sync window (summed at the barrier)
    uint32_t windowFired = 0;

    // Multi-cycle sync windows (parallel scheduler):
    /// this domain's simulated cycle inside the current window; the
    /// kernel-visible time for every rule running on this context
    uint64_t localCycle = 0;
    /// ns the thread running this domain spent idle at sync barriers
    uint64_t syncWaitNs = 0;
    /// monotonic timestamp when the thread running this domain
    /// finished its last domain of the window
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
 * Abort the current rule (or atomic action) without a throw: the body
 * returns normally, and the kernel then rolls it back exactly as it
 * rolls back a GuardFail (outcome GuardFalse). For a not-ready
 * condition that only the body can compute, such as "room in the
 * queue, but not for the group just decoded". A retry may only follow
 * checks with no effect outside the transaction: no host device call
 * and no observer hook (staged state and stats are rolled back).
 * Outside a rule or atomic action it raises KernelFault{ApiMisuse}.
 * Typical use: if (!q.canEnq(n)) { cmd::retry(); return; }
 */
inline void
retry()
{
    detail::ExecContext *c = detail::activeCtx;
    if (!c || !c->inRule)
        kfault(FaultKind::ApiMisuse, "kernel",
               "retry() outside a rule or atomic action");
    c->retryRequested = true;
}

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

    /** True if rule @p ruleId's closure holds this method. */
    bool
    declaredBy(uint32_t ruleId) const
    {
        if (declared_[0] == ruleId || declared_[1] == ruleId)
            return true;
        return !declaredMore_.empty() &&
               std::binary_search(declaredMore_.begin(),
                                  declaredMore_.end(), ruleId);
    }
    /** Append @p ruleId (larger than every id already listed). */
    void addDeclarer(uint32_t ruleId);

    Module &owner_;
    std::string name_;
    uint32_t localIdx_;
    uint32_t ownerId_; ///< owner_'s registration id (closure order)
    std::vector<const Method *> subcalls_;

    // The module CM, stored only here (written by Module::method()
    // and Module::setCm()); bit i stands for the method with local
    // index i:
    /// bits of same-module methods that, once fired earlier this
    /// cycle, make calling this method illegal (CM(i, this) is C or >).
    uint64_t illegalBeforeMask_ = 0;
    /// bits of same-module methods that may not be called by the same
    /// rule as this one (CM entry C).
    uint64_t intraConflictMask_ = 0;

    // Declaration lists, filled at elaboration: the ids of the rules
    // whose closure holds this method, ascending. Most methods belong
    // to one or two rules, so the first two ids are stored inline and
    // onMethodCall's check is one or two compares; the rest are in
    // declaredMore_ (binary-searched). A method no rule declares has
    // empty lists, and any rule calling it faults.
    static constexpr uint32_t kNoRule = ~0u;
    uint32_t declared_[2] = {kNoRule, kNoRule};
    std::vector<uint32_t> declaredMore_;
    /// closure-walk stamp (elaboration-local)
    mutable uint32_t visitMark_ = 0;
};

/**
 * Base class for CMD modules. A module owns state elements, declares
 * interface methods and their conflict matrix, and may register
 * internal rules.
 *
 * The conflict matrix defaults to @p defaultCm (C or CF; an LT/GT
 * default would declare both a<b and b<a and is a DesignError) for
 * distinct method pairs and to C for a method against itself (a method
 * may be called at most once per cycle unless declared selfCf()).
 * Declarations apply in program order: a later setCm() on a pair
 * overrides an earlier one, and a method declared after a setCm()
 * gets default entries against every existing method.
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

    /** Domain this module was assigned to (valid after elaborate()). */
    uint32_t domain() const { return domain_; }

  protected:
    /** Declare a new interface method. */
    Method &method(const std::string &name);

    /**
     * Set CM(a, b) = rel (and CM(b, a) = invert(rel)). A self entry
     * (a == b) must be C or CF; anything else is a DesignError.
     */
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

    /** Write CM(methods_[a], methods_[b]) = rel into both masks. */
    void writeCm(uint32_t a, uint32_t b, Conflict rel);
    /** Epoch-synchronize per-cycle masks. */
    void syncMasks();
    /** Record a tentative (current-rule) call of local method bit. */
    void noteRuleCall(uint64_t bit);

    Kernel &kernel_;
    std::string name_;
    Conflict defaultCm_;
    StatGroup stats_;

    std::deque<Method> methods_;

    // Per-cycle scheduling state (epoch-stamped, no per-cycle reset):
    uint64_t firedMask_ = 0;  ///< methods called by rules fired this cycle
    uint64_t firedEpoch_ = ~0ull;
    uint64_t ruleMask_ = 0;   ///< methods called by the rule in flight
    bool inRuleList_ = false; ///< registered on the kernel's touch list

    uint32_t id_ = 0; ///< registration index in Kernel::modules_

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
     * dispatching the body; a guard inside the body aborts it by
     * retry() (no throw) or require() (throws GuardFail). Put every
     * not-ready condition the guard can state exactly here: it runs
     * outside the rule, so it may read state and probes but call no
     * method. Under EventDriven a false guard sleeps on what it read.
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
    /// transitive method set as (method, declared ancestor) pairs,
    /// sorted by the method's owner module id so that the entries of
    /// one module are contiguous (see Kernel::ruleRelation())
    std::vector<std::pair<const Method *, const Method *>> closure_;
    bool enabled_ = true;
    uint32_t id_ = 0;
    Stat fired_, guardAborts_, cmAborts_;
    uint64_t guardThrows_ = 0; ///< guard aborts by a GuardFail throw
    uint64_t retries_ = 0;     ///< guard aborts by cmd::retry()
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
     * Finish construction: compute the rules' transitive method sets,
     * the rule-level "<" edges and the schedule order, verify there is no
     * combinational cycle, and partition the design into domains.
     * Must be called exactly once, before the first cycle(). Throws
     * ElaborationError on design errors.
     *
     * The cost follows closure entries, not rules squared: two rules
     * can only be ordered through a module both reach, so the "<" edges
     * come from a module -> rules index (elaboration-local) that
     * compares only rule pairs sharing a module, and only their entries
     * of that module. Each method keeps the list of rules that declare
     * it, for onMethodCall's declaration check.
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
     * no observer is installed (observers see cycleEnd() at every
     * cycle); 1 otherwise.
     */
    uint32_t
    syncStride() const
    {
        if (!parallelActive_ || obs_)
            return 1;
        return effectiveLookahead();
    }

    /**
     * Execute @p fn as an anonymous atomic action within the current
     * cycle — the testbench's way of poking a design. Obeys the same
     * CM and atomicity discipline as a rule (no uses-declaration
     * check). @return true if it committed, false if a guard failed.
     */
    bool runAtomically(const std::function<void()> &fn);

    /**
     * Rule-level CM entry of a before b, computed from the method
     * masks over the entries of the modules both closures reach.
     */
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

    /** Registered channels, in construction order (fault plans index
     *  into this list). */
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
     * Declare channel @p p, with producer endpoint @p enq and consumer
     * endpoint @p deq: the partitioner treats the two endpoints as
     * separate nodes (the cut), and after partitioning stores into
     * @p cross whether they landed in different domains. For a cut
     * channel, @p enqCount and @p deqCount (the counters each side
     * writes) are published at every sync window start by the thread
     * running the writing side's domain. Before elaboration only.
     */
    void registerChannel(ChannelPort &p, Module &enq, Module &deq,
                         EpochCounter &enqCount, EpochCounter &deqCount,
                         bool *cross);
    void unregisterChannel(ChannelPort *p);
    void onMethodCall(const Method &m);
    /**
     * Reject a write to @p s from a rule of another domain. Every
     * write path of a state element calls this before it reads any of
     * its own staging state, which belongs to the domain that owns it
     * and may be in use on another thread. Inline, below StateBase.
     */
    void checkWriteDomain(const StateBase *s);
    /** Register @p s with the transaction in flight (first write). */
    void noteStateTouched(StateBase *s); // inline, below StateBase
    bool
    inRule() const
    {
        detail::ExecContext *c = detail::activeCtx;
        return c && c->inRule;
    }
    /** Slow path of StateBase::noteRead(): capture a guard's read set
     *  or raise CrossDomain. */
    void noteStateRead(StateBase *s, detail::ExecContext &c);
    /** Out-of-line fault path of checkWriteDomain(). */
    void crossDomainTouchFault(const detail::ExecContext *c,
                               const StateBase *s);

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
     * (state and staged stats) if it completes, roll them back if it
     * fails a guard (a throw or a retry()) or is CM-blocked. Any other
     * exception is rethrown after the rollback.
     * @return Fired, GuardFalse or CmBlocked.
     */
    Rule::Outcome runTransaction(detail::ExecContext &c, Rule *r,
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

    // ---- domain partitioning + parallel driver internals
    void pushHint(const std::string &name);
    void popHint();
    /** Partition rules/modules/states into domains (at elaborate()). */
    void computeDomains();
    /** Point every rule at the context the current scheduler uses. */
    void bindContexts();
    /** Run a @p width cycle sync window on the domain pool. */
    uint32_t runParallelWindow(uint32_t width);
    /**
     * Thread @p t's share of one window: publish the counters its
     * domains write, meet the other threads at the publish barrier,
     * then run domains t, t + T, t + 2T, ... (T = pool threads).
     */
    void runThreadWindow(uint32_t t);
    void runDomainCycle(detail::ExecContext &c);
    /** @param seen starting generation, captured by the spawning
     *  thread before the first cycle's bump (see ensurePool());
     *  @param t the worker's thread index (1 .. T-1). */
    void workerMain(uint64_t seen, uint32_t t);
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

    using ClosureEntry = std::pair<const Method *, const Method *>;
    /**
     * Relation bits (kRelC/kRelLt/kRelGt in kernel.cc) of two rules'
     * closure entries [a0, a1) and [b0, b1), all of one module.
     */
    static uint8_t moduleRelation(const ClosureEntry *a0,
                                  const ClosureEntry *a1,
                                  const ClosureEntry *b0,
                                  const ClosureEntry *b1);

    std::vector<StateBase *> states_;
    std::vector<Module *> modules_;
    std::deque<Rule> rules_;
    std::vector<Rule *> rulePtrs_;
    std::vector<Rule *> schedule_;

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

    // Domain partitioning:
    std::vector<std::string> hintNames_{""}; ///< group names; [0] = root
    std::map<std::string, uint32_t> hintIds_;
    std::vector<uint32_t> hintStack_{0};
    /// every registered channel, in construction order
    std::vector<ChannelPort *> channels_;
    uint32_t domainCount_ = 1;
    bool parallelActive_ = false;
    /// resolved domain -> display name (hint groups; filled at elab)
    std::vector<std::string> domainNames_;

    // Hardening:
    /// faults raised inside worker threads, one slot per domain; the
    /// main thread rethrows the lowest-domain one after the barrier
    std::vector<std::exception_ptr> domainFaults_;

    // Worker pool (parallel scheduler):
    uint32_t threadsWanted_ = 0; ///< 0 = min(hw concurrency, domains)
    std::vector<std::thread> workers_;
    std::mutex poolMutex_;
    std::condition_variable poolCv_;
    std::atomic<uint64_t> startGen_{0};  ///< bumped to release a cycle
    std::atomic<bool> stopPool_{false};
    uint32_t poolThreads_ = 1; ///< T: the workers plus the driving thread
    std::atomic<uint32_t> publishedCount_{0}; ///< threads past publish
    std::atomic<uint32_t> doneCount_{0};      ///< workers finished
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
    if (!c || c->readMode == detail::ReadMode::Off)
        return;
    // A parallel body reading its own domain's state: nothing to
    // capture and nothing to reject.
    if (c->readMode == detail::ReadMode::Enforce && domain_ == c->domainId)
        return;
    kernel_.noteStateRead(const_cast<StateBase *>(this), *c);
}

inline void
Method::operator()() const
{
    owner_.kernel().onMethodCall(*this);
}

inline void
Kernel::checkWriteDomain(const StateBase *s)
{
    const detail::ExecContext *c = detail::activeCtx;
    if (c && c->domainId != detail::kNoDomain && s->domain_ != c->domainId)
        crossDomainTouchFault(c, s); // throws
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
    c->touched.push_back(s);
}

inline uint64_t
StateBase::kernelCycle() const
{
    return kernel_.currentCycle();
}

} // namespace cmd
