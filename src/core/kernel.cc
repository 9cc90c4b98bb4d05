#include "core/kernel.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <set>
#include <sstream>

namespace cmd {

namespace {

uint64_t
nsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Conflict
invert(Conflict c)
{
    switch (c) {
      case Conflict::LT:
        return Conflict::GT;
      case Conflict::GT:
        return Conflict::LT;
      default:
        return c;
    }
}

const char *
toString(Conflict c)
{
    switch (c) {
      case Conflict::C:
        return "C";
      case Conflict::LT:
        return "<";
      case Conflict::GT:
        return ">";
      case Conflict::CF:
        return "CF";
    }
    return "?";
}

const char *
toString(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::Exhaustive:
        return "exhaustive";
      case SchedulerKind::EventDriven:
        return "event-driven";
      case SchedulerKind::Parallel:
        return "parallel";
      default: // the retired Compiled kind
        return "?";
    }
}

// -------------------------------------------------------------- KernelFault

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::DesignError:
        return "design-error";
      case FaultKind::CrossDomain:
        return "cross-domain";
      case FaultKind::ApiMisuse:
        return "api-misuse";
      case FaultKind::Watchdog:
        return "watchdog";
      case FaultKind::Checkpoint:
        return "checkpoint";
    }
    return "?";
}

std::string
KernelFault::headline(FaultKind kind, const std::string &msg,
                      const FaultContext &ctx)
{
    std::ostringstream os;
    os << "KernelFault[" << toString(kind) << "]";
    if (!ctx.module.empty())
        os << " " << ctx.module;
    os << ": " << msg;
    if (!ctx.rule.empty() || ctx.cycle) {
        os << " (";
        if (!ctx.rule.empty())
            os << "rule " << ctx.rule << ", ";
        os << "cycle " << ctx.cycle;
        if (ctx.domain != ~0u)
            os << ", domain " << ctx.domain;
        os << ")";
    }
    return os.str();
}

KernelFault::KernelFault(FaultKind kind, std::string message,
                         FaultContext ctx)
    : std::runtime_error(headline(kind, message, ctx)), kind_(kind),
      message_(std::move(message)), ctx_(std::move(ctx))
{
}

std::string
KernelFault::describe() const
{
    std::string out = what();
    if (!ctx_.trace.empty()) {
        out += '\n';
        out += ctx_.trace;
        if (out.back() != '\n')
            out += '\n';
    }
    return out;
}

void
kfault(FaultKind kind, const std::string &module, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);

    FaultContext ctx;
    ctx.module = module;
    if (detail::ExecContext *c = detail::activeCtx) {
        if (c->currentRule)
            ctx.rule = c->currentRule->name();
        ctx.domain = c->domainId;
        if (c->kernel)
            ctx.cycle = c->kernel->cycleCount();
        // Trace from the local fire ring only: it is owned by the
        // raising thread, so capture is safe even when other domains
        // are mid-cycle. Drivers that catch the fault between cycles
        // append Kernel::diagnosticReport() for the global picture.
        uint64_t n = std::min<uint64_t>(c->firePos, detail::kFireRingSize);
        if (n) {
            std::ostringstream os;
            os << "last " << n << " fires of this context (oldest first):\n";
            for (uint64_t i = c->firePos - n; i < c->firePos; i++) {
                const auto &e = c->fireRing[i % detail::kFireRingSize];
                os << "  @" << e.second << " " << e.first->name() << '\n';
            }
            ctx.trace = os.str();
        }
    }
    throw KernelFault(kind, buf, std::move(ctx));
}

// --------------------------------------------------------------- DomainHint

DomainHint::DomainHint(Kernel &kernel, const std::string &name)
    : kernel_(kernel)
{
    kernel_.pushHint(name);
}

DomainHint::~DomainHint()
{
    kernel_.popHint();
}

// ---------------------------------------------------------------- StateBase

StateBase::StateBase(Kernel &kernel, std::string name)
    : kernel_(kernel), name_(std::move(name))
{
    kernel_.registerState(this);
}

StateBase::~StateBase()
{
    kernel_.unregisterState(this);
}

// ------------------------------------------------------------------- Method

Method::Method(Module &owner, std::string name, uint32_t localIdx)
    : owner_(owner), name_(std::move(name)), localIdx_(localIdx)
{
}

std::string
Method::fullName() const
{
    return owner_.name() + "." + name_;
}

Method &
Method::subcalls(std::initializer_list<const Method *> ms)
{
    subcalls_.insert(subcalls_.end(), ms.begin(), ms.end());
    return *this;
}

// ------------------------------------------------------------------- Module

Module::Module(Kernel &kernel, std::string name, Conflict defaultCm)
    : kernel_(kernel), name_(std::move(name)), defaultCm_(defaultCm)
{
    kernel_.registerModule(this);
}

Module::~Module() = default;

Method &
Module::method(const std::string &name)
{
    if (kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, name_,
               "method '%s' declared after elaboration", name.c_str());
    if (methods_.size() >= 64)
        kfault(FaultKind::DesignError, name_,
               "more than 64 methods in one module");
    methods_.emplace_back(Method(*this, name,
                                 static_cast<uint32_t>(methods_.size())));
    return methods_.back();
}

void
Module::setCm(const Method &a, const Method &b, Conflict rel)
{
    if (kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, name_, "CM changed after elaboration");
    if (&a.owner() != this || &b.owner() != this)
        kfault(FaultKind::DesignError, name_, "CM entry for foreign method");
    cmOverride_[{a.localIndex(), b.localIndex()}] = rel;
    cmOverride_[{b.localIndex(), a.localIndex()}] = invert(rel);
}

Conflict
Module::cm(const Method &a, const Method &b) const
{
    auto it = cmOverride_.find({a.localIndex(), b.localIndex()});
    if (it != cmOverride_.end())
        return it->second;
    return a.localIndex() == b.localIndex() ? Conflict::C : defaultCm_;
}

void
Module::syncMasks()
{
    // currentCycle(), not cycleCount(): this is framework
    // bookkeeping, not a time-dependent guard read, so it must not
    // mark the rule cycle-sensitive — but it must see the domain's
    // local cycle inside a multi-cycle sync window, or the fired
    // masks would never reset between interior cycles.
    uint64_t now = kernel_.currentCycle();
    if (firedEpoch_ != now) {
        firedEpoch_ = now;
        firedMask_ = 0;
    }
}

void
Module::noteRuleCall(uint64_t bit)
{
    ruleMask_ |= bit;
}

// --------------------------------------------------------------------- Rule

Rule::Rule(Kernel &kernel, std::string name, std::function<void()> body)
    : kernel_(kernel), name_(std::move(name)), body_(std::move(body))
{
}

Rule &
Rule::uses(std::initializer_list<const Method *> ms)
{
    if (kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, name_, "uses() after elaboration");
    uses_.insert(uses_.end(), ms.begin(), ms.end());
    return *this;
}

Rule &
Rule::uses(const std::vector<const Method *> &ms)
{
    if (kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, name_, "uses() after elaboration");
    uses_.insert(uses_.end(), ms.begin(), ms.end());
    return *this;
}

Rule &
Rule::when(std::function<bool()> guard)
{
    guard_ = std::move(guard);
    return *this;
}

Rule &
Rule::setEnabled(bool e)
{
    enabled_ = e;
    // An enable/disable flip can change whether the rule may fire for
    // reasons no state commit will signal; drop any sleep.
    if (asleep_) {
        asleep_ = false;
        sleepGen_++;
        if (ctx_)
            ctx_->setAwakeBit(ctxPos_);
    }
    return *this;
}

// ------------------------------------------------------------------- Kernel

Kernel::Kernel()
{
    mainCtx_.kernel = this;
}

Kernel::~Kernel()
{
    stopWorkers();
}

void
Kernel::pushHint(const std::string &name)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, name,
               "DomainHint opened after elaboration");
    auto [it, fresh] =
        hintIds_.try_emplace(name, static_cast<uint32_t>(hintNames_.size()));
    if (fresh)
        hintNames_.push_back(name);
    hintStack_.push_back(it->second);
}

void
Kernel::popHint()
{
    // Raw panic, not KernelFault: called from ~DomainHint, and a throw
    // out of a destructor would terminate anyway.
    if (hintStack_.size() <= 1)
        panic("DomainHint scope underflow");
    hintStack_.pop_back();
}

void
Kernel::registerState(StateBase *s)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, s->name(),
               "state created after elaboration");
    s->stateIdx_ = static_cast<uint32_t>(states_.size());
    s->hintGroup_ = hintStack_.back();
    states_.push_back(s);
}

void
Kernel::unregisterState(StateBase *s)
{
    // Swap-and-pop via the stored index: teardown of a large design
    // must not be quadratic in the number of state elements.
    uint32_t i = s->stateIdx_;
    if (i >= states_.size() || states_[i] != s)
        return;
    states_[i] = states_.back();
    states_[i]->stateIdx_ = i;
    states_.pop_back();
}

void
Kernel::registerModule(Module *m)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, m->name(),
               "module created after elaboration");
    m->hintGroup_ = hintStack_.back();
    modules_.push_back(m);
}

void
Kernel::registerBoundary(Module &a, Module &b, bool *crossFlag,
                         ChannelPort *chan)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, a.name() + "/" + b.name(),
               "boundary registered after elaboration");
    a.boundarySide_ = true;
    b.boundarySide_ = true;
    boundaries_.push_back({&a, &b, crossFlag, chan});
}

void
Kernel::registerMirror(StateBase *s)
{
    mirrors_.push_back(s);
}

Rule &
Kernel::rule(const std::string &name, std::function<void()> body)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, name, "rule created after elaboration");
    rules_.emplace_back(Rule(*this, name, std::move(body)));
    rulePtrs_.push_back(&rules_.back());
    rules_.back().hintGroup_ = hintStack_.back();
    return rules_.back();
}

void
Kernel::onMethodCall(const Method &m)
{
    detail::ExecContext *c = detail::activeCtx;
    if (!c || !c->inRule)
        kfault(FaultKind::ApiMisuse, m.fullName(),
               "method called outside any rule or atomic action");

    Module &mod = m.owner_;
    // Cross-domain method calls are checked before any module state is
    // touched: a rule of one domain calling into another domain's
    // module means the partitioner was lied to (coupling the hints hid
    // from it), and continuing would race.
    if (c->domainId != detail::kNoDomain && mod.domain_ != c->domainId) {
        kfault(FaultKind::CrossDomain, m.fullName(),
               "called from domain %u but owned by domain %u: cross-domain "
               "coupling not visible to the partitioner",
               c->domainId, mod.domain_);
    }
    mod.syncMasks();
    uint64_t bit = 1ull << m.localIdx_;

    // Two conflicting methods inside one atomic action is a static
    // design error, not a scheduling outcome.
    if (mod.ruleMask_ & m.intraConflictMask_) {
        for (uint32_t i = 0; i < mod.methods_.size(); i++) {
            if ((mod.ruleMask_ & m.intraConflictMask_ & (1ull << i))) {
                kfault(FaultKind::DesignError, mod.name(),
                       "one rule calls conflicting methods %s and %s",
                       mod.methods_[i].fullName().c_str(),
                       m.fullName().c_str());
            }
        }
    }

    // CM legality versus rules that already fired this cycle: every
    // already-fired method n must satisfy CM(n, m) in {<, CF}.
    if (mod.firedMask_ & m.illegalBeforeMask_)
        throw CmBlock{};

    // Declaration check (the "compiler" check): a named rule may only
    // call methods in its declared closure.
    if (c->currentRule && !m.usedByRule_.empty() &&
        !m.usedByRule_[c->currentRule->id_]) {
        kfault(FaultKind::DesignError, m.fullName(),
               "called by a rule that did not declare it (add it to uses())");
    }

    if (!mod.inRuleList_) {
        mod.inRuleList_ = true;
        c->touchedModules.push_back(&mod);
    }
    mod.noteRuleCall(bit);
}

void
Kernel::crossDomainTouchFault(detail::ExecContext *c, StateBase *s)
{
    kfault(FaultKind::CrossDomain, s->name(),
           "written from domain %u but owned by domain %u: cross-domain "
           "coupling not visible to the partitioner",
           c->domainId, s->domain_);
}

void
Kernel::noteStateRead(StateBase *s, detail::ExecContext &c)
{
    // The domain check comes first: on a violation nothing may be
    // written (not even the dedup stamp), since the state genuinely
    // belongs to a concurrently executing domain.
    if (c.domainId != detail::kNoDomain && s->domain_ != c.domainId) {
        kfault(FaultKind::CrossDomain, s->name(),
               "read from domain %u but owned by domain %u: cross-domain "
               "reads must go through a TimedFifo boundary",
               c.domainId, s->domain_);
    }
    if (c.readMode != detail::ReadMode::Capture)
        return;
    if (s->readMark_ == c.readMark)
        return;
    s->readMark_ = c.readMark;
    if (c.readSet.size() >= detail::kSensitivityCap) {
        c.readOverflow = true;
        return;
    }
    c.readSet.push_back(s);
}

void
Kernel::commitRuleEffects(detail::ExecContext &c)
{
    uint64_t now = currentCycle();
    for (StateBase *s : c.touched) {
        s->commitStaged();
        s->lastCommitCycle_ = now;
        if (!s->waiters_.empty())
            wakeWaiters(s);
    }
    c.touched.clear();
    for (Module *m : c.touchedModules) {
        m->syncMasks();
        m->firedMask_ |= m->ruleMask_;
        m->ruleMask_ = 0;
        m->inRuleList_ = false;
    }
    c.touchedModules.clear();
}

void
Kernel::abortRuleEffects(detail::ExecContext &c)
{
    for (StateBase *s : c.touched)
        s->abortStaged();
    c.touched.clear();
    for (Module *m : c.touchedModules) {
        m->ruleMask_ = 0;
        m->inRuleList_ = false;
    }
    c.touchedModules.clear();
}

Rule::Outcome
Kernel::runTransaction(detail::ExecContext &c, const Rule *r,
                       const std::function<void()> &body)
{
    c.inRule = true;
    c.currentRule = r;
    Rule::Outcome out = Rule::Outcome::Fired;
    try {
        body();
    } catch (const GuardFail &) {
        c.guardThrows++;
        out = Rule::Outcome::GuardFalse;
    } catch (const CmBlock &) {
        out = Rule::Outcome::CmBlocked;
    } catch (...) {
        // A KernelFault (or foreign exception) escaping the body: roll
        // the transaction back so the design is left at its last
        // committed state, then let the driver classify the fault.
        c.inRule = false;
        c.currentRule = nullptr;
        abortRuleEffects(c);
        throw;
    }
    c.inRule = false;
    c.currentRule = nullptr;
    if (out == Rule::Outcome::Fired)
        commitRuleEffects(c);
    else
        abortRuleEffects(c);
    return out;
}

bool
Kernel::tryFire(detail::ExecContext &c, Rule &r)
{
    if (!r.enabled_) {
        r.last_ = Rule::Outcome::Disabled;
        return false;
    }
    c.attempts++;
    // The when() guard is the exception-free fast path for the common
    // not-ready exit: no body dispatch, no throw, no rollback work.
    if (r.guard_) {
        if (!r.guard_()) {
            r.last_ = Rule::Outcome::GuardFalse;
            r.guardAborts_.inc();
            return false;
        }
        // The guard passed: its reads are the captured sensitivity.
        // Body reads are not tracked — a body that now fails an
        // implicit guard has an incompletely captured read set and
        // stays awake (attemptCaptured false) — so firing bodies,
        // the common case for awake rules, pay no tracking cost.
        // Domain contexts keep enforcement on through the body.
        if (c.readMode == detail::ReadMode::Capture) {
            c.readMode = c.domainId != detail::kNoDomain
                             ? detail::ReadMode::Enforce
                             : detail::ReadMode::Off;
            c.attemptCaptured = false;
        }
    }

    r.last_ = runTransaction(c, &r, r.body_);
    switch (r.last_) {
      case Rule::Outcome::Fired:
        r.fired_.inc();
        c.noteFired(&r, currentCycle());
        if (obs_)
            obs_->ruleFired(r, currentCycle(), r.domain_);
        return true;
      case Rule::Outcome::GuardFalse:
        r.guardAborts_.inc();
        return false;
      default: // CmBlocked
        r.cmAborts_.inc();
        return false;
    }
}

bool
Kernel::runAtomically(const std::function<void()> &fn)
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, "kernel",
               "runAtomically() nested inside a rule");
    if (!elaborated_)
        kfault(FaultKind::ApiMisuse, "kernel",
               "runAtomically() before elaboration");
    detail::CtxScope scope(&mainCtx_);
    return runTransaction(mainCtx_, nullptr, fn) == Rule::Outcome::Fired;
}

uint32_t
Kernel::runCtxCycle(detail::ExecContext &c)
{
    // Walk the awake bitmap in schedule order. A rule woken by a
    // commit at a position we already passed is picked up next cycle;
    // one woken ahead of the cursor is attempted this cycle — exactly
    // the outcomes the exhaustive scan would produce. Re-scanning from
    // pos+1 each step makes the walk robust to the bit-clear (sleep)
    // and bit-set (wake) churn the attempt itself causes.
    uint32_t fired = 0;
    uint32_t visited = 0;
    int64_t pos = c.nextAwake(0);
    while (pos >= 0) {
        Rule *r = c.sched[pos];
        visited++;
        // Capture the read set of this attempt (guard and body).
        c.readMark = newReadMark();
        c.readSet.clear();
        c.readOverflow = false;
        c.cycleRead = false;
        c.attemptCaptured = true;
        c.readMode = detail::ReadMode::Capture;
        bool f = tryFire(c, *r);
        c.readMode = detail::ReadMode::Off;
        if (f)
            fired++;
        else if (r->last_ == Rule::Outcome::GuardFalse)
            maybeSleep(c, *r);
        pos = c.nextAwake(uint32_t(pos) + 1);
    }
    c.sleepSkips += c.sched.size() - visited;
    c.fired += fired;
    return fired;
}

uint32_t
Kernel::cycle()
{
    if (!elaborated_)
        kfault(FaultKind::ApiMisuse, "kernel", "cycle() before elaboration");
    cycle_++;
    uint32_t fired = 0;
    if (parallelActive_) {
        fired = runParallelWindow(1);
    } else {
        detail::CtxScope scope(&mainCtx_);
        if (sched_ == SchedulerKind::Exhaustive) {
            for (Rule *r : schedule_) {
                if (tryFire(mainCtx_, *r))
                    fired++;
            }
            mainCtx_.fired += fired;
        } else {
            fired = runCtxCycle(mainCtx_);
        }
    }
    // Between-cycles hook: every domain is quiesced here, so the
    // observer may read any module's state (the CPI probes do).
    if (obs_)
        obs_->cycleEnd(cycle_, fired);
    return fired;
}

// ------------------------------------------------- parallel cycle execution

uint32_t
Kernel::effectiveThreads() const
{
    uint32_t want = threadsWanted_
                        ? threadsWanted_
                        : std::max(1u, std::thread::hardware_concurrency());
    return std::min(want, domainCount_);
}

void
Kernel::setParallelThreads(uint32_t n)
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, "kernel",
               "setParallelThreads() inside a rule");
    threadsWanted_ = n;
    stopWorkers(); // the pool re-spawns at the right size next cycle
}

void
Kernel::ensurePool()
{
    uint32_t workersWanted = effectiveThreads() - 1;
    if (workers_.size() == workersWanted)
        return;
    stopWorkers();
    workers_.reserve(workersWanted);
    for (uint32_t i = 0; i < workersWanted; i++) {
        // Capture the generation on THIS thread, before the caller can
        // bump it for the first cycle. A worker that loaded its own
        // starting generation could observe the post-bump value and
        // park waiting for a cycle that is already in flight --
        // wedging the barrier on a cycle no worker will run.
        uint64_t gen = startGen_.load(std::memory_order_acquire);
        workers_.emplace_back([this, gen] { workerMain(gen); });
    }
}

void
Kernel::stopWorkers()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> g(poolMutex_);
        stopPool_.store(true, std::memory_order_release);
    }
    poolCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    stopPool_.store(false, std::memory_order_relaxed);
}

void
Kernel::runDomains()
{
    while (true) {
        // acq_rel: the acquire half pairs with the release store that
        // reset the cursor for this cycle, so even a thread that never
        // observed the startGen_ bump (a straggler from the previous
        // cycle) sees the new cycle_ and the published mirrors before
        // it runs a domain.
        uint32_t d = claimCursor_.fetch_add(1, std::memory_order_acq_rel);
        if (d >= domainCount_)
            return;
        try {
            runDomainCycle(ctxs_[d]);
        } catch (...) {
            // Park the fault (tryFire already rolled the rule back);
            // the main thread rethrows the lowest-domain one after the
            // barrier, so the surfaced fault is deterministic no
            // matter how threads interleaved.
            domainFaults_[d] = std::current_exception();
        }
        // Timestamp before the done-publication: the barrier release
        // reads it to account this domain's sync wait.
        ctxs_[d].windowDoneNs = uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        if (domainDone_)
            domainDone_[d].store(true, std::memory_order_release);
        doneCount_.fetch_add(1, std::memory_order_release);
    }
}

void
Kernel::runDomainCycle(detail::ExecContext &c)
{
    // Runs this domain through the whole sync window: windowWidth_
    // consecutive simulated cycles with no barrier in between. The
    // domain's kernel-visible time is c.localCycle; cross-domain
    // reads see the mirrors published at the window start, which the
    // latency-lagged TimedFifo views make indistinguishable from the
    // sequential start-of-cycle views (see timed_fifo.hh).
    detail::CtxScope scope(&c);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t base = cycle_ - windowWidth_;
    uint32_t winFired = 0;
    for (uint32_t k = 1; k <= windowWidth_; k++) {
        c.localCycle = base + k;
        c.lastFired = runCtxCycle(c);
        winFired += c.lastFired;
    }
    c.windowFired = winFired;
    c.execNs += nsSince(t0);
}

void
Kernel::workerMain(uint64_t seen)
{
    while (true) {
        uint64_t gen = seen;
        // Spin briefly — in steady state the next cycle begins within
        // microseconds — then park on the condition variable.
        for (uint32_t spins = 0; spins < 4096; spins++) {
            gen = startGen_.load(std::memory_order_acquire);
            if (gen != seen || stopPool_.load(std::memory_order_acquire))
                break;
            detail::cpuRelax();
        }
        if (gen == seen && !stopPool_.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> l(poolMutex_);
            poolCv_.wait(l, [&] {
                return startGen_.load(std::memory_order_relaxed) != seen ||
                       stopPool_.load(std::memory_order_relaxed);
            });
            gen = startGen_.load(std::memory_order_acquire);
        }
        if (stopPool_.load(std::memory_order_acquire))
            return;
        seen = gen;
        runDomains();
    }
}

uint32_t
Kernel::runParallelWindow(uint32_t width)
{
    // One sync epoch: every domain runs @p width consecutive cycles,
    // then all domains meet at a single barrier where the boundary
    // mirrors are re-published. cycle_ was already advanced past the
    // window by the caller; domains derive their per-cycle local
    // clocks from cycle_ - width + k. width may not exceed the
    // effective lookahead (min cross-channel latency), which is what
    // makes the window-start mirror views sufficient for every
    // cross-domain read inside the window.
    ensurePool();
    // Batched exchange: latch the boundary counters (scalar + epoch
    // history) every cross-domain consumer may read this window.
    // Published values stay frozen until the next barrier.
    for (StateBase *s : mirrors_)
        s->publishMirror();
    parallelCycles_ += width;
    syncEpochs_++;
    windowWidth_ = width;
    for (uint32_t d = 0; d < domainCount_; d++)
        domainDone_[d].store(false, std::memory_order_relaxed);
    doneCount_.store(0, std::memory_order_relaxed);
    claimCursor_.store(0, std::memory_order_release);
    {
        std::lock_guard<std::mutex> g(poolMutex_);
        startGen_.fetch_add(1, std::memory_order_release);
    }
    poolCv_.notify_all();
    if (mainParticipates_)
        runDomains();
    auto t0 = std::chrono::steady_clock::now();
    // The stuck-worker budget covers the whole window: a domain has
    // width cycles of work to finish before this barrier.
    uint64_t timeoutNs = barrierTimeoutNs_ * width;
    uint32_t spins = 0;
    while (doneCount_.load(std::memory_order_acquire) < domainCount_) {
        if (++spins < 1024) {
            detail::cpuRelax();
            continue;
        }
        std::this_thread::yield();
        if (timeoutNs && nsSince(t0) > timeoutNs) {
            // Stuck-worker detection: a domain failed to finish its
            // slice of the window within the budget. Name the
            // unfinished domains and fault instead of spinning
            // forever. The pool is left wedged on the stuck rule: a
            // caller that unwedges it waits for parallelQuiesced()
            // before running a sequential scheduler.
            barrierWaitNs_ += nsSince(t0);
            std::string stuck;
            for (uint32_t d = 0; d < domainCount_; d++) {
                if (!domainDone_[d].load(std::memory_order_acquire)) {
                    if (!stuck.empty())
                        stuck += ", ";
                    stuck += domainName(d);
                }
            }
            FaultContext fc;
            fc.module = "kernel";
            fc.cycle = cycle_;
            throw KernelFault(
                FaultKind::Watchdog,
                "parallel sync barrier timeout after " +
                    std::to_string(timeoutNs) + " ns (window " +
                    std::to_string(width) +
                    " cycles); unfinished domains: " + stuck,
                std::move(fc));
        }
    }
    barrierWaitNs_ += nsSince(t0);
    // Per-domain sync wait: time between a domain finishing its
    // window and the barrier releasing (all domains done) — the
    // imbalance cost report()/Perfetto surface per domain.
    uint64_t releaseNs = uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    for (detail::ExecContext &c : ctxs_) {
        if (releaseNs > c.windowDoneNs)
            c.syncWaitNs += releaseNs - c.windowDoneNs;
    }
    // Surface a worker-side fault, lowest domain first (deterministic
    // across interleavings). Barrier already reached: every other
    // domain completed its window normally. The faulting domain may
    // have stopped mid-window; cycle_ already counts the full window,
    // so the state is not a legal sync epoch. The fault ends the run;
    // a caller that resumes loads a sync-epoch checkpoint.
    for (uint32_t d = 0; d < domainCount_; d++) {
        if (domainFaults_[d]) {
            std::exception_ptr e = domainFaults_[d];
            for (uint32_t i = 0; i < domainCount_; i++)
                domainFaults_[i] = nullptr;
            std::rethrow_exception(e);
        }
    }
    uint32_t fired = 0;
    for (detail::ExecContext &c : ctxs_)
        fired += c.windowFired;
    return fired;
}

// ------------------------------------------------ event-driven internals

void
Kernel::maybeSleep(detail::ExecContext &c, Rule &r)
{
    // Conservative fallbacks: a rule stays always-awake when its
    // not-ready condition cannot be pinned to a captured read set —
    // a when() guard that passed but whose body then failed an
    // implicit guard (body reads are untracked), overflowed capture,
    // a time-dependent guard (cycleCount read), a read of a published
    // cross-domain value (noteCrossRead), or a guard that reads no
    // state at all (nothing would ever wake it, and the reads may
    // live outside the state discipline).
    if (!c.attemptCaptured || c.readOverflow || c.cycleRead ||
        c.readSet.empty())
        return;
    for (StateBase *s : c.readSet) {
        // An element committed earlier this cycle still presents its
        // start-of-cycle value through readStable(); the guard may
        // flip at the next cycle edge with no further commit, so
        // retry next cycle instead of sleeping. (Context-local cycle:
        // inside a parallel sync window "this cycle" is the domain's
        // local clock.)
        if (s->lastCommitCycle_ == currentCycle())
            return;
    }
    r.asleep_ = true;
    r.sleepGen_++;
    r.last_ = Rule::Outcome::Sleeping;
    c.sleeps++;
    c.clearAwakeBit(r.ctxPos_);
    for (StateBase *s : c.readSet)
        addWaiter(s, &r);
}

void
Kernel::addWaiter(StateBase *s, Rule *r)
{
    auto &w = s->waiters_;
    if (w.size() >= s->waiterCompactAt_) {
        auto stale = [](const std::pair<Rule *, uint64_t> &e) {
            return !e.first->asleep_ || e.first->sleepGen_ != e.second;
        };
        w.erase(std::remove_if(w.begin(), w.end(), stale), w.end());
        s->waiterCompactAt_ = std::max<size_t>(8, 2 * w.size() + 8);
    }
    w.emplace_back(r, r->sleepGen_);
}

void
Kernel::wakeWaiters(StateBase *s)
{
    // Waiters subscribed from the context that owns the state's
    // domain, so a wake touches only that context's wheel (or any
    // wheel, from the between-cycle main context).
    for (auto &[r, gen] : s->waiters_) {
        if (r->asleep_ && r->sleepGen_ == gen) {
            r->asleep_ = false;
            r->sleepGen_++;
            r->ctx_->setAwakeBit(r->ctxPos_);
            r->ctx_->wakes++;
        }
    }
    s->waiters_.clear();
    s->waiterCompactAt_ = 8;
}

void
Kernel::wakeAll()
{
    for (Rule *r : rulePtrs_) {
        if (r->asleep_) {
            r->asleep_ = false;
            r->sleepGen_++;
        }
    }
    for (StateBase *s : states_) {
        s->waiters_.clear();
        s->waiterCompactAt_ = 8;
    }
    mainCtx_.resetWheel();
    for (detail::ExecContext &c : ctxs_)
        c.resetWheel();
}

void
Kernel::bindContexts()
{
    parallelActive_ = sched_ == SchedulerKind::Parallel && domainCount_ > 1;
    if (parallelActive_) {
        for (detail::ExecContext &c : ctxs_) {
            for (uint32_t p = 0; p < c.sched.size(); p++) {
                c.sched[p]->ctx_ = &c;
                c.sched[p]->ctxPos_ = p;
            }
        }
    } else {
        for (uint32_t p = 0; p < schedule_.size(); p++) {
            schedule_[p]->ctx_ = &mainCtx_;
            schedule_[p]->ctxPos_ = p;
        }
    }
}

void
Kernel::setScheduler(SchedulerKind k)
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, "kernel",
               "setScheduler() inside a rule");
    if (k == SchedulerKind::Compiled)
        kfault(FaultKind::ApiMisuse, "kernel",
               "the compiled scheduler was removed; use EventDriven");
    sched_ = k;
    if (elaborated_)
        bindContexts();
    wakeAll();
}

uint64_t
Kernel::run(uint64_t n)
{
    // The multi-cycle lookahead driver: under the parallel scheduler
    // (and no per-cycle observer) advance in sync windows of up to
    // effectiveLookahead() cycles — one barrier per window instead of
    // one per cycle. Stops exactly at n. Sequential schedulers and
    // cycle()/runUntil() keep the per-cycle path.
    uint64_t fired = 0;
    uint64_t left = n;
    while (left > 0) {
        uint32_t stride = syncStride();
        if (stride <= 1) {
            fired += cycle();
            left--;
            continue;
        }
        if (!elaborated_)
            kfault(FaultKind::ApiMisuse, "kernel",
                   "run() before elaboration");
        uint64_t w = stride < left ? stride : left;
        cycle_ += w;
        uint32_t winFired = runParallelWindow(uint32_t(w));
        fired += winFired;
        // cycleEnd() is intentionally not invoked for window interior
        // cycles: syncStride() > 1 only when no installed observer
        // needs per-cycle hooks (KernelObserver::needsPerCycle()).
        if (obs_)
            obs_->cycleEnd(cycle_, winFired);
        left -= w;
    }
    return fired;
}

bool
Kernel::runUntil(const std::function<bool()> &done, uint64_t maxCycles)
{
    for (uint64_t i = 0; i < maxCycles; i++) {
        if (done())
            return true;
        cycle();
    }
    return done();
}

// -------------------------------------------------------------- elaboration

Conflict
Kernel::computeRuleRelation(const Rule &a, const Rule &b) const
{
    bool anyC = false, anyLt = false, anyGt = false;
    for (const auto &[ma, pa] : a.closure_) {
        for (const auto &[mb, pb] : b.closure_) {
            if (&ma->owner() != &mb->owner())
                continue;
            // A pair reached through two parent methods of one module
            // is governed by the parent's own CM entry (which the
            // outer loops also visit directly); skip the shadowed
            // submodule pair. See Method::subcalls().
            bool viaSubcall = pa != ma || pb != mb;
            if (viaSubcall && &pa->owner() == &pb->owner())
                continue;
            // The flat table elaborate() materialized (== owner().cm()).
            const Module &mod = ma->owner();
            Conflict rel = mod.cmFlat_[size_t(ma->localIndex()) *
                                           mod.methods_.size() +
                                       mb->localIndex()];
            switch (rel) {
              case Conflict::C:
                anyC = true;
                break;
              case Conflict::LT:
                anyLt = true;
                break;
              case Conflict::GT:
                anyGt = true;
                break;
              case Conflict::CF:
                break;
            }
        }
    }
    if (anyC || (anyLt && anyGt))
        return Conflict::C;
    if (anyLt)
        return Conflict::LT;
    if (anyGt)
        return Conflict::GT;
    return Conflict::CF;
}

void
Kernel::computeDomains()
{
    // Union-find over one node per hint group plus one node per
    // boundary endpoint module. Boundary endpoints start detached from
    // their construction scope — that detachment IS the cut: the only
    // way two endpoints of one TimedFifo end up in one domain is some
    // *other* shared module (or hint) joining their components.
    uint32_t nNodes = static_cast<uint32_t>(hintNames_.size());
    for (Module *m : modules_)
        m->partNode_ = m->boundarySide_ ? nNodes++ : m->hintGroup_;

    std::vector<uint32_t> uf(nNodes);
    std::iota(uf.begin(), uf.end(), 0u);
    auto find = [&uf](uint32_t x) {
        while (uf[x] != x) {
            uf[x] = uf[uf[x]]; // path halving
            x = uf[x];
        }
        return x;
    };
    auto unite = [&](uint32_t a, uint32_t b) {
        a = find(a);
        b = find(b);
        if (a != b)
            uf[std::max(a, b)] = std::min(a, b);
    };

    // A rule couples its construction scope with every module it can
    // reach through its method closure. Same-cycle coupling that does
    // not go through a method call (a rule directly reading a state
    // element) is covered because rules and the state they touch
    // directly share a construction scope; violations of that
    // convention are caught at runtime by the domain access checks.
    for (Rule *r : rulePtrs_) {
        for (const auto &[m, anc] : r->closure_)
            unite(r->hintGroup_, m->owner().partNode_);
    }

    // Densify components that contain rules into domain ids, in
    // schedule order so domain 0 holds the earliest-scheduled rule.
    constexpr uint32_t kUnassigned = ~0u;
    std::vector<uint32_t> domainOfRoot(nNodes, kUnassigned);
    domainCount_ = 0;
    for (Rule *r : schedule_) {
        uint32_t root = find(r->hintGroup_);
        if (domainOfRoot[root] == kUnassigned)
            domainOfRoot[root] = domainCount_++;
        r->domain_ = domainOfRoot[root];
    }
    if (domainCount_ == 0)
        domainCount_ = 1;

    auto domainOfNode = [&](uint32_t node) {
        uint32_t d = domainOfRoot[find(node)];
        return d == kUnassigned ? 0u : d;
    };
    for (Module *m : modules_)
        m->domain_ = domainOfNode(m->partNode_);
    for (StateBase *s : states_) {
        s->domain_ = s->domainOwner_ ? s->domainOwner_->domain_
                                     : domainOfNode(s->hintGroup_);
    }
    for (const Boundary &b : boundaries_)
        *b.crossFlag = b.a->domain_ != b.b->domain_;

    // One execution context per domain, each holding its slice of the
    // global schedule (relative order within a domain is preserved).
    ctxs_.clear();
    for (uint32_t d = 0; d < domainCount_; d++) {
        ctxs_.emplace_back();
        ctxs_.back().domainId = d;
        ctxs_.back().kernel = this;
    }
    for (Rule *r : schedule_)
        ctxs_[r->domain_].sched.push_back(r);
    mainCtx_.sched = schedule_;

    // Name each domain after the hint group of its earliest-scheduled
    // rule (watchdog dumps and barrier-timeout faults name domains).
    domainNames_.assign(domainCount_, "");
    for (Rule *r : schedule_) {
        std::string &nm = domainNames_[r->domain_];
        if (nm.empty()) {
            const std::string &hint = hintNames_[r->hintGroup_];
            nm = hint.empty() ? "d" + std::to_string(r->domain_) : hint;
        }
    }
    for (uint32_t d = 0; d < domainCount_; d++) {
        if (domainNames_[d].empty())
            domainNames_[d] = "d" + std::to_string(d);
    }

    // PDES lookahead: the sync window the parallel scheduler may run
    // between barriers is bounded by the minimum latency over all
    // channels whose endpoints landed in different domains. A
    // latency-0 cross-domain channel would make same-cycle traffic
    // cross the cut — it has no lookahead to give and would silently
    // degenerate every window to per-cycle sync, so it is a named
    // elaboration-time design error instead.
    fifoMinLookahead_ = ~0u;
    for (const Boundary &b : boundaries_) {
        if (!*b.crossFlag || !b.chan)
            continue;
        uint32_t lat = b.chan->latency();
        if (lat == 0) {
            FaultContext fc;
            fc.module = b.chan->channelName();
            throw KernelFault(
                FaultKind::DesignError,
                "cross-domain channel '" + b.chan->channelName() +
                    "' has latency 0 (cut " + domainName(b.a->domain_) +
                    " -> " + domainName(b.b->domain_) +
                    "): a domain boundary needs latency >= 1 to "
                    "provide PDES lookahead",
                std::move(fc));
        }
        if (lat < fifoMinLookahead_)
            fifoMinLookahead_ = lat;
    }
    if (fifoMinLookahead_ == ~0u)
        fifoMinLookahead_ = 1; // no cross cut: windows are trivial

    domainFaults_.assign(domainCount_, nullptr);
    domainDone_ = std::make_unique<std::atomic<bool>[]>(domainCount_);
    for (uint32_t d = 0; d < domainCount_; d++)
        domainDone_[d].store(false, std::memory_order_relaxed);
}

const std::string &
Kernel::domainName(uint32_t d) const
{
    static const std::string unknown = "?";
    return d < domainNames_.size() ? domainNames_[d] : unknown;
}

void
Kernel::elaborate()
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, "kernel", "elaborate() called twice");
    if (hintStack_.size() != 1)
        kfault(FaultKind::ApiMisuse, "kernel",
               "elaborate() inside an open DomainHint scope");

    // Materialize per-module method masks.
    for (Module *mod : modules_) {
        uint32_t n = static_cast<uint32_t>(mod->methods_.size());
        mod->cmFlat_.assign(size_t(n) * n, Conflict::CF);
        for (uint32_t i = 0; i < n; i++) {
            for (uint32_t j = 0; j < n; j++) {
                mod->cmFlat_[size_t(i) * n + j] =
                    mod->cm(mod->methods_[i], mod->methods_[j]);
            }
        }
        for (uint32_t j = 0; j < n; j++) {
            Method &m = mod->methods_[j];
            m.illegalBeforeMask_ = 0;
            m.intraConflictMask_ = 0;
            for (uint32_t i = 0; i < n; i++) {
                Conflict rel = mod->cmFlat_[size_t(i) * n + j];
                if (rel == Conflict::C || rel == Conflict::GT)
                    m.illegalBeforeMask_ |= 1ull << i;
                if (rel == Conflict::C)
                    m.intraConflictMask_ |= 1ull << i;
            }
        }
    }

    // Assign rule ids and compute transitive method closures.
    uint32_t nRules = static_cast<uint32_t>(rules_.size());
    for (uint32_t i = 0; i < nRules; i++)
        rulePtrs_[i]->id_ = i;
    for (Rule *r : rulePtrs_) {
        std::vector<std::pair<const Method *, const Method *>> work;
        for (const Method *m : r->uses_)
            work.emplace_back(m, m);
        r->closure_.clear();
        // Set-based dedup: the linear re-scan of closure_ this
        // replaces made elaboration quadratic in closure size for
        // large multicore configs.
        std::set<std::pair<const Method *, const Method *>> seen;
        while (!work.empty()) {
            auto [m, anc] = work.back();
            work.pop_back();
            if (!seen.insert({m, anc}).second)
                continue;
            r->closure_.push_back({m, anc});
            for (const Method *s : m->subcalls_)
                work.emplace_back(s, anc);
        }
    }

    // Fill the per-method declaration bitmaps.
    for (Module *mod : modules_) {
        for (Method &m : mod->methods_)
            m.usedByRule_.assign(nRules, false);
    }
    for (Rule *r : rulePtrs_) {
        for (const auto &[m, anc] : r->closure_)
            const_cast<Method *>(m)->usedByRule_[r->id_] = true;
    }

    // Rule-level CM and the "<" precedence graph.
    ruleCm_.assign(size_t(nRules) * nRules, Conflict::CF);
    std::vector<std::vector<uint32_t>> succ(nRules);
    std::vector<uint32_t> indeg(nRules, 0);
    for (uint32_t i = 0; i < nRules; i++) {
        for (uint32_t j = i + 1; j < nRules; j++) {
            Conflict rel = computeRuleRelation(*rulePtrs_[i], *rulePtrs_[j]);
            ruleCm_[size_t(i) * nRules + j] = rel;
            ruleCm_[size_t(j) * nRules + i] = invert(rel);
            if (rel == Conflict::LT) {
                succ[i].push_back(j);
                indeg[j]++;
            } else if (rel == Conflict::GT) {
                succ[j].push_back(i);
                indeg[i]++;
            }
        }
    }

    // Stable topological sort (registration order breaks ties). A
    // cycle of "<" edges is a combinational cycle.
    schedule_.clear();
    std::vector<bool> placed(nRules, false);
    for (uint32_t placedCount = 0; placedCount < nRules;) {
        bool progress = false;
        for (uint32_t i = 0; i < nRules; i++) {
            if (placed[i] || indeg[i] != 0)
                continue;
            placed[i] = true;
            placedCount++;
            progress = true;
            schedule_.push_back(rulePtrs_[i]);
            for (uint32_t j : succ[i])
                indeg[j]--;
        }
        if (!progress) {
            std::string names;
            for (uint32_t i = 0; i < nRules; i++) {
                if (!placed[i])
                    names += " " + rulePtrs_[i]->name();
            }
            throw ElaborationError(
                "combinational cycle among rules:" + names);
        }
    }

    for (uint32_t p = 0; p < schedule_.size(); p++)
        schedule_[p]->schedPos_ = p;

    computeDomains();
    bindContexts();
    wakeAll(); // seed the event wheels with every rule awake

    // schedPos_ is a stable per-run rule id consumed by the obs
    // timeline. It is assigned once
    // above; verify at elaboration end that no later pass (domain
    // partitioning, context binding, or a future reordering) left it
    // stale relative to the final schedule_.
    for (uint32_t p = 0; p < schedule_.size(); p++) {
        if (schedule_[p]->schedPos_ != p) {
            throw ElaborationError(
                "stale schedPos for rule " + schedule_[p]->name() +
                ": cached " + std::to_string(schedule_[p]->schedPos_) +
                " but final schedule position is " + std::to_string(p));
        }
    }

    elaborated_ = true;
}

Conflict
Kernel::ruleRelation(const Rule &a, const Rule &b) const
{
    if (!elaborated_)
        kfault(FaultKind::ApiMisuse, "kernel",
               "ruleRelation() before elaboration");
    return ruleCm_[size_t(a.id_) * rules_.size() + b.id_];
}

// ----------------------------------------------------------- hardening hooks

void
Kernel::pokeState(StateBase *s)
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, s->name(), "pokeState() inside a rule");
    // The element was mutated outside any rule (fault injection): the
    // sensitivity assumptions of rules sleeping on it no longer hold,
    // and any same-cycle stable-read epoch is stale.
    if (!s->waiters_.empty())
        wakeWaiters(s);
    s->lastCommitCycle_ = ~0ull;
}

void
Kernel::registerChannel(ChannelPort *p)
{
    channels_.push_back(p);
}

void
Kernel::unregisterChannel(ChannelPort *p)
{
    auto it = std::find(channels_.begin(), channels_.end(), p);
    if (it != channels_.end()) {
        *it = channels_.back();
        channels_.pop_back();
    }
}

std::string
Kernel::diagnosticReport() const
{
    std::ostringstream os;
    os << "kernel diagnostics @ cycle " << cycle_ << " (scheduler "
       << toString(sched_) << ", " << domainCount_ << " domain(s))\n";

    auto dumpCtx = [&](const detail::ExecContext &c, const std::string &who) {
        uint32_t awake = 0;
        for (uint64_t w : c.awakeBits)
            awake += uint32_t(__builtin_popcountll(w));
        os << who << ": rules=" << c.sched.size() << " awake=" << awake
           << " attempts=" << c.attempts << " fired=" << c.fired << '\n';
        // The awake set is what the scheduler still considers runnable;
        // in a livelock it is exactly the spinning rules.
        uint32_t listed = 0;
        for (uint32_t p = 0; p < c.sched.size() && listed < 8; p++) {
            if (c.awakeBits[p >> 6] & (1ull << (p & 63))) {
                os << "  awake: " << c.sched[p]->name() << " (last="
                   << c.sched[p]->firedCount() << " fires)\n";
                listed++;
            }
        }
        if (awake > listed)
            os << "  ... " << (awake - listed) << " more awake\n";
    };
    if (parallelActive_) {
        for (const detail::ExecContext &c : ctxs_) {
            dumpCtx(c, "domain " + std::to_string(c.domainId) + " (" +
                           domainName(c.domainId) + ")");
        }
    } else {
        dumpCtx(mainCtx_, "main");
    }

    // Merged tail of the recently-fired rings, ordered by cycle.
    std::vector<std::pair<uint64_t, const Rule *>> fires;
    auto gather = [&](const detail::ExecContext &c) {
        uint64_t n = std::min<uint64_t>(c.firePos, detail::kFireRingSize);
        for (uint64_t i = c.firePos - n; i < c.firePos; i++) {
            const auto &e = c.fireRing[i % detail::kFireRingSize];
            fires.emplace_back(e.second, e.first);
        }
    };
    gather(mainCtx_);
    for (const detail::ExecContext &c : ctxs_)
        gather(c);
    std::stable_sort(fires.begin(), fires.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    if (fires.size() > detail::kFireRingSize)
        fires.erase(fires.begin(), fires.end() - detail::kFireRingSize);
    if (!fires.empty()) {
        os << "last " << fires.size() << " rule fires (oldest first):\n";
        for (const auto &[cyc, r] : fires)
            os << "  @" << cyc << " " << r->name() << '\n';
    }

    for (const ChannelPort *p : channels_) {
        os << "channel " << p->channelName() << ": occupancy "
           << p->occupancy() << "/" << p->channelCapacity() << '\n';
    }
    return os.str();
}

std::vector<uint8_t>
Kernel::snapshot() const
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, "kernel", "snapshot() inside a rule");
    std::vector<uint8_t> out;
    out.resize(sizeof(cycle_));
    std::copy_n(reinterpret_cast<const uint8_t *>(&cycle_), sizeof(cycle_),
                out.begin());
    for (const StateBase *s : states_)
        s->save(out);
    return out;
}

void
Kernel::restore(const std::vector<uint8_t> &snap)
{
    if (inRule())
        kfault(FaultKind::ApiMisuse, "kernel", "restore() inside a rule");
    // Check the length before writing anything: a snapshot of another
    // design must leave this one untouched, not half overwritten (or
    // read past the end of a shorter buffer).
    size_t need = sizeof(cycle_);
    for (const StateBase *s : states_)
        need += s->savedSize();
    if (snap.size() != need)
        kfault(FaultKind::Checkpoint, "kernel",
               "snapshot size mismatch on restore (%zu bytes, design "
               "needs %zu)",
               snap.size(), need);
    const uint8_t *p = snap.data();
    std::copy_n(p, sizeof(cycle_), reinterpret_cast<uint8_t *>(&cycle_));
    p += sizeof(cycle_);
    for (StateBase *s : states_)
        s->restore(p);
    // Sleep bookkeeping does not survive a restore: every sensitivity
    // assumption was made against the overwritten state.
    wakeAll();
    for (StateBase *s : states_)
        s->lastCommitCycle_ = ~0ull;
    // Restore rewinds cycle_, so epoch stamps left by the pre-restore
    // run could collide with a replayed cycle number and present a
    // stale fired-mask to the CM check. Invalidate them all.
    for (Module *m : modules_) {
        m->firedEpoch_ = ~0ull;
        m->firedMask_ = 0;
        m->ruleMask_ = 0;
        m->inRuleList_ = false;
    }
}

const char *
toString(Rule::Outcome o)
{
    switch (o) {
      case Rule::Outcome::NotTried:
        return "not-tried";
      case Rule::Outcome::Disabled:
        return "disabled";
      case Rule::Outcome::GuardFalse:
        return "guard-false";
      case Rule::Outcome::CmBlocked:
        return "cm-blocked";
      case Rule::Outcome::Fired:
        return "fired";
      case Rule::Outcome::Sleeping:
        return "sleeping";
    }
    return "?";
}

KernelReport
Kernel::report() const
{
    KernelReport rep;
    rep.scheduler = toString(sched_);
    rep.cycle = cycle_;
    rep.domains = domainCount_;
    rep.attempts = sumCtx(&detail::ExecContext::attempts);
    rep.sleepSkips = sumCtx(&detail::ExecContext::sleepSkips);
    rep.sleeps = sumCtx(&detail::ExecContext::sleeps);
    rep.wakes = sumCtx(&detail::ExecContext::wakes);
    rep.guardThrows = sumCtx(&detail::ExecContext::guardThrows);
    rep.rules.reserve(schedule_.size());
    for (const Rule *r : schedule_) {
        KernelReport::RuleLine line;
        line.name = r->name();
        line.outcome = toString(r->last_);
        line.fired = r->firedCount();
        line.guardAborts = r->guardAbortCount();
        line.cmAborts = r->cmAbortCount();
        line.domain = r->domain_;
        rep.rules.push_back(std::move(line));
    }
    if (sched_ == SchedulerKind::Parallel) {
        rep.threads = effectiveThreads();
        rep.parallelCycles = parallelCycles_;
        rep.barrierWaitNs = barrierWaitNs_;
        rep.syncEpochs = syncEpochs_;
        rep.lookahead = effectiveLookahead();
        for (const detail::ExecContext &c : ctxs_) {
            KernelReport::DomainLine d;
            d.id = c.domainId;
            d.name = domainName(c.domainId);
            d.rules = c.sched.size();
            d.attempts = c.attempts;
            d.fired = c.fired;
            d.sleeps = c.sleeps;
            d.wakes = c.wakes;
            d.sleepSkips = c.sleepSkips;
            d.execNs = c.execNs;
            d.syncWaitNs = c.syncWaitNs;
            rep.domainLines.push_back(std::move(d));
        }
    }
    return rep;
}

std::string
KernelReport::text() const
{
    std::ostringstream os;
    for (const RuleLine &r : rules) {
        os << r.name << ": last=" << r.outcome << " fired=" << r.fired
           << " guardAborts=" << r.guardAborts << " cmAborts=" << r.cmAborts
           << '\n';
    }
    os << "scheduler: kind=" << scheduler << " domains=" << domains
       << " attempts=" << attempts << " sleepSkips=" << sleepSkips
       << " sleeps=" << sleeps << " wakes=" << wakes
       << " guardThrows=" << guardThrows << '\n';
    if (threads) {
        os << "parallel: threads=" << threads << " cycles=" << parallelCycles
           << " barrierWaitNs=" << barrierWaitNs
           << " syncEpochs=" << syncEpochs << " lookahead=" << lookahead;
        if (parallelCycles)
            os << " syncsPerCycle="
               << double(syncEpochs) / double(parallelCycles);
        os << '\n';
        for (const DomainLine &d : domainLines) {
            os << "domain " << d.id << ": rules=" << d.rules
               << " attempts=" << d.attempts << " fired=" << d.fired
               << " sleeps=" << d.sleeps << " wakes=" << d.wakes
               << " sleepSkips=" << d.sleepSkips << " execNs=" << d.execNs
               << " syncWaitNs=" << d.syncWaitNs << '\n';
        }
    }
    return os.str();
}

void
Kernel::resetAllStats()
{
    for (Module *m : modules_)
        m->stats().resetAll();
}

} // namespace cmd
