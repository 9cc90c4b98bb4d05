#include "core/kernel.hh"

#include "core/reg.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <numeric>
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

/** Monotonic timestamp in ns (sync-wait accounting). */
uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** Spin, then yield, until @p done() holds (the pool's barriers). */
template <typename Pred>
void
spinUntil(Pred done)
{
    for (uint32_t spins = 0; !done();) {
        if (++spins < 1024)
            detail::cpuRelax();
        else
            std::this_thread::yield();
    }
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
    : owner_(owner), name_(std::move(name)), localIdx_(localIdx),
      ownerId_(owner.id_)
{
}

void
Method::addDeclarer(uint32_t ruleId)
{
    if (declared_[0] == kNoRule)
        declared_[0] = ruleId;
    else if (declared_[1] == kNoRule)
        declared_[1] = ruleId;
    else
        declaredMore_.push_back(ruleId);
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
    // An LT/GT default would declare both a<b and b<a for every pair.
    if (defaultCm_ != Conflict::C && defaultCm_ != Conflict::CF)
        kfault(FaultKind::DesignError, name_,
               "default CM must be C or CF, not %s", toString(defaultCm_));
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
    uint32_t n = static_cast<uint32_t>(methods_.size());
    methods_.emplace_back(Method(*this, name, n));
    writeCm(n, n, Conflict::C);
    for (uint32_t i = 0; i < n; i++)
        writeCm(i, n, defaultCm_);
    return methods_.back();
}

void
Module::setCm(const Method &a, const Method &b, Conflict rel)
{
    if (kernel_.elaborated())
        kfault(FaultKind::ApiMisuse, name_, "CM changed after elaboration");
    if (&a.owner() != this || &b.owner() != this)
        kfault(FaultKind::DesignError, name_, "CM entry for foreign method");
    if (&a == &b && rel != Conflict::C && rel != Conflict::CF)
        kfault(FaultKind::DesignError, name_,
               "self CM entry for '%s' must be C or CF, not %s",
               a.name().c_str(), toString(rel));
    writeCm(a.localIndex(), b.localIndex(), rel);
}

void
Module::writeCm(uint32_t ai, uint32_t bi, Conflict rel)
{
    // CM(a, b) = rel lives in b's masks under a's bit; the mirrored
    // CM(b, a) = invert(rel) in a's masks under b's bit.
    Method &a = methods_[ai], &b = methods_[bi];
    uint64_t aBit = 1ull << ai, bBit = 1ull << bi;
    a.illegalBeforeMask_ &= ~bBit;
    a.intraConflictMask_ &= ~bBit;
    b.illegalBeforeMask_ &= ~aBit;
    b.intraConflictMask_ &= ~aBit;
    if (rel == Conflict::C) {
        a.illegalBeforeMask_ |= bBit;
        a.intraConflictMask_ |= bBit;
        b.illegalBeforeMask_ |= aBit;
        b.intraConflictMask_ |= aBit;
    } else if (rel == Conflict::GT) {
        b.illegalBeforeMask_ |= aBit;
    } else if (rel == Conflict::LT) {
        a.illegalBeforeMask_ |= bBit;
    }
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
    m->id_ = static_cast<uint32_t>(modules_.size());
    m->hintGroup_ = hintStack_.back();
    modules_.push_back(m);
}

void
Kernel::registerChannel(ChannelPort &p, Module &enq, Module &deq,
                        EpochCounter &enqCount, EpochCounter &deqCount,
                        bool *cross)
{
    if (elaborated_)
        kfault(FaultKind::ApiMisuse, p.channelName(),
               "channel registered after elaboration");
    enq.boundarySide_ = true;
    deq.boundarySide_ = true;
    p.enqEnd_ = &enq;
    p.deqEnd_ = &deq;
    p.enqCount_ = &enqCount;
    p.deqCount_ = &deqCount;
    p.cross_ = cross;
    channels_.push_back(&p);
}

void
Kernel::unregisterChannel(ChannelPort *p)
{
    channels_.erase(std::remove(channels_.begin(), channels_.end(), p),
                    channels_.end());
    for (detail::ExecContext &c : ctxs_) {
        std::vector<EpochCounter *> &v = c.publishes;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [p](EpochCounter *e) {
                                   return e == p->enqCount_ ||
                                          e == p->deqCount_;
                               }),
                v.end());
    }
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
    if (c->currentRule && !m.declaredBy(c->currentRule->id_)) {
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
Kernel::crossDomainTouchFault(const detail::ExecContext *c,
                              const StateBase *s)
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
    c.stats.apply();
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
    c.stats.drop();
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
Kernel::runTransaction(detail::ExecContext &c, Rule *r,
                       const std::function<void()> &body)
{
    c.inRule = true;
    c.retryRequested = false;
    c.currentRule = r;
    Rule::Outcome out = Rule::Outcome::Fired;
    detail::activeStats = &c.stats;
    try {
        body();
        if (c.retryRequested) {
            // cmd::retry(): the same rollback as a GuardFail, no throw.
            c.retries++;
            if (r)
                r->retries_++;
            out = Rule::Outcome::GuardFalse;
        }
    } catch (const GuardFail &) {
        c.guardThrows++;
        if (r)
            r->guardThrows_++;
        out = Rule::Outcome::GuardFalse;
    } catch (const CmBlock &) {
        out = Rule::Outcome::CmBlocked;
    } catch (...) {
        // A KernelFault (or foreign exception) escaping the body: roll
        // the transaction back so the design is left at its last
        // committed state, then let the driver classify the fault.
        detail::activeStats = nullptr;
        c.inRule = false;
        c.currentRule = nullptr;
        abortRuleEffects(c);
        throw;
    }
    detail::activeStats = nullptr;
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
        c.readMark++;
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
    poolThreads_ = workersWanted + 1;
    for (uint32_t t = 1; t <= workersWanted; t++) {
        // Capture the generation on THIS thread, before the caller can
        // bump it for the first cycle. A worker that loaded its own
        // starting generation could observe the post-bump value and
        // park waiting for a cycle that is already in flight --
        // wedging the barrier on a cycle no worker will run.
        uint64_t gen = startGen_.load(std::memory_order_acquire);
        workers_.emplace_back([this, gen, t] { workerMain(gen, t); });
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
    poolThreads_ = 1;
    stopPool_.store(false, std::memory_order_relaxed);
}

void
Kernel::runThreadWindow(uint32_t t)
{
    // Fixed packing: thread t always runs domains t, t + T, ..., so a
    // domain's state stays in one core's cache across windows. Within
    // a window cross-domain rules commute, so which thread runs which
    // domain cannot change a result.
    const uint32_t T = poolThreads_;
    // Owner publish: each cross-domain counter is latched by the
    // thread that runs the domain writing it, which is also the only
    // thread that committed to it in the last window.
    for (uint32_t d = t; d < domainCount_; d += T) {
        for (EpochCounter *e : ctxs_[d].publishes)
            e->publish();
    }
    // Publish barrier: no domain may read a published view before
    // every thread has latched its counters. The views then stay
    // frozen until the next window's publish, which the driving
    // thread releases only after every thread finished this one.
    publishedCount_.fetch_add(1, std::memory_order_acq_rel);
    spinUntil([&] {
        return publishedCount_.load(std::memory_order_acquire) == T;
    });
    for (uint32_t d = t; d < domainCount_; d += T) {
        try {
            runDomainCycle(ctxs_[d]);
        } catch (...) {
            // Park the fault (tryFire already rolled the rule back);
            // the main thread rethrows the lowest-domain one after the
            // barrier, so the surfaced fault is deterministic no
            // matter how threads interleaved.
            domainFaults_[d] = std::current_exception();
        }
    }
    // Every domain of this thread waits from here to the release: the
    // thread is idle, whichever of its domains ran last.
    uint64_t done = nowNs();
    for (uint32_t d = t; d < domainCount_; d += T)
        ctxs_[d].windowDoneNs = done;
}

void
Kernel::runDomainCycle(detail::ExecContext &c)
{
    // Runs this domain through the whole sync window: windowWidth_
    // consecutive simulated cycles with no barrier in between. The
    // domain's kernel-visible time is c.localCycle; cross-domain
    // reads see the channel counters published at the window start,
    // which the latency-lagged TimedFifo views make indistinguishable
    // from the sequential start-of-cycle views (see timed_fifo.hh).
    detail::CtxScope scope(&c);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t base = cycle_ - windowWidth_;
    uint32_t winFired = 0;
    for (uint32_t k = 1; k <= windowWidth_; k++) {
        c.localCycle = base + k;
        winFired += runCtxCycle(c);
    }
    c.windowFired = winFired;
    c.execNs += nsSince(t0);
}

void
Kernel::workerMain(uint64_t seen, uint32_t t)
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
        runThreadWindow(t);
        doneCount_.fetch_add(1, std::memory_order_release);
    }
}

uint32_t
Kernel::runParallelWindow(uint32_t width)
{
    // One sync epoch: every domain runs @p width consecutive cycles,
    // then all domains meet at a single barrier. cycle_ was already
    // advanced past the window by the caller; domains derive their
    // per-cycle local clocks from cycle_ - width + k. width may not
    // exceed the effective lookahead (min cross-channel latency),
    // which is what makes the window-start published views
    // sufficient for every cross-domain read inside the window.
    ensurePool();
    parallelCycles_ += width;
    syncEpochs_++;
    windowWidth_ = width;
    // Both barrier counters are reset before the release below: every
    // worker passed the last window's publish barrier and reported
    // done, so none still reads them.
    publishedCount_.store(0, std::memory_order_relaxed);
    doneCount_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> g(poolMutex_);
        startGen_.fetch_add(1, std::memory_order_release);
    }
    poolCv_.notify_all();
    runThreadWindow(0);
    auto t0 = std::chrono::steady_clock::now();
    spinUntil([&] {
        return doneCount_.load(std::memory_order_acquire) ==
               poolThreads_ - 1;
    });
    barrierWaitNs_ += nsSince(t0);
    // Per-domain sync wait: the idle time of the domain's thread, from
    // the finish of its last domain to the barrier release (all
    // threads done) — the imbalance cost report()/Perfetto surface.
    uint64_t releaseNs = nowNs();
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
    // (and no observer installed) advance in sync windows of up to
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
        // syncStride() > 1 only when no observer is installed.
        fired += runParallelWindow(uint32_t(w));
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

namespace {

// Rule-relation bits: some method pair of the two rules is C, <, >.
constexpr uint8_t kRelC = 1, kRelLt = 2, kRelGt = 4;

Conflict
relationOf(uint8_t bits)
{
    if ((bits & kRelC) || (bits & (kRelLt | kRelGt)) == (kRelLt | kRelGt))
        return Conflict::C;
    if (bits & kRelLt)
        return Conflict::LT;
    if (bits & kRelGt)
        return Conflict::GT;
    return Conflict::CF;
}

/** End of the run of entries of @p c's module that starts at @p i. */
size_t
moduleRunEnd(const std::vector<std::pair<const Method *, const Method *>> &c,
             size_t i)
{
    size_t e = i + 1;
    while (e < c.size() && &c[e].first->owner() == &c[i].first->owner())
        e++;
    return e;
}

} // namespace

uint8_t
Kernel::moduleRelation(const ClosureEntry *a0, const ClosureEntry *a1,
                       const ClosureEntry *b0, const ClosureEntry *b1)
{
    uint8_t bits = 0;
    for (const ClosureEntry *ea = a0; ea != a1; ea++) {
        const auto &[ma, pa] = *ea;
        for (const ClosureEntry *eb = b0; eb != b1; eb++) {
            const auto &[mb, pb] = *eb;
            // A pair reached through two parent methods of one module
            // is governed by the parent's own CM entry (which the
            // walk also visits directly); skip the shadowed submodule
            // pair. See Method::subcalls().
            bool viaSubcall = pa != ma || pb != mb;
            if (viaSubcall && &pa->owner() == &pb->owner())
                continue;
            // CM(ma, mb), read back from the method masks.
            uint64_t aBit = 1ull << ma->localIndex();
            if (mb->intraConflictMask_ & aBit)
                bits |= kRelC;
            else if (mb->illegalBeforeMask_ & aBit)
                bits |= kRelGt;
            else if (ma->illegalBeforeMask_ & (1ull << mb->localIndex()))
                bits |= kRelLt;
        }
    }
    return bits;
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
    // Read-set marks of context d start at (d + 1) << 48 (see
    // ExecContext::readMark); 16 bits hold every domain id.
    if (domainCount_ >= 0xffffu)
        kfault(FaultKind::DesignError, "kernel",
               "%u domains: at most 65534 supported", domainCount_);

    // One execution context per domain, each holding its slice of the
    // global schedule (relative order within a domain is preserved).
    ctxs_.clear();
    for (uint32_t d = 0; d < domainCount_; d++) {
        ctxs_.emplace_back();
        ctxs_.back().domainId = d;
        ctxs_.back().kernel = this;
        ctxs_.back().readMark = uint64_t(d + 1) << 48;
    }
    for (Rule *r : schedule_)
        ctxs_[r->domain_].sched.push_back(r);
    mainCtx_.sched = schedule_;

    // A channel whose two ends share a domain is sequential code
    // inside it: nothing reads its published views. For a cut
    // channel, the domain on each side publishes the counter it
    // writes.
    for (ChannelPort *p : channels_) {
        *p->cross_ = p->enqEnd_->domain_ != p->deqEnd_->domain_;
        if (*p->cross_) {
            ctxs_[p->enqEnd_->domain_].publishes.push_back(p->enqCount_);
            ctxs_[p->deqEnd_->domain_].publishes.push_back(p->deqCount_);
        }
    }

    // Name each domain after the hint group of its earliest-scheduled
    // rule (watchdog dumps and report() name domains).
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
    for (const ChannelPort *p : channels_) {
        if (!*p->cross_)
            continue;
        uint32_t lat = p->latency();
        if (lat == 0) {
            FaultContext fc;
            fc.module = p->channelName();
            throw KernelFault(
                FaultKind::DesignError,
                "cross-domain channel '" + p->channelName() +
                    "' has latency 0 (cut " +
                    domainName(p->enqEnd_->domain_) + " -> " +
                    domainName(p->deqEnd_->domain_) +
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

    // Assign rule ids and compute transitive method closures: one walk
    // per declared method, whose stamp ends subcall cycles and repeated
    // subcall paths. Each closure is then sorted by owner module id
    // (method, then ancestor, within a module), which also drops the
    // pairs a method declared twice repeats, and each of its methods
    // lists the rule (ascending, since rules go in id order).
    uint32_t nRules = static_cast<uint32_t>(rules_.size());
    for (uint32_t i = 0; i < nRules; i++)
        rulePtrs_[i]->id_ = i;
    auto key = [](const ClosureEntry &e) {
        auto id = [](const Method *m) {
            return (uint64_t(m->ownerId_) << 32) | m->localIdx_;
        };
        return std::pair(id(e.first), id(e.second));
    };
    std::vector<const Method *> work;
    uint32_t stamp = 0;
    for (Rule *r : rulePtrs_) {
        auto &c = r->closure_;
        c.clear();
        for (const Method *anc : r->uses_) {
            stamp++;
            work.assign(1, anc);
            while (!work.empty()) {
                const Method *m = work.back();
                work.pop_back();
                if (m->visitMark_ == stamp)
                    continue;
                m->visitMark_ = stamp;
                c.push_back({m, anc});
                work.insert(work.end(), m->subcalls_.begin(),
                            m->subcalls_.end());
            }
        }
        std::sort(c.begin(), c.end(),
                  [&](const ClosureEntry &x, const ClosureEntry &y) {
                      return key(x) < key(y);
                  });
        c.erase(std::unique(c.begin(), c.end()), c.end());
        for (size_t i = 0; i < c.size(); i++) {
            if (i == 0 || c[i].first != c[i - 1].first)
                const_cast<Method *>(c[i].first)->addDeclarer(r->id_);
        }
    }

    // The rule-level "<" precedence graph. A pair that shares no
    // module is CF, so only pairs that meet in some module are
    // compared, and only on that module's entries; relation bits
    // accumulate per partner over every module the pair shares.
    std::vector<std::vector<uint32_t>> succ(nRules);
    std::vector<uint32_t> indeg(nRules, 0);
    {
        // Module -> rules index (freed at the end of this block): for
        // each module, the rules whose closure reaches it, in id order,
        // each with the run of its closure entries for that module.
        struct Reach {
            uint32_t rule, begin, end;
        };
        std::vector<std::vector<Reach>> reach(modules_.size());
        for (Rule *r : rulePtrs_) {
            const auto &c = r->closure_;
            for (size_t i = 0; i < c.size();) {
                size_t e = moduleRunEnd(c, i);
                reach[c[i].first->ownerId_].push_back(
                    {r->id_, uint32_t(i), uint32_t(e)});
                i = e;
            }
        }
        // Rules are visited in id order, so rule i's entry in a reach
        // list sits at that list's cursor; its partners follow it.
        std::vector<uint32_t> cursor(modules_.size(), 0);
        std::vector<uint8_t> bits(nRules, 0);
        std::vector<uint32_t> partners;
        for (uint32_t i = 0; i < nRules; i++) {
            const auto &ca = rulePtrs_[i]->closure_;
            for (size_t run = 0; run < ca.size();) {
                size_t runEnd = moduleRunEnd(ca, run);
                uint32_t mod = ca[run].first->ownerId_;
                const std::vector<Reach> &list = reach[mod];
                for (size_t t = ++cursor[mod]; t < list.size(); t++) {
                    const Reach &b = list[t];
                    const ClosureEntry *cb =
                        rulePtrs_[b.rule]->closure_.data();
                    uint8_t rel =
                        moduleRelation(&ca[run], ca.data() + runEnd,
                                       cb + b.begin, cb + b.end);
                    if (rel && !bits[b.rule])
                        partners.push_back(b.rule);
                    bits[b.rule] |= rel;
                }
                run = runEnd;
            }
            for (uint32_t j : partners) {
                Conflict rel = relationOf(bits[j]);
                bits[j] = 0;
                if (rel == Conflict::LT) {
                    succ[i].push_back(j);
                    indeg[j]++;
                } else if (rel == Conflict::GT) {
                    succ[j].push_back(i);
                    indeg[i]++;
                }
            }
            partners.clear();
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
    // Both closures are sorted by owner module id: merge them and
    // compare only the runs of modules both rules reach.
    const auto &ca = a.closure_, &cb = b.closure_;
    uint8_t bits = 0;
    for (size_t i = 0, j = 0; i < ca.size() && j < cb.size();) {
        uint32_t ma = ca[i].first->ownerId_, mb = cb[j].first->ownerId_;
        if (ma < mb) {
            i++;
        } else if (mb < ma) {
            j++;
        } else {
            size_t ie = moduleRunEnd(ca, i), je = moduleRunEnd(cb, j);
            bits |= moduleRelation(&ca[i], ca.data() + ie, &cb[j],
                                   cb.data() + je);
            i = ie;
            j = je;
        }
    }
    return relationOf(bits);
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
    rep.retries = sumCtx(&detail::ExecContext::retries);
    rep.rules.reserve(schedule_.size());
    for (const Rule *r : schedule_) {
        KernelReport::RuleLine line;
        line.name = r->name();
        line.outcome = toString(r->last_);
        line.fired = r->firedCount();
        line.guardAborts = r->guardAbortCount();
        line.cmAborts = r->cmAbortCount();
        line.guardThrows = r->guardThrows_;
        line.retries = r->retries_;
        line.domain = r->domain_;
        rep.rules.push_back(std::move(line));
    }
    // Only a running domain pool has parallel extras: a one-domain
    // Parallel kernel executes on the main context like EventDriven.
    if (parallelActive_) {
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
           << " guardThrows=" << r.guardThrows << " retries=" << r.retries
           << '\n';
    }
    os << "scheduler: kind=" << scheduler << " domains=" << domains
       << " attempts=" << attempts << " sleepSkips=" << sleepSkips
       << " sleeps=" << sleeps << " wakes=" << wakes
       << " guardThrows=" << guardThrows << " retries=" << retries << '\n';
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
