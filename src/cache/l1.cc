#include "cache/l1.hh"

#include "isa/exec.hh"

namespace riscy {

using namespace cmd;

L1Cache::L1Cache(Kernel &k, const std::string &name, const Config &cfg,
                 CacheChannel &chan)
    : Module(k, name, Conflict::CF),
      reqLdM(method("reqLd")), reqStM(method("reqSt")),
      reqAtomicM(method("reqAtomic")), respLdM(method("respLd")),
      respStM(method("respSt")), writeDataM(method("writeData")),
      respAtomicM(method("respAtomic")),
      prefetchHintM(method("prefetchHint")),
      cfg_(cfg), sets_(cfg.sizeKb * 1024 / kLineBytes / cfg.ways),
      ways_(cfg.ways), chan_(chan),
      tags_(k, name + ".tags", sets_ * ways_, 0),
      state_(k, name + ".state", sets_ * ways_,
             static_cast<uint8_t>(Msi::I)),
      lockedSt_(k, name + ".lockedSt", sets_ * ways_, 0),
      wayBusy_(k, name + ".wayBusy", sets_ * ways_, 0),
      data_(k, name + ".data", sets_ * ways_),
      lruPtr_(k, name + ".lru", sets_, 0),
      mshr_(k, name + ".mshr", cfg.mshrs),
      resvLine_(k, name + ".resvLine", 0),
      resvValid_(k, name + ".resvValid", false),
      reqQ_(k, name + ".reqQ", 4),
      prefQ_(k, name + ".prefQ", 4),
      respLdQ_(k, name + ".respLdQ", 4),
      respStQ_(k, name + ".respStQ", 4),
      respAtomicQ_(k, name + ".respAtomicQ", 2),
      ldHits_(stats().counter("ldHits")),
      ldMisses_(stats().counter("ldMisses")),
      stHits_(stats().counter("stHits")),
      stMisses_(stats().counter("stMisses")),
      evictions_(stats().counter("evictions")),
      invalidations_(stats().counter("invalidations")),
      atomicOps_(stats().counter("atomicOps"))
{
    if ((sets_ & (sets_ - 1)) != 0)
        cmd::fatal("%s: set count %u not a power of two", name.c_str(),
                   sets_);

    reqLdM.subcalls({&reqQ_.enqM});
    reqStM.subcalls({&reqQ_.enqM});
    reqAtomicM.subcalls({&reqQ_.enqM});
    respLdM.subcalls({&respLdQ_.deqM});
    respStM.subcalls({&respStQ_.deqM});
    respAtomicM.subcalls({&respAtomicQ_.deqM});

    Rule &rp = k.rule(name + ".processReq", [this] { ruleProcessReq(); });
    rp.when([this] { return reqQ_.canDeq(); });
    rp.uses({&reqQ_.firstM, &reqQ_.deqM, &respLdQ_.enqM, &respStQ_.enqM,
             &respAtomicQ_.enqM, &chan_.req.enqM, &chan_.resp.enqM,
             &prefQ_.enqM});

    Rule &rf = k.rule(name + ".fromParent", [this] { ruleFromParent(); });
    rf.when([this] { return chan_.fromParent.canDeq(); });
    rf.uses({&chan_.fromParent.firstM, &chan_.fromParent.deqM,
             &chan_.resp.enqM});

    Rule &rd = k.rule(name + ".drain", [this] { ruleDrain(); });
    rd.when([this] {
        for (uint32_t i = 0; i < mshr_.size(); i++) {
            if (mshr_.read(i).valid && mshr_.read(i).phase == 1)
                return true;
        }
        return false;
    });
    rd.uses({&respLdQ_.enqM, &respStQ_.enqM, &respAtomicQ_.enqM});

    // The prefetch engine serves both the next-line prefetcher and
    // external hints (SQ store prefetch); idle when the queue is
    // empty, so it is always registered.
    Rule &rpf = k.rule(name + ".prefetch", [this] { rulePrefetch(); });
    rpf.when([this] { return prefQ_.canDeq(); });
    rpf.uses({&prefQ_.firstM, &prefQ_.deqM, &chan_.req.enqM,
              &chan_.resp.enqM});
    prefetchHintM.subcalls({&prefQ_.enqM});

    rules_[0] = &rp;
    rules_[1] = &rf;
    rules_[2] = &rd;
    rules_[3] = &rpf;
}

void
L1Cache::setEvictHook(std::function<void(Addr)> hook,
                      const std::vector<const Method *> &methods)
{
    evictHook_ = std::move(hook);
    // Every rule that can evict or invalidate a line calls the hook.
    rules_[0]->uses(methods);
    rules_[1]->uses(methods);
    rules_[3]->uses(methods);
}

// ------------------------------------------------------ warm handoff

bool
L1Cache::debugPatchLine(Addr line, const Line &src)
{
    int w = findWay(line);
    if (w < 0)
        return false;
    uint32_t sl = slot(setOf(line), w);
    if (static_cast<Msi>(state_.read(sl)) == Msi::I)
        return false; // busy-way placeholder: no data to resync
    data_.write(sl, src);
    return true;
}

bool
L1Cache::quiescent() const
{
    for (uint32_t i = 0; i < cfg_.mshrs; i++)
        if (mshr_.read(i).valid)
            return false;
    for (uint32_t sl = 0; sl < sets_ * ways_; sl++)
        if (lockedSt_.read(sl))
            return false;
    return reqQ_.size() == 0 && prefQ_.size() == 0 &&
           respLdQ_.size() == 0 && respStQ_.size() == 0 &&
           respAtomicQ_.size() == 0;
}

bool
L1Cache::warmHit(Addr line, const Line &src)
{
    int w = findWay(line);
    if (w < 0)
        return false;
    data_.write(slot(setOf(line), w), src);
    return true;
}

bool
L1Cache::warmInstall(Addr line, const Line &src, bool &evicted,
                     Addr &victim)
{
    uint32_t set = setOf(line);
    int w = pickVictim(set);
    if (w < 0)
        return false;
    uint32_t sl = slot(set, w);
    evicted = state_.read(sl) != static_cast<uint8_t>(Msi::I);
    if (evicted) {
        victim = tags_.read(sl);
        if (resvValid_.read() && resvLine_.read() == victim)
            resvValid_.write(false);
    }
    tags_.write(sl, line);
    state_.write(sl, static_cast<uint8_t>(Msi::S));
    data_.write(sl, src);
    lockedSt_.write(sl, 0);
    lruPtr_.write(set, (w + 1) % ways_);
    return true;
}

void
L1Cache::warmInvalidate(Addr line)
{
    int w = findWay(line);
    if (w < 0)
        return;
    state_.write(slot(setOf(line), w), static_cast<uint8_t>(Msi::I));
    if (resvValid_.read() && resvLine_.read() == line)
        resvValid_.write(false);
}

// --------------------------------------------------------- interface

void
L1Cache::reqLd(uint8_t id, Addr addr)
{
    reqLdM();
    Req r;
    r.kind = Req::Kind::Ld;
    r.id = id;
    r.addr = addr;
    reqQ_.enq(r);
}

void
L1Cache::reqSt(uint8_t id, Addr addr)
{
    reqStM();
    if (!cfg_.allowStores)
        panic("%s: store to a read-only cache", name().c_str());
    Req r;
    r.kind = Req::Kind::St;
    r.id = id;
    r.addr = addr;
    reqQ_.enq(r);
}

void
L1Cache::reqAtomic(uint8_t id, Addr addr, isa::Op op, uint64_t operand,
                   uint8_t bytes)
{
    reqAtomicM();
    Req r;
    r.kind = Req::Kind::Atomic;
    r.id = id;
    r.addr = addr;
    r.amoOp = op;
    r.operand = operand;
    r.bytes = bytes;
    reqQ_.enq(r);
}

L1Cache::LdResp
L1Cache::respLd()
{
    respLdM();
    return respLdQ_.deq();
}

uint8_t
L1Cache::respSt()
{
    respStM();
    return respStQ_.deq();
}

L1Cache::AtomicResp
L1Cache::respAtomic()
{
    respAtomicM();
    return respAtomicQ_.deq();
}

void
L1Cache::writeData(Addr addr, uint64_t value, uint8_t bytes)
{
    writeDataM();
    Addr ln = lineAddr(addr);
    int way = findWay(ln);
    if (way < 0)
        panic("%s: writeData to absent line %#llx", name().c_str(),
              (unsigned long long)ln);
    uint32_t sl = slot(setOf(ln), way);
    if (!lockedSt_.read(sl))
        panic("%s: writeData to unlocked line %#llx", name().c_str(),
              (unsigned long long)ln);
    Line line = data_.read(sl);
    line.write(lineOffset(addr), value, bytes);
    data_.write(sl, line);
    lockedSt_.write(sl, 0);
}

void
L1Cache::writeLineData(Addr lineA, const Line &data, uint64_t byteMask)
{
    writeDataM();
    int way = findWay(lineA);
    if (way < 0)
        panic("%s: writeLineData to absent line %#llx", name().c_str(),
              (unsigned long long)lineA);
    uint32_t sl = slot(setOf(lineA), way);
    if (!lockedSt_.read(sl))
        panic("%s: writeLineData to unlocked line %#llx", name().c_str(),
              (unsigned long long)lineA);
    Line cur = data_.read(sl);
    for (unsigned b = 0; b < kLineBytes; b++) {
        if (byteMask & (1ull << b))
            cur.write(b, data.read(b, 1), 1);
    }
    data_.write(sl, cur);
    lockedSt_.write(sl, 0);
}

// ----------------------------------------------------------- helpers

int
L1Cache::findWay(Addr line) const
{
    uint32_t set = setOf(line);
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = slot(set, w);
        if (tags_.read(sl) == line &&
            (state_.read(sl) != static_cast<uint8_t>(Msi::I) ||
             wayBusy_.read(sl)))
            return static_cast<int>(w);
    }
    return -1;
}

int
L1Cache::findMshr(Addr line) const
{
    for (uint32_t i = 0; i < mshr_.size(); i++) {
        if (mshr_.read(i).valid && mshr_.read(i).line == line)
            return static_cast<int>(i);
    }
    return -1;
}

int
L1Cache::freeMshr() const
{
    for (uint32_t i = 0; i < mshr_.size(); i++) {
        if (!mshr_.read(i).valid)
            return static_cast<int>(i);
    }
    return -1;
}

int
L1Cache::pickVictim(uint32_t set) const
{
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = slot(set, w);
        if (state_.read(sl) == static_cast<uint8_t>(Msi::I) &&
            !wayBusy_.read(sl))
            return static_cast<int>(w);
    }
    uint32_t start = lruPtr_.read(set);
    for (uint32_t i = 0; i < ways_; i++) {
        uint32_t w = (start + i) % ways_;
        uint32_t sl = slot(set, w);
        if (!wayBusy_.read(sl) && !lockedSt_.read(sl))
            return static_cast<int>(w);
    }
    return -1;
}

void
L1Cache::doEvictNotice(Addr line)
{
    if (resvValid_.read() && resvLine_.read() == line)
        resvValid_.write(false);
    if (evictHook_)
        evictHook_(line);
}

uint64_t
L1Cache::performAtomic(const Waiter &w, uint32_t sl, Addr line)
{
    atomicOps_.inc();
    isa::Op op = static_cast<isa::Op>(w.amoOpRaw);
    isa::Inst probe;
    probe.op = op;
    Line ln = data_.read(sl);
    uint64_t old = ln.read(w.off, w.bytes);
    if (probe.isLr()) {
        // Reservation may already be set; re-point it here.
        resvValid_.write(true);
        resvLine_.write(line);
        return isa::loadExtend(op, old);
    }
    if (probe.isSc()) {
        bool ok = resvValid_.read() && resvLine_.read() == line;
        if (resvValid_.read())
            resvValid_.write(false);
        if (ok) {
            ln.write(w.off, w.operand, w.bytes);
            data_.write(sl, ln);
        }
        return ok ? 0 : 1;
    }
    // AMO read-modify-write.
    ln.write(w.off, isa::amoCompute(op, old, w.operand), w.bytes);
    data_.write(sl, ln);
    if (state_.read(sl) == static_cast<uint8_t>(Msi::E))
        state_.write(sl, static_cast<uint8_t>(Msi::M));
    return isa::loadExtend(op, old);
}

void
L1Cache::serveWaiter(const Waiter &w, uint32_t sl, Addr line)
{
    switch (static_cast<Req::Kind>(w.kind)) {
      case Req::Kind::Ld:
        respLdQ_.enq({w.id, data_.read(sl)});
        break;
      case Req::Kind::St:
        if (state_.read(sl) == static_cast<uint8_t>(Msi::E))
            state_.write(sl, static_cast<uint8_t>(Msi::M));
        lockedSt_.write(sl, 1);
        respStQ_.enq(w.id);
        break;
      case Req::Kind::Atomic:
        respAtomicQ_.enq({w.id, performAtomic(w, sl, line)});
        break;
    }
}

// -------------------------------------------------------------- rules

void
L1Cache::ruleProcessReq()
{
    Req r = reqQ_.first();
    Addr ln = lineAddr(r.addr);
    uint32_t set = setOf(ln);
    int way = findWay(ln);
    // Stores and atomics need write permission: M, or E (MESI), which
    // upgrades silently. Misses always request M for them.
    uint8_t need = static_cast<uint8_t>(
        r.kind == Req::Kind::Ld ? Msi::S : Msi::E);

    if (way >= 0) {
        uint32_t sl = slot(set, way);
        if (state_.read(sl) >= need && !wayBusy_.read(sl)) {
            // Hit. (serveWaiter performs the silent E->M upgrade for
            // stores and atomics.)
            Waiter w;
            w.kind = static_cast<uint8_t>(r.kind);
            w.id = r.id;
            w.amoOpRaw = static_cast<uint8_t>(r.amoOp);
            w.bytes = r.bytes;
            w.operand = r.operand;
            w.off = static_cast<uint16_t>(lineOffset(r.addr));
            serveWaiter(w, sl, ln);
            reqQ_.deq();
            (r.kind == Req::Kind::Ld ? ldHits_ : stHits_).inc();
            return;
        }
    }

    // Miss (or insufficient permission, or line busy).
    int mi = findMshr(ln);
    if (mi >= 0) {
        Mshr m = mshr_.read(mi);
        // Secondary load misses piggyback on the outstanding fill;
        // anything else stalls the queue head until the fill lands
        // (no-op commit: this can persist for many cycles).
        if (!(r.kind == Req::Kind::Ld && m.phase == 0 &&
              m.nWait < kMaxWait))
            return;
        Waiter &w = m.waiters[m.nWait++];
        w.kind = static_cast<uint8_t>(r.kind);
        w.id = r.id;
        w.off = static_cast<uint16_t>(lineOffset(r.addr));
        mshr_.write(mi, m);
        reqQ_.deq();
        ldMisses_.inc();
        return;
    }

    Waiter w;
    w.kind = static_cast<uint8_t>(r.kind);
    w.id = r.id;
    w.amoOpRaw = static_cast<uint8_t>(r.amoOp);
    w.bytes = r.bytes;
    w.operand = r.operand;
    w.off = static_cast<uint16_t>(lineOffset(r.addr));
    uint8_t want = r.kind == Req::Kind::Ld
                       ? static_cast<uint8_t>(Msi::S)
                       : static_cast<uint8_t>(Msi::M);
    if (!allocateMiss(ln, want, &w))
        return; // no MSHR / no victim: stall the request queue
    if (cfg_.prefetchNextLine && r.kind == Req::Kind::Ld &&
        prefQ_.canEnq())
        prefQ_.enq({ln + kLineBytes, static_cast<uint8_t>(Msi::S)});
    reqQ_.deq();
    (r.kind == Req::Kind::Ld ? ldMisses_ : stMisses_).inc();
}

bool
L1Cache::allocateMiss(Addr ln, uint8_t want, const Waiter *w)
{
    int free = freeMshr();
    if (free < 0)
        return false;
    uint32_t set = setOf(ln);
    int targetWay = findWay(ln); // upgrade in place on a tag match
    if (targetWay < 0) {
        targetWay = pickVictim(set);
        if (targetWay < 0)
            return false;
        uint32_t sl = slot(set, targetWay);
        uint8_t st = state_.read(sl);
        if (st != static_cast<uint8_t>(Msi::I)) {
            // Voluntary writeback of the victim.
            DowngradeResp wb;
            wb.line = tags_.read(sl);
            wb.newState = Msi::I;
            wb.voluntary = true;
            wb.hasData = st == static_cast<uint8_t>(Msi::M);
            if (wb.hasData)
                wb.data = data_.read(sl);
            chan_.resp.enq(wb);
            doEvictNotice(tags_.read(sl));
            state_.write(sl, static_cast<uint8_t>(Msi::I));
            evictions_.inc();
        }
        tags_.write(sl, ln);
        lruPtr_.write(set, (targetWay + 1) % ways_);
    }
    uint32_t sl = slot(set, targetWay);
    wayBusy_.write(sl, 1);

    Mshr m;
    m.valid = true;
    m.phase = 0;
    m.line = ln;
    m.want = want;
    m.way = static_cast<uint16_t>(targetWay);
    m.served = 0;
    if (w) {
        m.nWait = 1;
        m.waiters[0] = *w;
    } else {
        m.nWait = 0; // prefetch: fill only
    }
    mshr_.write(free, m);
    chan_.req.enq({ln, static_cast<Msi>(want)});
    return true;
}

void
L1Cache::rulePrefetch()
{
    PrefReq p = prefQ_.first();
    // Drop if permission already sufficient or a transaction is in
    // flight; otherwise start a waiter-less fill. Prefetches never
    // steal the last MSHR.
    int way = findWay(p.line);
    bool drop = findMshr(p.line) >= 0 ||
                (way >= 0 &&
                 state_.read(slot(setOf(p.line), way)) >= p.want);
    if (!drop) {
        int freeCount = 0;
        for (uint32_t i = 0; i < mshr_.size(); i++) {
            if (!mshr_.read(i).valid)
                freeCount++;
        }
        if (freeCount >= 2)
            allocateMiss(p.line, p.want, nullptr);
    }
    prefQ_.deq();
}

void
L1Cache::prefetchHint(Addr addr, Msi want)
{
    prefetchHintM();
    if (prefQ_.canEnq())
        prefQ_.enq({lineAddr(addr), static_cast<uint8_t>(want)});
}

void
L1Cache::ruleFromParent()
{
    FromParent m = chan_.fromParent.first();

    if (m.kind == FromParentKind::DowngradeReq) {
        int way = findWay(m.line);
        DowngradeResp ack;
        ack.line = m.line;
        ack.voluntary = false;
        if (way >= 0) {
            uint32_t sl = slot(setOf(m.line), way);
            uint8_t st = state_.read(sl);
            if (st > static_cast<uint8_t>(m.state)) {
                // Wait out a locked line and an in-progress drain:
                // never downgrade under either.
                int mi = findMshr(m.line);
                if (lockedSt_.read(sl) ||
                    (mi >= 0 && mshr_.read(mi).phase == 1)) {
                    cmd::retry();
                    return;
                }
                ack.newState = m.state;
                ack.hasData = st == static_cast<uint8_t>(Msi::M);
                if (ack.hasData)
                    ack.data = data_.read(sl);
                state_.write(sl, static_cast<uint8_t>(m.state));
                if (m.state == Msi::I) {
                    doEvictNotice(m.line);
                    invalidations_.inc();
                }
            } else {
                ack.newState = static_cast<Msi>(st);
            }
        } else {
            ack.newState = Msi::I; // already gone (raced with eviction)
        }
        chan_.resp.enq(ack);
        chan_.fromParent.deq();
        return;
    }

    // Grant.
    int mi = findMshr(m.line);
    if (mi < 0 || mshr_.read(mi).phase != 0)
        panic("%s: grant for line %#llx with no waiting MSHR",
              name().c_str(), (unsigned long long)m.line);
    Mshr ms = mshr_.read(mi);
    uint32_t sl = slot(setOf(m.line), ms.way);
    if (m.hasData)
        data_.write(sl, m.data);
    state_.write(sl, static_cast<uint8_t>(m.state));
    ms.phase = 1;
    mshr_.write(mi, ms);
    chan_.fromParent.deq();
}

void
L1Cache::ruleDrain()
{
    int mi = -1;
    for (uint32_t i = 0; i < mshr_.size(); i++) {
        if (mshr_.read(i).valid && mshr_.read(i).phase == 1) {
            mi = static_cast<int>(i);
            break;
        }
    }
    require(mi >= 0);
    Mshr m = mshr_.read(mi);
    uint32_t sl = slot(setOf(m.line), m.way);
    if (m.nWait > 0) {
        serveWaiter(m.waiters[m.served], sl, m.line);
        m.served++;
    }
    if (m.served == m.nWait) {
        m.valid = false;
        wayBusy_.write(sl, 0);
        lruPtr_.write(setOf(m.line), (m.way + 1) % ways_);
    }
    mshr_.write(mi, m);
}

} // namespace riscy
