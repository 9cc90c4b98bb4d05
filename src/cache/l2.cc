#include "cache/l2.hh"

namespace riscy {

using namespace cmd;

L2Cache::L2Cache(Kernel &k, const std::string &name, const Config &cfg,
                 std::vector<CacheChannel *> children,
                 std::vector<UncachedPort *> uncached, MemPort &dram)
    : Module(k, name, Conflict::CF), cfg_(cfg),
      sets_(cfg.sizeKb * 1024 / kLineBytes / cfg.ways), ways_(cfg.ways),
      children_(std::move(children)), uncached_(std::move(uncached)),
      dram_(dram),
      tags_(k, name + ".tags", sets_ * ways_, 0),
      valid_(k, name + ".valid", sets_ * ways_, 0),
      dirty_(k, name + ".dirty", sets_ * ways_, 0),
      wayBusy_(k, name + ".wayBusy", sets_ * ways_, 0),
      dir_(k, name + ".dir", sets_ * ways_),
      data_(k, name + ".data", sets_ * ways_),
      lruPtr_(k, name + ".lru", sets_, 0),
      txn_(k, name + ".txn", cfg.txns),
      rrChild_(k, name + ".rr", 0),
      hits_(stats().counter("hits")), misses_(stats().counter("misses")),
      writebacks_(stats().counter("writebacks")),
      downgrades_(stats().counter("downgrades")),
      uncachedReqs_(stats().counter("uncachedReqs")),
      eGrants_(stats().counter("eGrants"))
{
    if (children_.size() > kMaxChildren)
        cmd::fatal("%s: too many children (%zu)", name.c_str(),
                   children_.size());
    if ((sets_ & (sets_ - 1)) != 0)
        cmd::fatal("%s: set count %u not a power of two", name.c_str(),
                   sets_);

    std::vector<const Method *> drainUses, startUses, stepUses;
    for (CacheChannel *c : children_) {
        drainUses.push_back(&c->resp.firstM);
        drainUses.push_back(&c->resp.deqM);
        startUses.push_back(&c->req.firstM);
        startUses.push_back(&c->req.deqM);
        startUses.push_back(&c->fromParent.enqM);
        stepUses.push_back(&c->fromParent.enqM);
    }
    for (UncachedPort *p : uncached_) {
        startUses.push_back(&p->req.firstM);
        startUses.push_back(&p->req.deqM);
        startUses.push_back(&p->resp.enqM);
        stepUses.push_back(&p->resp.enqM);
    }
    stepUses.push_back(&dram_.reqMethod());

    k.rule(name + ".drainResp", [this] { ruleDrainResp(); })
        .when([this] {
            for (CacheChannel *c : children_) {
                if (c->resp.canDeq())
                    return true;
            }
            return false;
        })
        .uses(drainUses);
    k.rule(name + ".dramResp", [this] { ruleDramResp(); })
        .when([this] { return dram_.respReady(); })
        .uses({&dram_.respMethod()});
    k.rule(name + ".startTxn", [this] { ruleStartTxn(); })
        .when([this] {
            for (CacheChannel *c : children_) {
                if (c->req.canDeq())
                    return true;
            }
            for (UncachedPort *p : uncached_) {
                if (p->req.canDeq())
                    return true;
            }
            return false;
        })
        .uses(startUses);
    k.rule(name + ".txnStep", [this] { ruleTxnStep(); })
        .when([this] {
            for (uint32_t i = 0; i < txn_.size(); i++) {
                if (txn_.read(i).valid)
                    return true;
            }
            return false;
        })
        .uses(stepUses);
}

int
L2Cache::findWay(Addr line) const
{
    uint32_t set = setOf(line);
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = slot(set, w);
        if (valid_.read(sl) && tags_.read(sl) == line)
            return static_cast<int>(w);
    }
    return -1;
}

// ------------------------------------------------------ warm handoff

bool
L2Cache::debugPatchLine(Addr line, const Line &src)
{
    int w = findWay(line);
    if (w < 0)
        return false;
    data_.write(slot(setOf(line), w), src);
    return true;
}

bool
L2Cache::quiescent() const
{
    for (uint32_t i = 0; i < txn_.size(); i++)
        if (txn_.read(i).valid)
            return false;
    return true;
}

bool
L2Cache::warmEnsure(int child, Addr line, const Line &src,
                    const std::function<void(uint32_t, Addr)> &recall)
{
    int w = findWay(line);
    if (w >= 0) {
        uint32_t sl = slot(setOf(line), w);
        if (wayBusy_.read(sl))
            return false; // defensive: cannot happen when quiescent
        DirEntry d = dir_.read(sl);
        for (uint32_t c = 0; c < children_.size(); c++) {
            if (static_cast<int>(c) != child &&
                d.get(c) >= static_cast<uint8_t>(Msi::E))
                return false;
        }
        data_.write(sl, src);
        dirty_.write(sl, 0); // src is the memory image
        if (d.get(child) == static_cast<uint8_t>(Msi::I)) {
            d.set(child, static_cast<uint8_t>(Msi::S));
            dir_.write(sl, d);
        }
        return true;
    }

    uint32_t set = setOf(line);
    int v = pickVictim(set);
    if (v < 0)
        return false;
    uint32_t sl = slot(set, v);
    if (valid_.read(sl)) {
        Addr vline = tags_.read(sl);
        const DirEntry &d = dir_.read(sl);
        for (uint32_t c = 0; c < children_.size(); c++) {
            if (d.get(c) != static_cast<uint8_t>(Msi::I))
                recall(c, vline);
        }
    }
    tags_.write(sl, line);
    valid_.write(sl, 1);
    dirty_.write(sl, 0);
    DirEntry nd{};
    nd.set(child, static_cast<uint8_t>(Msi::S));
    dir_.write(sl, nd);
    data_.write(sl, src);
    lruPtr_.write(set, (v + 1) % ways_);
    return true;
}

void
L2Cache::warmChildEvicted(int child, Addr line)
{
    int w = findWay(line);
    if (w < 0)
        return; // inclusivity says resident; defensive
    uint32_t sl = slot(setOf(line), w);
    DirEntry d = dir_.read(sl);
    d.set(child, static_cast<uint8_t>(Msi::I));
    dir_.write(sl, d);
}

bool
L2Cache::dramPending(Addr line) const
{
    for (uint32_t i = 0; i < txn_.size(); i++) {
        const Txn &t = txn_.read(i);
        if (t.valid && t.line == line &&
            (t.phase == EvictWb || t.phase == NeedFill ||
             t.phase == WaitDram))
            return true;
    }
    return false;
}

bool
L2Cache::lineBlocked(Addr line) const
{
    for (uint32_t i = 0; i < txn_.size(); i++) {
        const Txn &t = txn_.read(i);
        if (!t.valid)
            continue;
        if (t.line == line)
            return true;
        // Until the victim writeback has been queued to DRAM, traffic
        // for the victim line must not start a new transaction.
        if (t.victimValid && t.victimLine == line && t.phase <= EvictWb)
            return true;
    }
    return false;
}

int
L2Cache::freeTxn() const
{
    for (uint32_t i = 0; i < txn_.size(); i++) {
        if (!txn_.read(i).valid)
            return static_cast<int>(i);
    }
    return -1;
}

int
L2Cache::pickVictim(uint32_t set) const
{
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = slot(set, w);
        if (!valid_.read(sl) && !wayBusy_.read(sl))
            return static_cast<int>(w);
    }
    uint32_t start = lruPtr_.read(set);
    for (uint32_t i = 0; i < ways_; i++) {
        uint32_t w = (start + i) % ways_;
        if (!wayBusy_.read(slot(set, w)))
            return static_cast<int>(w);
    }
    return -1;
}

Msi
L2Cache::upgradeGrant(const DirEntry &d, int child, Msi want) const
{
    if (!cfg_.mesi || want != Msi::S)
        return want;
    for (uint32_t c = 0; c < children_.size(); c++) {
        if (static_cast<int>(c) != child &&
            d.get(c) != static_cast<uint8_t>(Msi::I))
            return want; // another sharer exists: plain S
    }
    eGrants_.inc();
    return Msi::E;
}

uint32_t
L2Cache::computeTargets(uint32_t sl, int child, Msi want, Msi &downTo) const
{
    const DirEntry &d = dir_.read(sl);
    uint32_t mask = 0;
    downTo = want >= Msi::E ? Msi::I : Msi::S;
    for (uint32_t c = 0; c < children_.size(); c++) {
        if (static_cast<int>(c) == child)
            continue;
        Msi st = static_cast<Msi>(d.get(c));
        // A child at E may have silently upgraded to M, so reads must
        // recall any >=E holder (data travels with the ack).
        if (want >= Msi::E ? st != Msi::I : st >= Msi::E)
            mask |= 1u << c;
    }
    return mask;
}

void
L2Cache::ruleDrainResp()
{
    // Round-robin pick of a drainable child response.
    int child = -1;
    uint32_t start = rrChild_.read();
    for (uint32_t i = 0; i < children_.size(); i++) {
        uint32_t c = (start + i) % children_.size();
        if (children_[c]->resp.canDeq()) {
            child = static_cast<int>(c);
            break;
        }
    }
    require(child >= 0);
    DowngradeResp m = children_[child]->resp.deq();

    int way = findWay(m.line);
    if (way < 0)
        panic("%s: child %d response for non-resident line %#llx",
              name().c_str(), child, (unsigned long long)m.line);
    uint32_t sl = slot(setOf(m.line), way);
    if (m.hasData) {
        data_.write(sl, m.data);
        dirty_.write(sl, 1);
    }
    DirEntry d = dir_.read(sl);
    d.set(child, static_cast<uint8_t>(m.newState));
    dir_.write(sl, d);

    if (!m.voluntary) {
        // Credit the transaction that requested this downgrade.
        for (uint32_t i = 0; i < txn_.size(); i++) {
            Txn t = txn_.read(i);
            if (!t.valid || t.pendingAcks == 0)
                continue;
            bool match = (t.line == m.line && t.phase == WaitAcks) ||
                         (t.victimValid && t.victimLine == m.line &&
                          t.phase == EvictWait);
            if (match) {
                t.pendingAcks--;
                txn_.write(i, t);
                break;
            }
        }
    }
}

void
L2Cache::ruleStartTxn()
{
    // Arbitrate: children's request channels, then uncached ports.
    int child = -2;
    Addr line = 0;
    Msi want = Msi::S;
    uint32_t port = 0;
    uint32_t start = rrChild_.read();
    for (uint32_t i = 0; i < children_.size() && child == -2; i++) {
        uint32_t c = (start + i) % children_.size();
        CacheChannel *ch = children_[c];
        // A child's earlier responses must be visible before its next
        // request (restores cross-channel ordering; see msg.hh). The
        // consumer-side pending() probe keeps this a domain-local +
        // start-of-cycle read under the parallel scheduler.
        if (!ch->req.canDeq() || ch->resp.pending() != 0)
            continue;
        UpgradeReq r = ch->req.first();
        if (lineBlocked(r.line))
            continue;
        child = static_cast<int>(c);
        line = r.line;
        want = r.want;
    }
    for (uint32_t p = 0; p < uncached_.size() && child == -2; p++) {
        if (!uncached_[p]->req.canDeq())
            continue;
        Addr a = uncached_[p]->req.first();
        if (lineBlocked(lineAddr(a)))
            continue;
        child = -1;
        port = p;
        line = lineAddr(a);
        want = Msi::S;
    }
    if (child == -2)
        return; // heads exist but are blocked: cheap no-op commit
    rrChild_.write((start + 1) % children_.size());

    auto consumeReq = [&] {
        if (child >= 0)
            children_[child]->req.deq();
        else
            uncached_[port]->req.deq();
    };

    int way = findWay(line);
    if (way >= 0 && !wayBusy_.read(slot(setOf(line), way))) {
        uint32_t sl = slot(setOf(line), way);
        Msi downTo;
        uint32_t targets = computeTargets(sl, child, want, downTo);
        if (targets == 0) {
            // Fast-path grant, no transaction entry needed.
            if (child < 0) {
                uncached_[port]->resp.enq({line, data_.read(sl)});
                uncachedReqs_.inc();
            } else {
                DirEntry d = dir_.read(sl);
                Msi grant = upgradeGrant(d, child, want);
                FromParent g;
                g.kind = FromParentKind::Grant;
                g.line = line;
                g.state = grant;
                g.hasData = d.get(child) == static_cast<uint8_t>(Msi::I);
                if (g.hasData)
                    g.data = data_.read(sl);
                children_[child]->fromParent.enq(g);
                d.set(child, static_cast<uint8_t>(grant));
                dir_.write(sl, d);
            }
            consumeReq();
            hits_.inc();
            return;
        }
        // Need downgrades first.
        int ti = freeTxn();
        if (ti < 0)
            return;
        uint8_t n = 0;
        for (uint32_t c = 0; c < children_.size(); c++) {
            if (targets & (1u << c)) {
                FromParent dreq;
                dreq.kind = FromParentKind::DowngradeReq;
                dreq.line = line;
                dreq.state = downTo;
                children_[c]->fromParent.enq(dreq);
                n++;
                downgrades_.inc();
            }
        }
        Txn t;
        t.valid = true;
        t.line = line;
        t.child = static_cast<int8_t>(child);
        t.port = static_cast<uint8_t>(port);
        t.want = static_cast<uint8_t>(want);
        t.phase = WaitAcks;
        t.pendingAcks = n;
        t.way = static_cast<uint16_t>(way);
        txn_.write(ti, t);
        wayBusy_.write(sl, 1);
        consumeReq();
        hits_.inc();
        return;
    }

    // Miss: allocate a way, possibly evicting (with child recall).
    int ti = freeTxn();
    if (ti < 0)
        return;
    uint32_t set = setOf(line);
    int victim = pickVictim(set);
    if (victim < 0)
        return;
    uint32_t sl = slot(set, victim);

    Txn t;
    t.valid = true;
    t.line = line;
    t.child = static_cast<int8_t>(child);
    t.port = static_cast<uint8_t>(port);
    t.want = static_cast<uint8_t>(want);
    t.way = static_cast<uint16_t>(victim);
    t.phase = EvictWait;
    t.pendingAcks = 0;
    t.victimValid = valid_.read(sl) != 0;
    t.victimLine = tags_.read(sl);
    if (t.victimValid) {
        const DirEntry &d = dir_.read(sl);
        for (uint32_t c = 0; c < children_.size(); c++) {
            if (d.get(c) != static_cast<uint8_t>(Msi::I)) {
                FromParent dreq;
                dreq.kind = FromParentKind::DowngradeReq;
                dreq.line = t.victimLine;
                dreq.state = Msi::I;
                children_[c]->fromParent.enq(dreq);
                t.pendingAcks++;
                downgrades_.inc();
            }
        }
    }
    txn_.write(ti, t);
    wayBusy_.write(sl, 1);
    lruPtr_.write(set, (victim + 1) % ways_);
    consumeReq();
    misses_.inc();
}

void
L2Cache::ruleTxnStep()
{
    // Advance the first advanceable transaction one phase.
    int ti = -1;
    Txn t;
    for (uint32_t i = 0; i < txn_.size(); i++) {
        t = txn_.read(i);
        if (!t.valid)
            continue;
        if ((t.phase == EvictWait || t.phase == WaitAcks) &&
            t.pendingAcks != 0)
            continue;
        if (t.phase == WaitDram)
            continue;
        if ((t.phase == EvictWb || t.phase == NeedFill) && !dram_.canReq())
            continue;
        ti = static_cast<int>(i);
        break;
    }
    if (ti < 0)
        return; // transactions exist but none can advance this cycle

    // The victim occupied the same set as the new line, so every phase
    // addresses the same slot.
    uint32_t sl = slot(setOf(t.line), t.way);
    switch (t.phase) {
      case EvictWait:
        if (t.victimValid && dirty_.read(sl)) {
            t.phase = EvictWb;
        } else {
            t.phase = NeedFill;
        }
        break;
      case EvictWb:
        dram_.req(true, t.victimLine, data_.read(sl));
        writebacks_.inc();
        t.phase = NeedFill;
        break;
      case NeedFill: {
        dram_.req(false, t.line, Line{});
        tags_.write(sl, t.line);
        valid_.write(sl, 1);
        dirty_.write(sl, 0);
        dir_.write(sl, DirEntry{});
        t.phase = WaitDram;
        break;
      }
      case WaitAcks:
        t.phase = Grant;
        [[fallthrough]];
      case Grant: {
        if (t.child < 0) {
            uncached_[t.port]->resp.enq({t.line, data_.read(sl)});
            uncachedReqs_.inc();
        } else {
            DirEntry d = dir_.read(sl);
            Msi grant = upgradeGrant(d, t.child, static_cast<Msi>(t.want));
            FromParent g;
            g.kind = FromParentKind::Grant;
            g.line = t.line;
            g.state = grant;
            g.hasData = d.get(static_cast<uint32_t>(t.child)) ==
                        static_cast<uint8_t>(Msi::I);
            if (g.hasData)
                g.data = data_.read(sl);
            children_[t.child]->fromParent.enq(g);
            d.set(static_cast<uint32_t>(t.child),
                  static_cast<uint8_t>(grant));
            dir_.write(sl, d);
        }
        wayBusy_.write(sl, 0);
        t.valid = false;
        break;
      }
      default:
        panic("%s: bad txn phase %u", name().c_str(), t.phase);
    }
    txn_.write(ti, t);
}

void
L2Cache::ruleDramResp()
{
    MemResp r = dram_.resp();
    for (uint32_t i = 0; i < txn_.size(); i++) {
        Txn t = txn_.read(i);
        if (t.valid && t.phase == WaitDram && t.line == r.line) {
            uint32_t sl = slot(setOf(t.line), t.way);
            data_.write(sl, r.data);
            t.phase = Grant;
            txn_.write(i, t);
            return;
        }
    }
    panic("%s: DRAM response for line %#llx matches no transaction",
          name().c_str(), (unsigned long long)r.line);
}

} // namespace riscy
