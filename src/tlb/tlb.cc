#include "tlb/tlb.hh"

namespace riscy {

using namespace cmd;
using namespace isa;

// ------------------------------------------------------------------ L1Tlb

L1Tlb::L1Tlb(Kernel &k, const std::string &name, const Config &cfg,
             TlbChannel &chan)
    : Module(k, name, Conflict::CF),
      reqM(method("req")), respM(method("resp")), flushM(method("flush")),
      setSatpM(method("setSatp")),
      cfg_(cfg), chan_(chan),
      entries_(k, name + ".entries", cfg.entries),
      replPtr_(k, name + ".repl", 0),
      miss_(k, name + ".miss", cfg.maxMisses),
      bare_(k, name + ".bare", true),
      reqQ_(k, name + ".reqQ", 4),
      respQ_(k, name + ".respQ", 4),
      hits_(stats().counter("hits")), misses_(stats().counter("misses")),
      faults_(stats().counter("faults"))
{
    reqM.subcalls({&reqQ_.enqM});
    respM.subcalls({&respQ_.deqM});

    k.rule(name + ".process", [this] { ruleProcess(); })
        .when([this] { return reqQ_.canDeq(); })
        .uses({&reqQ_.firstM, &reqQ_.deqM, &respQ_.enqM, &chan_.req.enqM});
    k.rule(name + ".fill", [this] { ruleFill(); })
        .when([this] { return chan_.resp.canDeq(); })
        .uses({&chan_.resp.firstM, &chan_.resp.deqM});
    k.rule(name + ".serve", [this] { ruleServe(); })
        .when([this] {
            for (uint32_t i = 0; i < miss_.size(); i++) {
                if (miss_.read(i).valid && miss_.read(i).ready)
                    return true;
            }
            return false;
        })
        .uses({&respQ_.enqM});
}

void
L1Tlb::req(uint8_t id, Addr va, AccessType type)
{
    reqM();
    reqQ_.enq({id, va, static_cast<uint8_t>(type)});
}

L1Tlb::Resp
L1Tlb::resp()
{
    respM();
    return respQ_.deq();
}

void
L1Tlb::setSatp(uint64_t satp)
{
    setSatpM();
    bare_.write(!satpSv39(satp));
}

void
L1Tlb::flush()
{
    flushM();
    for (uint32_t i = 0; i < entries_.size(); i++) {
        if (entries_.read(i).valid)
            entries_.write(i, TlbEntry{});
    }
    for (uint32_t i = 0; i < miss_.size(); i++)
        require(!miss_.read(i).valid); // drain before flushing
}

int
L1Tlb::lookup(Addr va) const
{
    for (uint32_t i = 0; i < entries_.size(); i++) {
        if (entries_.read(i).matches(va))
            return static_cast<int>(i);
    }
    return -1;
}

void
L1Tlb::warmInsert(const TlbEntry &e, Addr va)
{
    if (lookup(va) >= 0)
        return;
    entries_.write(replPtr_.read(), e);
    replPtr_.write((replPtr_.read() + 1) % cfg_.entries);
}

bool
L1Tlb::permOk(uint8_t flags, AccessType t) const
{
    switch (t) {
      case AccessType::Fetch:
        return flags & PTE_X;
      case AccessType::Load:
        return flags & PTE_R;
      default:
        return flags & PTE_W;
    }
}

void
L1Tlb::ruleProcess()
{
    ReqMsg r = reqQ_.first();

    if (bare_.read()) {
        respQ_.enq({r.id, false, r.va});
        reqQ_.deq();
        return;
    }

    bool anyMiss = false;
    int freeMiss = -1;
    bool samePagePending = false;
    for (uint32_t i = 0; i < miss_.size(); i++) {
        const MissReg &m = miss_.read(i);
        if (m.valid) {
            anyMiss = true;
            if ((m.va >> kPageShift) == (r.va >> kPageShift))
                samePagePending = true;
        } else if (freeMiss < 0) {
            freeMiss = static_cast<int>(i);
        }
    }
    // A blocking TLB (RiscyOO-B) stalls the whole pipe on any miss.
    // Nothing is written yet, so wait by retry(), not by a throw.
    if (!cfg_.hitUnderMiss && anyMiss) {
        retry();
        return;
    }

    int e = lookup(r.va);
    if (e >= 0) {
        const TlbEntry &te = entries_.read(e);
        bool fault = !permOk(te.flags, static_cast<AccessType>(r.type));
        respQ_.enq({r.id, fault, fault ? 0 : te.translate(r.va)});
        reqQ_.deq();
        hits_.inc();
        if (fault)
            faults_.inc();
        return;
    }

    if (freeMiss < 0) {
        retry();
        return;
    }
    MissReg m;
    m.valid = true;
    m.ready = false;
    m.id = r.id;
    m.va = r.va;
    m.type = r.type;
    miss_.write(freeMiss, m);
    if (!samePagePending)
        chan_.req.enq(r.va);
    reqQ_.deq();
    misses_.inc();
}

void
L1Tlb::ruleFill()
{
    TlbFill f = chan_.resp.first();

    TlbEntry te;
    if (!f.fault) {
        te.valid = true;
        te.vpn = fullVpn(f.va);
        te.ppn = f.ppn;
        te.level = f.level;
        te.flags = f.flags;
        entries_.write(replPtr_.read(), te);
        replPtr_.write((replPtr_.read() + 1) % cfg_.entries);
    }

    for (uint32_t i = 0; i < miss_.size(); i++) {
        MissReg m = miss_.read(i);
        if (!m.valid || m.ready)
            continue;
        bool covered = f.fault
                           ? (m.va >> kPageShift) == (f.va >> kPageShift)
                           : te.matches(m.va);
        if (!covered)
            continue;
        m.ready = true;
        if (f.fault) {
            m.fault = true;
            m.pa = 0;
        } else {
            m.fault = !permOk(f.flags, static_cast<AccessType>(m.type));
            m.pa = m.fault ? 0 : te.translate(m.va);
        }
        if (m.fault)
            faults_.inc();
        miss_.write(i, m);
    }
    chan_.resp.deq();
}

void
L1Tlb::ruleServe()
{
    int idx = -1;
    for (uint32_t i = 0; i < miss_.size(); i++) {
        if (miss_.read(i).valid && miss_.read(i).ready) {
            idx = static_cast<int>(i);
            break;
        }
    }
    require(idx >= 0);
    MissReg m = miss_.read(idx);
    respQ_.enq({m.id, m.fault, m.pa});
    miss_.write(idx, MissReg{});
}

// ------------------------------------------------------------------ L2Tlb

L2Tlb::L2Tlb(Kernel &k, const std::string &name, const Config &cfg,
             std::vector<TlbChannel *> clients, UncachedPort &mem)
    : Module(k, name, Conflict::CF), setSatpM(method("setSatp")),
      cfg_(cfg), sets_(cfg.entries / cfg.ways), ways_(cfg.ways),
      clients_(std::move(clients)), mem_(mem),
      entries_(k, name + ".entries", cfg.entries),
      replPtr_(k, name + ".repl", sets_, 0),
      walks_(k, name + ".walks", cfg.maxWalks),
      wc1_(k, name + ".wc1", cfg.walkCacheEntries),
      wc0_(k, name + ".wc0", cfg.walkCacheEntries),
      wcRepl1_(k, name + ".wcRepl1", 0),
      wcRepl0_(k, name + ".wcRepl0", 0),
      satp_(k, name + ".satp", 0),
      rrClient_(k, name + ".rrClient", 0),
      hits_(stats().counter("hits")), misses_(stats().counter("misses")),
      walksDone_(stats().counter("walks")),
      wcHits_(stats().counter("walkCacheHits")),
      faults_(stats().counter("faults"))
{
    if ((sets_ & (sets_ - 1)) != 0)
        cmd::fatal("%s: set count %u not a power of two", name.c_str(),
                   sets_);

    std::vector<const Method *> startUses, stepUses;
    for (TlbChannel *c : clients_) {
        startUses.push_back(&c->req.firstM);
        startUses.push_back(&c->req.deqM);
        startUses.push_back(&c->resp.enqM);
        stepUses.push_back(&c->resp.enqM);
    }
    stepUses.push_back(&mem_.req.enqM);
    stepUses.push_back(&mem_.resp.firstM);
    stepUses.push_back(&mem_.resp.deqM);

    k.rule(name + ".start", [this] { ruleStart(); })
        .when([this] {
            for (TlbChannel *c : clients_) {
                if (c->req.canDeq())
                    return true;
            }
            return false;
        })
        .uses(startUses);
    k.rule(name + ".step", [this] { ruleStep(); })
        .when([this] {
            if (mem_.resp.canDeq())
                return true;
            for (uint32_t i = 0; i < walks_.size(); i++) {
                if (walks_.read(i).valid && !walks_.read(i).memPending)
                    return true;
            }
            return false;
        })
        .uses(stepUses);
}

void
L2Tlb::setSatp(uint64_t satp)
{
    setSatpM();
    for (uint32_t i = 0; i < walks_.size(); i++)
        require(!walks_.read(i).valid);
    satp_.write(satp);
    for (uint32_t i = 0; i < entries_.size(); i++) {
        if (entries_.read(i).valid)
            entries_.write(i, TlbEntry{});
    }
    for (uint32_t i = 0; i < wc1_.size(); i++) {
        if (wc1_.read(i).valid)
            wc1_.write(i, WalkCacheEntry{});
        if (wc0_.read(i).valid)
            wc0_.write(i, WalkCacheEntry{});
    }
}

int
L2Tlb::lookup(Addr va) const
{
    uint32_t set = setOf(va);
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = set * ways_ + w;
        if (entries_.read(sl).matches(va))
            return static_cast<int>(sl);
    }
    return -1;
}

void
L2Tlb::warmInsert(const TlbEntry &e, Addr va)
{
    if (lookup(va) >= 0)
        return;
    insert(e, va);
}

void
L2Tlb::insert(const TlbEntry &e, Addr va)
{
    uint32_t set = setOf(va);
    for (uint32_t w = 0; w < ways_; w++) {
        uint32_t sl = set * ways_ + w;
        if (!entries_.read(sl).valid) {
            entries_.write(sl, e);
            return;
        }
    }
    uint32_t w = replPtr_.read(set);
    entries_.write(set * ways_ + w, e);
    replPtr_.write(set, (w + 1) % ways_);
}

int
L2Tlb::findFreeWalk() const
{
    for (uint32_t i = 0; i < walks_.size(); i++) {
        if (!walks_.read(i).valid)
            return static_cast<int>(i);
    }
    return -1;
}

void
L2Tlb::walkCacheLookup(Addr va, int8_t &level, Addr &base) const
{
    level = kSv39Levels - 1;
    base = satpRoot(satp_.read());
    if (!cfg_.walkCache)
        return;
    uint64_t key0 = va >> 21; // VPN2|VPN1
    for (uint32_t i = 0; i < wc0_.size(); i++) {
        if (wc0_.read(i).valid && wc0_.read(i).key == key0) {
            level = 0;
            base = wc0_.read(i).base;
            return;
        }
    }
    uint64_t key1 = va >> 30; // VPN2
    for (uint32_t i = 0; i < wc1_.size(); i++) {
        if (wc1_.read(i).valid && wc1_.read(i).key == key1) {
            level = 1;
            base = wc1_.read(i).base;
            return;
        }
    }
}

void
L2Tlb::walkCacheInsert(unsigned level, Addr va, Addr base)
{
    if (!cfg_.walkCache)
        return;
    if (level == 1) {
        wc1_.write(wcRepl1_.read(), {true, va >> 30, base});
        wcRepl1_.write((wcRepl1_.read() + 1) % wc1_.size());
    } else {
        wc0_.write(wcRepl0_.read(), {true, va >> 21, base});
        wcRepl0_.write((wcRepl0_.read() + 1) % wc0_.size());
    }
}

void
L2Tlb::ruleStart()
{
    // Blocking config: no new activity while any walk is in flight.
    // Each wait below comes before the first write: retry(), no throw.
    if (cfg_.maxWalks == 1) {
        for (uint32_t i = 0; i < walks_.size(); i++) {
            if (walks_.read(i).valid) {
                retry();
                return;
            }
        }
    }

    uint32_t start = rrClient_.read();
    for (uint32_t i = 0; i < clients_.size(); i++) {
        uint32_t c = (start + i) % clients_.size();
        TlbChannel *ch = clients_[c];
        if (!ch->req.canDeq())
            continue;
        Addr va = ch->req.first();

        int e = lookup(va);
        if (e >= 0) {
            const TlbEntry &te = entries_.read(e);
            TlbFill f;
            f.va = va;
            f.fault = false;
            f.ppn = te.ppn;
            f.level = te.level;
            f.flags = te.flags;
            ch->resp.enq(f);
            ch->req.deq();
            rrClient_.write((c + 1) % clients_.size());
            hits_.inc();
            return;
        }

        // Walk needed: skip if one is already walking this page.
        bool dup = false;
        for (uint32_t wi = 0; wi < walks_.size(); wi++) {
            const Walk &w = walks_.read(wi);
            if (w.valid && (w.va >> kPageShift) == (va >> kPageShift))
                dup = true;
        }
        if (dup)
            continue;
        int free = findFreeWalk();
        if (free < 0)
            continue;

        Walk w;
        w.valid = true;
        w.memPending = false;
        w.va = va;
        w.client = static_cast<uint8_t>(c);
        walkCacheLookup(va, w.level, w.tableBase);
        if (cfg_.walkCache && w.level < static_cast<int8_t>(kSv39Levels) - 1)
            wcHits_.inc();
        walks_.write(free, w);
        ch->req.deq();
        rrClient_.write((c + 1) % clients_.size());
        misses_.inc();
        return;
    }
    retry(); // nothing to do
}

void
L2Tlb::ruleStep()
{
    // Prefer consuming a walker memory response.
    if (mem_.resp.canDeq()) {
        UncachedResp r = mem_.resp.first();
        for (uint32_t i = 0; i < walks_.size(); i++) {
            Walk w = walks_.read(i);
            if (!w.valid || !w.memPending)
                continue;
            Addr pteAddr = w.tableBase + vpn(w.va, w.level) * 8;
            if (lineAddr(pteAddr) != r.line)
                continue;
            uint64_t pte = r.data.read(lineOffset(pteAddr), 8);
            TlbFill f;
            f.va = w.va;
            if (!(pte & PTE_V)) {
                f.fault = true;
            } else if (pteLeaf(pte)) {
                uint64_t ppn = ptePpn(pte);
                uint64_t mask = (1ull << (9 * w.level)) - 1;
                if (ppn & mask) {
                    f.fault = true; // misaligned superpage
                } else {
                    f.fault = false;
                    f.ppn = ppn;
                    f.level = static_cast<uint8_t>(w.level);
                    f.flags = pte & (PTE_R | PTE_W | PTE_X);
                    TlbEntry te;
                    te.valid = true;
                    te.vpn = fullVpn(w.va);
                    te.ppn = ppn;
                    te.level = f.level;
                    te.flags = f.flags;
                    insert(te, w.va);
                }
            } else {
                // Descend one level.
                if (w.level == 0) {
                    f.fault = true; // pointer at leaf level
                } else {
                    w.level--;
                    w.tableBase = ptePpn(pte) << kPageShift;
                    w.memPending = false;
                    walkCacheInsert(w.level, w.va, w.tableBase);
                    walks_.write(i, w);
                    mem_.resp.deq();
                    return;
                }
            }
            clients_[w.client]->resp.enq(f);
            walks_.write(i, Walk{});
            walksDone_.inc();
            if (f.fault)
                faults_.inc();
            mem_.resp.deq();
            return;
        }
        panic("%s: walker response for line %#llx matches no walk",
              name().c_str(), (unsigned long long)r.line);
    }

    // Otherwise issue the next pending PTE read.
    for (uint32_t i = 0; i < walks_.size(); i++) {
        Walk w = walks_.read(i);
        if (!w.valid || w.memPending)
            continue;
        Addr pteAddr = w.tableBase + vpn(w.va, w.level) * 8;
        mem_.req.enq(lineAddr(pteAddr));
        w.memPending = true;
        walks_.write(i, w);
        return;
    }
    require(false);
}

} // namespace riscy
