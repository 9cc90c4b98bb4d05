#include "ooo/rob.hh"

namespace riscy {

using namespace cmd;

Rob::Rob(Kernel &k, const std::string &name, uint32_t size)
    : Module(k, name, Conflict::CF),
      enqM(method("enqGroup")), deqM(method("deqGroup")),
      markDoneM(method("markDone")),
      setAfterTranslationM(method("setAfterTranslation")),
      setAtLSQDeqM(method("setAtLSQDeq")),
      setAtCommitSentM(method("setAtCommitSent")),
      wrongSpecM(method("wrongSpec")), correctSpecM(method("correctSpec")),
      clearM(method("clearAll")),
      size_(size), arr_(k, name + ".arr", size),
      head_(k, name + ".head", 0), tail_(k, name + ".tail", 0),
      count_(k, name + ".count", 0)
{
    // Intra-cycle ordering: commit < kill < rename, with the
    // execute-side completion writes before the kill so an entry is
    // never marked after it has been killed and possibly recycled:
    //   markDone/setAfterTranslation/setAtLSQDeq < wrongSpec < enq,
    //   deq (commit) < wrongSpec.
    lt(deqM, enqM);
    lt(deqM, wrongSpecM);
    lt(markDoneM, wrongSpecM);
    lt(setAfterTranslationM, wrongSpecM);
    lt(setAtLSQDeqM, wrongSpecM);
    lt(wrongSpecM, enqM);
    selfCf(markDoneM);
    selfCf(setAfterTranslationM);
    selfCf(wrongSpecM);
    selfCf(correctSpecM);
    setCm(clearM, enqM, Conflict::C);
    setCm(clearM, deqM, Conflict::C);
}

void
Rob::enqGroup(const RobEntry *es, uint32_t n)
{
    enqM();
    require(count_.read() + n <= size_);
    for (uint32_t i = 0; i < n; i++) {
        RobEntry e = es[i];
        e.valid = true;
        arr_.write((tail_.read() + i) % size_, e);
    }
    tail_.write((tail_.read() + n) % size_);
    count_.write(count_.read() + n);
}

void
Rob::deqGroup(uint32_t n)
{
    deqM();
    require(count_.read() >= n);
    for (uint32_t i = 0; i < n; i++)
        arr_.write((head_.read() + i) % size_, RobEntry{});
    head_.write((head_.read() + n) % size_);
    count_.write(count_.read() - n);
}

void
Rob::markDone(RobIdx i)
{
    markDoneM();
    RobEntry e = arr_.read(i);
    if (!e.valid)
        panic("%s: markDone on invalid entry %u", name().c_str(), i);
    e.done = true;
    arr_.write(i, e);
}

void
Rob::setAfterTranslation(RobIdx i, bool mmio, bool exception,
                         uint8_t cause, uint64_t tval, bool done)
{
    setAfterTranslationM();
    RobEntry e = arr_.read(i);
    if (!e.valid)
        panic("%s: setAfterTranslation on invalid entry %u",
              name().c_str(), i);
    e.isMmio = mmio;
    if (exception) {
        e.exception = true;
        e.cause = cause;
        e.tval = tval;
        e.done = true;
    } else if (done) {
        e.done = true;
    }
    arr_.write(i, e);
}

void
Rob::setAtLSQDeq(RobIdx i, bool killed, bool exception, uint8_t cause,
                 uint64_t tval)
{
    setAtLSQDeqM();
    RobEntry e = arr_.read(i);
    if (!e.valid)
        panic("%s: setAtLSQDeq on invalid entry %u", name().c_str(), i);
    e.done = true;
    e.ldKilled = killed;
    if (exception) {
        e.exception = true;
        e.cause = cause;
        e.tval = tval;
    }
    arr_.write(i, e);
}

void
Rob::setAtCommitSent(RobIdx i)
{
    setAtCommitSentM();
    RobEntry e = arr_.read(i);
    e.atCommitSent = true;
    arr_.write(i, e);
}

void
Rob::wrongSpec(SpecMask deadMask)
{
    wrongSpecM();
    // Killed entries are always a suffix (younger than the branch).
    uint32_t newCount = 0;
    for (uint32_t n = 0; n < count_.read(); n++) {
        uint32_t i = (head_.read() + n) % size_;
        RobEntry e = arr_.read(i);
        if (e.specMask & deadMask) {
            arr_.write(i, RobEntry{});
        } else {
            if (newCount != n)
                panic("%s: wrongSpec kill set is not a suffix",
                      name().c_str());
            newCount = n + 1;
        }
    }
    tail_.write((head_.read() + newCount) % size_);
    count_.write(newCount);
}

void
Rob::correctSpec(SpecMask mask)
{
    correctSpecM();
    for (uint32_t n = 0; n < count_.read(); n++) {
        uint32_t i = (head_.read() + n) % size_;
        RobEntry e = arr_.read(i);
        if (e.specMask & mask) {
            e.specMask &= ~mask;
            arr_.write(i, e);
        }
    }
}

void
Rob::clearAll()
{
    clearM();
    for (uint32_t n = 0; n < count_.read(); n++)
        arr_.write((head_.read() + n) % size_, RobEntry{});
    head_.write(0);
    tail_.write(0);
    count_.write(0);
}

} // namespace riscy
