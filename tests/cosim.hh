/**
 * @file
 * Shared test harness: assemble a program, run it on a System, and
 * co-simulate every committed instruction against the golden model
 * (the role Spike plays for RiscyOO).
 */
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "asmkit/assembler.hh"
#include "core/harden.hh"
#include "isa/golden.hh"
#include "proc/system.hh"

namespace riscy::test {

using namespace riscy::asmkit;

constexpr Addr kEntry = kDramBase;
constexpr Addr kStackTop = kDramBase + 0x200000;

/** FNV-1a digest of a kernel snapshot (the lockstep cosim tests' key). */
inline uint64_t
digest(const std::vector<uint8_t> &bytes)
{
    return cmd::CheckpointManager::fnv1a(bytes.data(), bytes.size());
}

/** Emit "shift a0, set exit bit, store to host EXIT, spin". */
inline void
emitExit(Assembler &a)
{
    a.slli(a0, a0, 1);
    a.ori(a0, a0, 1);
    a.li(t6, kMmioBase + static_cast<Addr>(HostReg::Exit));
    a.sd(a0, 0, t6);
    auto spin = a.newLabel();
    a.bind(spin);
    a.j(spin);
}

/** Commit-by-commit checker against the golden model. */
class CoSim
{
  public:
    void
    attach(System &sys, uint32_t hart, Addr entry, uint64_t satp, Addr sp)
    {
        goldenMem_ = sys.mem(); // snapshot after the program is loaded
        goldenHost_ = std::make_unique<HostDevice>(sys.cores());
        golden_ = std::make_unique<isa::GoldenModel>(goldenMem_,
                                                     *goldenHost_, hart,
                                                     entry);
        golden_->csrs().satp = satp;
        golden_->setReg(2, sp);
        golden_->setReg(10, hart);
        sys.setOnCommit(hart,
                        [this](const CommitRecord &r) { check(r); });
    }

    uint64_t checked() const { return checked_; }
    uint64_t mismatches() const { return mismatches_; }

  private:
    void
    check(const CommitRecord &r)
    {
        if (mismatches_ > 3)
            return; // stop cascading noise after divergence
        auto g = golden_->step();
        checked_++;
        if (r.pc != g.pc) {
            mismatches_++;
            ADD_FAILURE() << "commit #" << checked_ << ": pc "
                          << std::hex << r.pc << " != golden " << g.pc;
            return;
        }
        if (r.trapped != g.trapped) {
            mismatches_++;
            ADD_FAILURE() << "commit #" << checked_ << " pc=" << std::hex
                          << r.pc << ": trapped " << r.trapped
                          << " != golden " << g.trapped;
            return;
        }
        if (r.trapped) {
            if (r.cause != g.cause) {
                mismatches_++;
                ADD_FAILURE() << "trap cause " << r.cause
                              << " != " << g.cause;
            }
            return;
        }
        if (r.hasRd != g.hasRd || (r.hasRd && r.rd != g.rd)) {
            mismatches_++;
            ADD_FAILURE() << "commit #" << checked_ << " pc=" << std::hex
                          << r.pc << " ("
                          << isa::disasm(isa::decode(r.raw))
                          << "): rd mismatch";
            return;
        }
        if (r.hasRd && !r.volatileRd && !g.volatileRd &&
            r.rdVal != g.rdVal) {
            mismatches_++;
            ADD_FAILURE() << "commit #" << checked_ << " pc=" << std::hex
                          << r.pc << " ("
                          << isa::disasm(isa::decode(r.raw))
                          << "): x" << std::dec << int(r.rd) << " = "
                          << std::hex << r.rdVal << " != golden "
                          << g.rdVal;
        }
    }

    PhysMem goldenMem_;
    std::unique_ptr<HostDevice> goldenHost_;
    std::unique_ptr<isa::GoldenModel> golden_;
    uint64_t checked_ = 0;
    uint64_t mismatches_ = 0;
};

/** Assemble, run on the given config with co-sim, return exit code. */
inline uint64_t
runCosim(Assembler &a, SystemConfig cfg, uint64_t maxCycles = 2000000,
         uint64_t *checkedOut = nullptr)
{
    cfg.cores = 1;
    System sys(cfg);
    a.load(sys.mem(), kEntry);
    sys.elaborate();
    CoSim cosim;
    cosim.attach(sys, 0, kEntry, 0, kStackTop);
    sys.start(kEntry, 0, {kStackTop});
    bool done = sys.run(maxCycles);
    EXPECT_TRUE(done) << "program did not exit";
    EXPECT_EQ(cosim.mismatches(), 0u);
    EXPECT_GT(cosim.checked(), 0u);
    if (checkedOut)
        *checkedOut = cosim.checked();
    return sys.host().exitCode(0);
}

} // namespace riscy::test
