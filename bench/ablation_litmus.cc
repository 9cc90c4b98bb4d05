/**
 * @file
 * The litmus CI gate: full-corpus seed-matrix sweeps under both memory
 * models on the event-driven scheduler, checked against the reference
 * enumerator; coverage obligations; a scheduler-equivalence cross
 * check; the negative control (TSO with the evict-kill disabled MUST
 * be caught, with a complete repro bundle); and a fuzz smoke campaign.
 *
 * Usage: ablation_litmus [--ci] [runs] [seed0] [out.json]
 *
 *   runs   seeds per (entry, model) cell              (default 60)
 *   seed0  first seed of the matrix                   (default 1)
 *
 * Gates (each reported in the JSON config block and on stdout):
 *   g1 clean        zero forbidden outcomes and zero hangs everywhere
 *   g2 coverage     every per-entry mustObserve obligation reached
 *   g3 sched_equiv  exact per-seed spot check: Exhaustive and Parallel
 *                   reproduce the EventDriven outcome
 *   g4 negative     MP under TSO with tsoEvictKill=false yields a
 *                   forbidden outcome within the seed matrix and the
 *                   repro bundle written for it is complete
 *   g5 fuzz         randomized smoke campaign clean under both models
 *
 * Without --ci the exit code is always 0 (small ad-hoc matrices
 * legitimately miss coverage obligations); with --ci it is 0 iff every
 * gate holds. g1/g3/g4 are run-count-independent correctness gates and
 * are reported either way.
 */
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_common.hh"
#include "litmus/corpus.hh"
#include "litmus/fuzz.hh"
#include "litmus/runner.hh"

using namespace riscy;
using namespace riscy::litmus;
using cmd::SchedulerKind;

namespace {

constexpr SchedulerKind kMatrixSched = SchedulerKind::EventDriven;

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

bool
fileHas(const std::string &path, const char *needle)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str().find(needle) != std::string::npos;
}

struct Cell {
    const CorpusEntry *entry = nullptr;
    MemModel model = MemModel::Tso;
    SweepResult sw;
    uint64_t wallNs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool ci = false;
    uint32_t runs = 60;
    uint64_t seed0 = 1;
    std::string outPath;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--ci"))
            ci = true;
        else
            pos.push_back(argv[i]);
    }
    if (pos.size() > 0)
        runs = uint32_t(std::strtoul(pos[0], nullptr, 0));
    if (pos.size() > 1)
        seed0 = std::strtoull(pos[1], nullptr, 0);
    if (pos.size() > 2)
        outPath = pos[2];

    // ---- Main matrix: corpus x models x seeds ----------------------
    std::printf("litmus gate: %zu programs x 2 models x %u seeds under %s "
                "(seed0=%" PRIu64 ")\n",
                corpus().size(), runs, cmd::toString(kMatrixSched), seed0);
    std::printf("%-12s %-4s %9s %8s %9s %6s %6s\n", "test", "mdl",
                "outcomes", "allowed", "forbidden", "hangs", "cov");

    std::vector<Cell> cells;
    bool g1Clean = true;
    for (const CorpusEntry &e : corpus()) {
        for (MemModel m : {MemModel::Tso, MemModel::Wmm}) {
            RunConfig cfg;
            cfg.model = m;
            cfg.sched = kMatrixSched;
            uint64_t t0 = nowNs();
            Cell c;
            c.entry = &e;
            c.model = m;
            c.sw = sweep(e.prog, cfg, seed0, runs);
            c.wallNs = nowNs() - t0;
            g1Clean &= c.sw.clean();
            std::printf("%-12s %-4s %9zu %8zu %9zu %6u %5.0f%%%s\n",
                        e.prog.name.c_str(), toString(m), c.sw.hist.size(),
                        c.sw.allowed.size(), c.sw.forbidden.size(),
                        c.sw.hangs, 100.0 * c.sw.coverage(),
                        c.sw.clean() ? "" : "  <-- VIOLATION");
            cells.push_back(std::move(c));
        }
    }

    // ---- g2: coverage obligations (per entry x model) --------------
    bool g2Coverage = true;
    uint32_t obligations = 0, obligationsMet = 0;
    for (const CorpusEntry &e : corpus()) {
        for (MemModel m : {MemModel::Tso, MemModel::Wmm}) {
            const auto &must = m == MemModel::Tso ? e.mustObserveTso
                                                  : e.mustObserveWmm;
            for (Outcome o : must) {
                obligations++;
                bool seen = false;
                for (const Cell &c : cells)
                    if (c.entry == &e && c.model == m && c.sw.observed(o))
                        seen = true;
                if (seen) {
                    obligationsMet++;
                } else {
                    g2Coverage = false;
                    std::printf("coverage MISS: %s/%s never observed %s\n",
                                e.prog.name.c_str(), toString(m),
                                formatOutcome(e.prog, o).c_str());
                }
            }
        }
    }

    // ---- g3: scheduler equivalence --------------------------------
    // The kernel guarantees identical cycle-level behavior across
    // schedulers: an exact per-seed spot check under the other two
    // (too slow for the full matrix).
    bool g3Sched = true;
    for (const char *name : {"SB", "MP"}) {
        const CorpusEntry &e = corpusEntry(name);
        for (MemModel m : {MemModel::Tso, MemModel::Wmm}) {
            for (uint64_t s = seed0; s < seed0 + 3; s++) {
                RunConfig cfg;
                cfg.model = m;
                cfg.seed = s;
                cfg.sched = kMatrixSched;
                RunResult ref = runOnce(e.prog, cfg);
                for (SchedulerKind sk :
                     {SchedulerKind::Exhaustive, SchedulerKind::Parallel}) {
                    cfg.sched = sk;
                    RunResult r = runOnce(e.prog, cfg);
                    if (r.outcome != ref.outcome || r.hang != ref.hang) {
                        g3Sched = false;
                        std::printf("scheduler DIVERGENCE: %s/%s seed "
                                    "%" PRIu64 " %s != %s\n",
                                    name, toString(m), s, cmd::toString(sk),
                                    cmd::toString(kMatrixSched));
                    }
                }
            }
        }
    }

    // ---- g4: negative control -------------------------------------
    // Disabling TSO's eviction kill must surface the MP reorder as a
    // forbidden outcome, and the repro bundle for it must be complete.
    const CorpusEntry &mp = corpusEntry("MP");
    RunConfig neg;
    neg.model = MemModel::Tso;
    neg.mutateCfg = [](SystemConfig &s) { s.core.tsoEvictKill = false; };
    uint32_t negRuns = runs < 60 ? 60 : runs;
    SweepResult negSw = sweep(mp.prog, neg, seed0, negRuns);
    bool g4Negative = !negSw.forbidden.empty();
    std::string negBundle;
    if (g4Negative) {
        neg.seed = negSw.firstForbiddenSeed;
        negBundle = "litmus_repro/ci-negative-control";
        RunResult rr = writeReproBundle(negBundle, mp.prog, neg, &negSw);
        g4Negative &= !rr.hang;
        for (const char *f : {"/repro.txt", "/trace.kanata",
                              "/trace_timeline.json", "/flight.txt"})
            g4Negative &= std::ifstream(negBundle + f).good();
        g4Negative &= fileHas(negBundle + "/repro.txt", "FORBIDDEN");
    }
    std::printf("negative control (tsoEvictKill=false): %s (seed "
                "%" PRIu64 ", bundle %s)\n",
                g4Negative ? "caught" : "NOT CAUGHT",
                negSw.firstForbiddenSeed,
                negBundle.empty() ? "-" : negBundle.c_str());

    // ---- g5: fuzz smoke -------------------------------------------
    bool g5Fuzz = true;
    uint64_t fuzzRuns = 0;
    uint32_t fuzzPrograms = 0;
    for (MemModel m : {MemModel::Tso, MemModel::Wmm}) {
        FuzzConfig fc;
        fc.run.model = m;
        fc.seed = 20260808 ^ uint64_t(m);
        fc.programs = 8;
        fc.runsPerProgram = 3;
        fc.bundleDir = "litmus_repro/ci-fuzz";
        FuzzResult fr = fuzz(fc);
        fuzzRuns += fr.runs;
        fuzzPrograms += fr.programs;
        g5Fuzz &= fr.clean();
        std::printf("fuzz smoke %s: %u programs, %" PRIu64
                    " runs, %zu failures, %u hangs\n",
                    toString(m), fr.programs, fr.runs, fr.failures.size(),
                    fr.hangs);
    }

    // ---- JSON -----------------------------------------------------
    bench::JsonObject config;
    config.put("runs_per_cell", runs)
        .put("seed0", seed0)
        .put("schedulers_matrix", cmd::toString(kMatrixSched))
        .put("schedulers_spot", "exhaustive,parallel")
        .put("obligations", obligations)
        .put("obligations_met", obligationsMet)
        .put("negative_control_seed", negSw.firstForbiddenSeed)
        .put("fuzz_programs", fuzzPrograms)
        .put("fuzz_runs", fuzzRuns)
        .put("gate_clean", g1Clean)
        .put("gate_coverage", g2Coverage)
        .put("gate_sched_equiv", g3Sched)
        .put("gate_negative_control", g4Negative)
        .put("gate_fuzz", g5Fuzz);

    std::vector<bench::JsonObject> rows;
    for (const Cell &c : cells) {
        bench::JsonObject row;
        row.put("test", c.entry->prog.name)
            .put("model", toString(c.model))
            .put("scheduler", cmd::toString(kMatrixSched))
            .put("runs", runs)
            .put("outcomes_seen", uint64_t(c.sw.hist.size()))
            .put("outcomes_allowed", uint64_t(c.sw.allowed.size()))
            .put("forbidden", uint64_t(c.sw.forbidden.size()))
            .put("hangs", c.sw.hangs)
            .put("coverage", c.sw.coverage())
            .put("wall_ms", double(c.wallNs) / 1e6);
        // Weak-outcome observation counts: the shaker's yield on the
        // buffering-only outcomes this entry is obliged to reach.
        const auto &must = c.model == MemModel::Tso
                               ? c.entry->mustObserveTso
                               : c.entry->mustObserveWmm;
        uint64_t weak = 0;
        for (Outcome o : must) {
            auto it = c.sw.hist.find(o);
            weak += it == c.sw.hist.end() ? 0 : it->second;
        }
        row.put("weak_obligations", uint64_t(must.size()))
            .put("weak_hits", weak);
        rows.push_back(std::move(row));
    }
    bench::writeBenchJson("litmus", config, rows, outPath);

    bool pass = g1Clean && g2Coverage && g3Sched && g4Negative && g5Fuzz;
    std::printf("gates: clean=%s coverage=%s sched_equiv=%s "
                "negative_control=%s fuzz=%s => %s\n",
                g1Clean ? "pass" : "FAIL", g2Coverage ? "pass" : "FAIL",
                g3Sched ? "pass" : "FAIL", g4Negative ? "pass" : "FAIL",
                g5Fuzz ? "pass" : "FAIL", pass ? "PASS" : "FAIL");
    return ci ? (pass ? 0 : 1) : 0;
}
