/**
 * @file
 * Server-scale ablation: 16/32-core serverConfig systems (banked L2
 * directory slices + DramCtl contention model) serving the open-loop
 * key-value workload, swept over offered load from well below the
 * service capacity up past saturation. Open-loop arrivals do not wait
 * for service, so past the knee the backlog — and with it the p99/p99.9
 * sojourn time — grows without bound while throughput flattens at the
 * service capacity: the classic tail-latency curve this bench exists
 * to reproduce and gate on.
 *
 * Each sweep row reports throughput, latency percentiles, queue
 * depths, DramCtl row-hit-rate / per-bank load balance / occupancy,
 * and the CPI split between L2-hit and DRAM-bound D-misses
 * (d_miss vs d_miss_dram), plus the host time spent constructing and
 * elaborating its system. One extra entry constructs and elaborates
 * serverConfig(64, 4) without running it: elaboration cost at scale.
 *
 * Gates (--ci):
 *   g1 service     every sweep run completes every offered request,
 *                  all GETs verify and every worker exits cleanly
 *   g2 knee        per config, the peak load is past saturation:
 *                  completed throughput is capped well below the
 *                  offered load and p99 at peak is >= 4x p99 at the
 *                  lowest load. On the 4-point 16-core sweep the p99
 *                  slope over the last load step must additionally
 *                  exceed twice the slope over the first step (strict
 *                  superlinearity; the 32-core sweep's pre-knee region
 *                  is not flat — 32 cores contend on 4 banks from the
 *                  start — so the slope test is 16-core only)
 *   g3 dram        the contention model is actually exercised: DRAM
 *                  reads > 0 and 0 < rowHitRate <= 1 on every row
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cache/l2_banks.hh"
#include "server/kv.hh"

using namespace riscy;
using namespace riscy::bench;

namespace {

constexpr Addr kEntry = kDramBase;

/** Worker stacks above the code image and the KV table. */
std::vector<Addr>
stacks(uint32_t n)
{
    std::vector<Addr> s;
    for (uint32_t i = 0; i < n; i++)
        s.push_back(kEntry + 0x400000 + i * 0x10000);
    return s;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

server::KvConfig
kvConfigFor(uint32_t cores, double load, uint32_t requests)
{
    server::KvConfig kc;
    kc.harts = cores;
    kc.requests = requests;
    kc.reqPerKilocycle = load;
    kc.keys = 4096;
    kc.tableSlots = 8192;
    kc.zipf = 0.8;
    kc.putFrac = 0.1;
    kc.seed = 1234;
    return kc;
}

/** Host cost of building one system: construction and elaboration. */
struct BuildCost {
    double constructMs = 0, elaborateMs = 0;
    uint64_t rules = 0;

    void
    put(JsonObject &o) const
    {
        o.put("construct_ms", constructMs)
            .put("elaborate_ms", elaborateMs)
            .put("rules", rules);
    }
};

/** One offered-load point: fresh system, run to drain, full stats. */
struct SweepRow {
    std::string config;
    uint32_t cores = 0, banks = 0;
    BuildCost build;
    double load = 0; ///< offered req / kilocycle (aggregate)
    server::KvSummary s;
    bool ok = false; ///< drained, verified, clean exits
    uint64_t cycles = 0, instret = 0, wallNs = 0;
    double rowHitRate = 0;
    uint64_t dramReads = 0, dramWrites = 0;
    uint64_t bankReqsMin = 0, bankReqsMax = 0;
    double bankOccMeanMax = 0; ///< busiest bank's mean queue occupancy
    uint64_t cpiDMiss = 0, cpiDMissDram = 0, cpiCycles = 0;
};

SweepRow
runSweepPoint(uint32_t cores, uint32_t banks, double load,
              uint32_t requests, uint64_t maxCycles)
{
    SystemConfig cfg = SystemConfig::serverConfig(cores, banks);
    cfg.scheduler = cmd::SchedulerKind::EventDriven;
    cfg.obs.cpi = true;
    uint64_t c0 = nowNs();
    System sys(cfg);
    uint64_t c1 = nowNs();

    server::KvConfig kc = kvConfigFor(cores, load, requests);
    server::KvHost kv(kc);
    server::preloadKvTable(sys.mem(), kc);
    sys.host().attachKv(&kv);

    asmkit::Assembler a(kEntry);
    server::emitKvWorker(a, kc);
    a.load(sys.mem(), kEntry);
    uint64_t e0 = nowNs();
    sys.elaborate();
    uint64_t e1 = nowNs();
    sys.start(kEntry, 0, stacks(cores));

    uint64_t t0 = nowNs();
    bool exited = sys.run(maxCycles);
    uint64_t t1 = nowNs();

    SweepRow r;
    r.config = cfg.name;
    r.cores = cores;
    r.banks = banks;
    r.build = {double(c1 - c0) * 1e-6, double(e1 - e0) * 1e-6,
               sys.kernel().rules().size()};
    r.load = load;
    r.s = kv.summarize();
    r.cycles = sys.kernel().cycleCount();
    r.wallNs = t1 - t0;
    r.ok = exited && !sys.host().failed() &&
           r.s.completed == r.s.offered;
    for (uint32_t i = 0; i < cores; i++) {
        if (sys.host().exitCode(i) != 0)
            r.ok = false;
        r.instret += sys.instret(i);
    }

    DramCtl &ctl = sys.hier().bankedFront()->dramCtl();
    cmd::StatGroup &st = ctl.stats();
    r.rowHitRate = st.getFormula("rowHitRate");
    r.dramReads = st.get("reads");
    r.dramWrites = st.get("writes");
    r.bankReqsMin = ~0ull;
    for (uint32_t b = 0; b < banks; b++) {
        uint64_t reqs = st.get(cmd::strfmt("bank%u.reqs", b));
        r.bankReqsMin = std::min(r.bankReqsMin, reqs);
        r.bankReqsMax = std::max(r.bankReqsMax, reqs);
        const cmd::Histogram *h =
            st.getHistogram(cmd::strfmt("bank%u.occupancy", b));
        if (h)
            r.bankOccMeanMax = std::max(r.bankOccMeanMax, h->mean());
    }
    for (uint32_t i = 0; i < cores; i++) {
        if (const obs::CpiStack *cp = sys.cpi(i)) {
            r.cpiDMiss += cp->count(obs::StallCause::DMiss);
            r.cpiDMissDram += cp->count(obs::StallCause::DMissDram);
            r.cpiCycles += cp->cycles();
        }
    }
    return r;
}

/** Construct and elaborate a serverConfig system; nothing runs. */
BuildCost
buildOnly(uint32_t cores, uint32_t banks)
{
    SystemConfig cfg = SystemConfig::serverConfig(cores, banks);
    uint64_t c0 = nowNs();
    System sys(cfg);
    uint64_t c1 = nowNs();
    sys.elaborate();
    uint64_t c2 = nowNs();
    return {double(c1 - c0) * 1e-6, double(c2 - c1) * 1e-6,
            sys.kernel().rules().size()};
}

} // namespace

int
main(int argc, char **argv)
{
    bool ci = false;
    // --ci uses the same sweep; the flag only arms the gates.
    for (int i = 1; i < argc; i++)
        if (std::string(argv[i]) == "--ci")
            ci = true;

    struct Config {
        uint32_t cores, banks, requests;
        std::vector<double> loads; ///< aggregate req / kilocycle
    };
    // Loads span ~1/20th of capacity up past saturation; the 32-core
    // sweep is shorter (3 points, fewer requests) to bound wall clock.
    std::vector<Config> configs = {
        {16, 4, 600, {10.0, 30.0, 100.0, 300.0}},
        {32, 4, 400, {20.0, 60.0, 400.0}},
    };

    std::vector<SweepRow> rows;
    bool ok = true;

    for (const Config &c : configs) {
        std::printf("\n== server-%uc%ub: %u requests, open-loop sweep "
                    "==\n%-10s %10s %10s %8s %8s %8s %8s %8s %10s %8s\n",
                    c.cores, c.banks, c.requests, "load/kc", "tput/kc",
                    "p50", "p95", "p99", "p99.9", "max", "maxQ",
                    "rowHit", "wall ms");
        for (double load : c.loads) {
            SweepRow r =
                runSweepPoint(c.cores, c.banks, load, c.requests,
                              /*maxCycles=*/20'000'000);
            std::printf("%-10.1f %10.2f %10llu %8llu %8llu %8llu %8llu "
                        "%8llu %10.3f %8.1f%s\n",
                        r.load, r.s.throughputPerKc,
                        (unsigned long long)r.s.p50,
                        (unsigned long long)r.s.p95,
                        (unsigned long long)r.s.p99,
                        (unsigned long long)r.s.p999,
                        (unsigned long long)r.s.maxLat,
                        (unsigned long long)r.s.maxQueueDepth,
                        r.rowHitRate, double(r.wallNs) * 1e-6,
                        r.ok ? "" : "  [FAILED]");
            rows.push_back(r);

            // g1: open loop or not, every offered request must be
            // served and verified before the workers exit.
            if (!r.ok) {
                std::printf("GATE g1: %s at load %.1f did not serve "
                            "cleanly (%llu/%llu completed)\n",
                            r.config.c_str(), r.load,
                            (unsigned long long)r.s.completed,
                            (unsigned long long)r.s.offered);
                ok = false;
            }
            // g3: the sweep must actually exercise the DRAM model.
            if (r.dramReads == 0 || r.rowHitRate <= 0.0 ||
                r.rowHitRate > 1.0) {
                std::printf("GATE g3: %s at load %.1f has degenerate "
                            "DRAM stats (reads %llu, rowHitRate %f)\n",
                            r.config.c_str(), r.load,
                            (unsigned long long)r.dramReads,
                            r.rowHitRate);
                ok = false;
            }
        }

        // g2: saturation knee. At peak load the service must be
        // saturated (throughput capped well below the offered load)
        // with the tail blown up vs the low-load baseline; on the
        // 4-point 16-core sweep the p99-vs-load curve must also be
        // strictly convex (last-step slope > 2x first-step slope).
        size_t n = c.loads.size();
        const SweepRow *first = &rows[rows.size() - n];
        const SweepRow *last = &rows[rows.size() - 1];
        const SweepRow *prev = &rows[rows.size() - 2];
        double sFirst = (double(first[1].s.p99) - double(first[0].s.p99)) /
                        (first[1].load - first[0].load);
        double sLast = (double(last->s.p99) - double(prev->s.p99)) /
                       (last->load - prev->load);
        std::printf("   knee: p99 slope %.2f cyc per req/kc (first "
                    "step) -> %.2f (last step), p99 %llux low-load, "
                    "peak tput %.1f/%.1f offered\n",
                    sFirst, sLast,
                    (unsigned long long)(first[0].s.p99
                                             ? last->s.p99 / first[0].s.p99
                                             : 0),
                    last->s.throughputPerKc, last->load);
        bool saturated = last->s.throughputPerKc < 0.75 * last->load &&
                         last->s.p99 >= 4 * first[0].s.p99;
        bool convex = n < 4 || sLast > 2.0 * sFirst;
        if (!saturated || !convex) {
            std::printf("GATE g2: no saturation knee on %s (p99 "
                        "slopes %.2f -> %.2f, p99 %llu vs %llu, peak "
                        "tput %.1f at offered %.1f)\n",
                        last->config.c_str(), sFirst, sLast,
                        (unsigned long long)last->s.p99,
                        (unsigned long long)first[0].s.p99,
                        last->s.throughputPerKc, last->load);
            ok = false;
        }
    }

    JsonObject jcfg;
    jcfg.put("workload", "kv-open-loop")
        .put("keys", uint64_t(4096))
        .put("table_slots", uint64_t(8192))
        .put("zipf", 0.8)
        .put("put_frac", 0.1)
        .put("seed", uint64_t(1234))
        .put("scheduler", cmd::toString(cmd::SchedulerKind::EventDriven));
    std::vector<JsonObject> out;
    for (const SweepRow &r : rows) {
        JsonObject o;
        o.put("config", r.config)
            .put("cores", r.cores)
            .put("banks", r.banks)
            .put("offered_per_kc", r.load)
            .put("offered", r.s.offered)
            .put("completed", r.s.completed)
            .put("ok", r.ok)
            .put("cycles", r.cycles)
            .put("instret", r.instret)
            .put("window_cycles", r.s.windowCycles)
            .put("throughput_per_kc", r.s.throughputPerKc)
            .put("p50", r.s.p50)
            .put("p95", r.s.p95)
            .put("p99", r.s.p99)
            .put("p999", r.s.p999)
            .put("max_latency", r.s.maxLat)
            .put("mean_latency", r.s.meanLat)
            .put("mean_queue_depth", r.s.meanQueueDepth)
            .put("max_queue_depth", r.s.maxQueueDepth)
            .put("dram_reads", r.dramReads)
            .put("dram_writes", r.dramWrites)
            .put("dram_row_hit_rate", r.rowHitRate)
            .put("bank_reqs_min", r.bankReqsMin)
            .put("bank_reqs_max", r.bankReqsMax)
            .put("bank_occ_mean_max", r.bankOccMeanMax)
            .put("cpi_d_miss", r.cpiDMiss)
            .put("cpi_d_miss_dram", r.cpiDMissDram)
            .put("cpi_cycles", r.cpiCycles);
        r.build.put(o);
        putSimSpeed(o, r.cycles, r.wallNs);
        out.push_back(std::move(o));
    }

    // Elaboration at scale: serverConfig(64, 4), built but not run.
    {
        const uint32_t cores = 64, banks = 4;
        BuildCost b = buildOnly(cores, banks);
        std::printf("\n== server-%uc%ub: construct %.1f ms, elaborate "
                    "%.1f ms, %llu rules (not run) ==\n",
                    cores, banks, b.constructMs, b.elaborateMs,
                    (unsigned long long)b.rules);
        JsonObject o;
        o.put("config", SystemConfig::serverConfig(cores, banks).name)
            .put("cores", cores)
            .put("banks", banks)
            .put("run", false);
        b.put(o);
        out.push_back(std::move(o));
    }
    bool wrote = writeBenchJson("server", jcfg, out);
    if (ci && !wrote) {
        std::fprintf(stderr,
                     "GATE: --ci requires BENCH_server.json to be "
                     "written\n");
        ok = false;
    }

    return ok ? 0 : 1;
}
