/**
 * @file
 * Shared harness for the figure-reproduction benchmarks: run a
 * workload on a named configuration, collect event counts, and print
 * paper-style rows. Each fig*_ binary regenerates one table/figure of
 * the paper's evaluation (Section VI); EXPERIMENTS.md records the
 * paper-vs-measured comparison.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads/workloads.hh"

namespace riscy::bench {

using workloads::Image;
using workloads::Workload;

struct RunResult {
    uint64_t cycles = 0;
    uint64_t instret = 0;
    System::EventCounts ev;
    /** CPI-stack JSON fragment (hart 0) when SystemConfig::obs.cpi was
     *  on; embed into a result row with JsonObject::putRaw. */
    std::string cpiJson;
    double ipc() const { return double(instret) / double(cycles); }
    /** Paper's single-core metric: 1 / cycle count. */
    double perf() const { return 1.0 / double(cycles); }
    double
    perKilo(uint64_t n) const
    {
        return 1000.0 * double(n) / double(instret);
    }
};

/** Run one single-threaded workload on a fresh system. */
inline RunResult
runOn(const SystemConfig &cfg, const Workload &w,
      uint64_t maxCycles = 400000000)
{
    System sys(cfg);
    Image img = w.build(sys, 1);
    sys.elaborate();
    RunResult r;
    r.cycles = workloads::runToCompletion(sys, img, maxCycles);
    r.instret = sys.instret(0);
    r.ev = sys.events(0);
    sys.writeTraces();
    if (const obs::CpiStack *cp = sys.cpi(0))
        r.cpiJson = cp->json(r.instret);
    return r;
}

/** Run one PARSEC workload with @p threads on the quad-core. */
inline uint64_t
runParsecRoi(bool tso, const Workload &w, uint32_t threads,
             uint64_t maxCycles = 400000000)
{
    SystemConfig cfg = SystemConfig::multicore(tso);
    System sys(cfg);
    Image img = w.build(sys, threads);
    sys.elaborate();
    workloads::runToCompletion(sys, img, maxCycles);
    return workloads::roiCycles(sys);
}

inline void
printHeader(const std::string &title,
            const std::vector<std::string> &cols)
{
    std::printf("\n== %s ==\n%-14s", title.c_str(), "benchmark");
    for (const auto &c : cols)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
}

inline void
printRow(const std::string &name, const std::vector<double> &vals,
         const char *fmt = " %12.3f")
{
    std::printf("%-14s", name.c_str());
    for (double v : vals)
        std::printf(fmt, v);
    std::printf("\n");
    std::fflush(stdout);
}

inline double
geomean(const std::vector<double> &v)
{
    double acc = 1.0;
    for (double x : v)
        acc *= x;
    return std::pow(acc, 1.0 / double(v.size()));
}

inline double
harmonicMean(const std::vector<double> &v)
{
    double acc = 0;
    for (double x : v)
        acc += 1.0 / x;
    return double(v.size()) / acc;
}

// ---- machine-readable BENCH_*.json emission ------------------------
//
// Every bench binary that tracks a perf trajectory across PRs writes a
// BENCH_<name>.json through writeBenchJson() so the files share one
// schema: top-level bench name, host info (so speedups measured on a
// ci runner vs a laptop are interpretable), a config object, and an
// array of result rows (typically cycles / instret / wall_ns plus
// bench-specific fields).

/** Insertion-ordered JSON object builder (values pre-serialized). */
class JsonObject
{
  public:
    JsonObject &
    put(const std::string &k, const std::string &v)
    {
        return putRaw(k, "\"" + escape(v) + "\"");
    }
    JsonObject &put(const std::string &k, const char *v)
    {
        return put(k, std::string(v));
    }
    JsonObject &put(const std::string &k, bool v)
    {
        return putRaw(k, v ? "true" : "false");
    }
    JsonObject &
    put(const std::string &k, double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return putRaw(k, buf);
    }
    JsonObject &
    put(const std::string &k, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
        return putRaw(k, buf);
    }
    JsonObject &
    put(const std::string &k, int64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", (long long)v);
        return putRaw(k, buf);
    }
    JsonObject &put(const std::string &k, int v)
    {
        return put(k, int64_t(v));
    }
    JsonObject &put(const std::string &k, unsigned v)
    {
        return put(k, uint64_t(v));
    }
    /** Digests and such, as a hex string (JSON numbers lose 64 bits). */
    JsonObject &
    putHex(const std::string &k, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "\"%#llx\"", (unsigned long long)v);
        return putRaw(k, buf);
    }
    /** Nested object/array: value is inserted verbatim. */
    JsonObject &
    putRaw(const std::string &k, const std::string &jsonValue)
    {
        kv_.emplace_back(k, jsonValue);
        return *this;
    }

    /** Serialize; @p indent spaces of leading indentation per line,
     *  one key per line when nonzero, compact single line when 0. */
    std::string
    str(unsigned indent = 0) const
    {
        std::string pad(indent, ' ');
        std::string out = "{";
        for (size_t i = 0; i < kv_.size(); i++) {
            out += indent ? "\n" + pad + "  " : (i ? " " : "");
            out += "\"" + escape(kv_[i].first) + "\": " + kv_[i].second;
            if (i + 1 < kv_.size())
                out += ",";
        }
        out += indent ? "\n" + pad + "}" : "}";
        return out;
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    std::vector<std::pair<std::string, std::string>> kv_;
};

/**
 * Simulation-speed fields shared by every BENCH_*.json row: the host
 * wall time and the simulated rate it implies. @p units is the
 * bench's retired unit: instructions, or cycles where a bench counts
 * no instructions.
 */
inline JsonObject &
putSimSpeed(JsonObject &row, uint64_t units, uint64_t wallNs)
{
    row.put("wall_ms", double(wallNs) / 1e6);
    // KIPS = thousand retired units per host second.
    row.put("simulated_kips",
            wallNs ? 1e6 * double(units) / double(wallNs) : 0.0);
    // Stamped per row (not only in the top-level host object) so a
    // single row pasted out of a BENCH_*.json — e.g. a parallel
    // speedup measured on a 1-thread CI runner — carries the context
    // needed to interpret it.
    row.put("hardware_threads",
            uint64_t(std::thread::hardware_concurrency()));
    return row;
}

/** Host info stamped into every BENCH_*.json. */
inline JsonObject
hostInfo()
{
    JsonObject h;
    h.put("hardware_threads",
          uint64_t(std::thread::hardware_concurrency()));
#ifdef __VERSION__
    h.put("compiler", __VERSION__);
#endif
    return h;
}

/**
 * Write BENCH_<bench>.json (or @p path when nonempty) in the shared
 * schema. @return true if the file was written.
 */
inline bool
writeBenchJson(const std::string &bench, const JsonObject &config,
               const std::vector<JsonObject> &results,
               std::string path = "")
{
    if (path.empty())
        path = "BENCH_" + bench + ".json";
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(f, "  \"host\": %s,\n", hostInfo().str(2).c_str());
    std::fprintf(f, "  \"config\": %s,\n", config.str(2).c_str());
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); i++) {
        std::fprintf(f, "    %s%s\n", results[i].str().c_str(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace riscy::bench
