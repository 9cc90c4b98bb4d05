/**
 * @file
 * Per-layer instrumentation that lives in the benchmark's own files:
 * host-time spans around the calls into each layer's public API, the
 * rule-name -> module map for per-module rule accounting, and a timing
 * shim between HostDevice and KvHost. Nothing here reaches inside the
 * simulator; it only wraps and reads what the public API exposes.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory.hh"

namespace perfbench {

/** Host monotonic time in nanoseconds. */
uint64_t nowNs();

/**
 * In-memory span recorder. Spans nest through a stack (the parent is
 * the innermost open span); each carries the id of the batch run it
 * belongs to. A disabled tracer records nothing, so the timed runs
 * pay only the clock reads the benchmark needs anyway.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        uint64_t startNs = 0, endNs = 0;
        int parent = -1; ///< index into spans(), -1 for a root
        uint32_t run = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void setRun(uint32_t run) { run_ = run; }

    /** Open a span; close it with end(). @return its index or -1. */
    int begin(const std::string &name);
    void end(int span);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans as Chrome trace-event JSON ("X" events, µs),
     * with @p metadataJson (one JSON object) under "metadata".
     * @return false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &metadataJson) const;

  private:
    bool enabled_;
    uint32_t run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Time @p fn as one span named @p name. @return host seconds. */
template <class F>
double
timed(Tracer &tr, const std::string &name, F &&fn)
{
    int s = tr.begin(name);
    uint64_t t0 = nowNs();
    fn();
    uint64_t t1 = nowNs();
    tr.end(s);
    return double(t1 - t0) * 1e-9;
}

/** Modules the per-module rule accounting groups rules into. */
constexpr const char *kRuleModules[] = {"ooo",   "frontend", "lsq",
                                        "tlb",   "cache",    "mem"};
constexpr int kNumRuleModules = 6;

/**
 * Module index (into kRuleModules) of rule @p name; -1 when no
 * module's pattern matches it, -2 when more than one does.
 */
int ruleModule(const std::string &name);

/**
 * The map's self-test: every name must map to exactly one module.
 * @return one line per offending rule (empty when the map is total).
 */
std::vector<std::string> ruleMapErrors(const std::vector<std::string> &names);

/**
 * KvTraffic shim counting and timing the KV host's pop() calls
 * (done() passes straight through). Counters are per hart, because
 * under the parallel scheduler each hart's MMIO runs on its own domain
 * thread; a hart's slot is padded to a cache line so the counting adds
 * no false sharing.
 */
class KvTimingShim : public riscy::KvTraffic
{
  public:
    struct Counts {
        uint64_t pops = 0;
        uint64_t emptyPops = 0; ///< polls that found no arrived request
        uint64_t popNs = 0;     ///< host time inside the KV host's pop()
    };

    KvTimingShim(riscy::KvTraffic &inner, uint32_t harts);

    uint64_t pop(uint32_t hart, uint64_t now) override;
    void done(uint32_t hart, uint64_t reqId, uint64_t now) override;

    /** Sum over harts (read between runs only). */
    Counts total() const;

  private:
    struct alignas(64) Slot {
        Counts c;
    };
    riscy::KvTraffic &inner_;
    std::vector<Slot> slots_;
};

} // namespace perfbench
