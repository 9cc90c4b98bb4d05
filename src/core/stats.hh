/**
 * @file
 * Lightweight statistics package for CMD designs.
 *
 * Modules create named counters, histograms and derived (formula)
 * statistics inside a StatGroup; the group can be dumped as text or
 * JSON, or walked programmatically by benchmark harnesses. Stats are
 * NOT architectural state: they never enter kernel snapshots, so
 * instrumenting a design cannot perturb the lockstep digest
 * comparisons.
 *
 * Stats do follow the transaction discipline, though: they count only
 * committed work. A Stat::inc() or Histogram::sample() made inside a
 * rule body or atomic action is staged on the transaction in flight
 * (detail::activeStats) and applied when it commits; an aborted body
 * (a failed guard, a CM block, a retry or a fault) leaves every stat
 * as it was. Outside a transaction (construction, testbench code,
 * between-cycle observers) an update applies at once. Stat::set() and
 * reset() always apply at once: they are for between-cycle exports
 * and warmup resets, not for rule bodies.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cmd {

class Stat;
class Histogram;

namespace detail {
/**
 * Stat updates staged by one transaction: applied in order when it
 * commits, dropped when it aborts. Each execution context owns one;
 * the kernel points activeStats at it while a body runs.
 */
struct StatStage
{
    struct Sample
    {
        Histogram *hist;
        uint64_t value, n;
    };
    std::vector<std::pair<Stat *, uint64_t>> incs;
    std::vector<Sample> samples;

    void apply();
    void
    drop()
    {
        incs.clear();
        samples.clear();
    }
};

/// Stage of the transaction running on this thread; null outside one.
inline thread_local StatStage *activeStats = nullptr;
} // namespace detail

/** A single monotonically updated 64-bit statistic. */
class Stat
{
  public:
    Stat() = default;

    /** Add @p n, staged until commit inside a transaction. */
    void
    inc(uint64_t n = 1)
    {
        if (detail::StatStage *st = detail::activeStats)
            st->incs.emplace_back(this, n);
        else
            value_ += n;
    }
    void set(uint64_t v) { value_ = v; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    friend struct detail::StatStage;

    uint64_t value_ = 0;
};

/**
 * A linear-bucketed histogram over [lo, hi): sample values below lo
 * land in the first bucket, values at or above hi in the overflow
 * bucket. Tracks count/sum/min/max alongside the bucket array, so a
 * reader can recover the mean without re-walking samples.
 */
class Histogram
{
  public:
    Histogram(uint64_t lo, uint64_t hi, uint32_t nbuckets);

    /** Record @p n samples of @p v, staged until commit inside a
     *  transaction (see Stat::inc()). */
    void sample(uint64_t v, uint64_t n = 1);
    void reset();

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return min_; }
    uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0; }
    uint64_t lo() const { return lo_; }
    uint64_t hi() const { return hi_; }
    /** Bucket counts; back() is the >= hi overflow bucket. */
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    /** Inclusive lower bound of bucket @p i. */
    uint64_t bucketLo(uint32_t i) const { return lo_ + i * width_; }

    /** "count=... mean=... [lo,hi) buckets" one-liner. */
    std::string summary() const;
    /** JSON object: {"count":..,"sum":..,...,"buckets":[..]}. */
    std::string json() const;

  private:
    friend struct detail::StatStage;

    void record(uint64_t v, uint64_t n);

    uint64_t lo_, hi_, width_;
    uint64_t count_ = 0, sum_ = 0;
    uint64_t min_ = ~0ull, max_ = 0;
    std::vector<uint64_t> buckets_;
};

/** Minimal JSON string escaping (quotes and backslashes). */
std::string jsonEscape(const std::string &s);
/** Format a double the way the stats JSON dumps do. */
std::string jsonDouble(double v);

/**
 * A named collection of statistics. Hierarchy is by dotted names;
 * groups are cheap and live for the life of the simulation.
 */
class StatGroup
{
  public:
    /** Create or fetch a counter named @p name within this group. */
    Stat &counter(const std::string &name);

    /** Create or fetch a histogram (first call fixes the shape). */
    Histogram &histogram(const std::string &name, uint64_t lo, uint64_t hi,
                         uint32_t nbuckets);

    /**
     * Register a derived statistic: @p fn is evaluated at dump time
     * (e.g. IPC = instret/cycles, MPKI = 1000*misses/instret).
     * Re-registering a name replaces the formula.
     */
    void formula(const std::string &name, std::function<double()> fn);

    /** True if a counter with this name exists. */
    bool has(const std::string &name) const;

    /** Value of an existing counter; 0 if absent. */
    uint64_t get(const std::string &name) const;

    /** Existing histogram, or null. */
    const Histogram *getHistogram(const std::string &name) const;

    /** Value of a formula statistic; 0 if absent. */
    double getFormula(const std::string &name) const;

    /** All counters in insertion order. */
    const std::vector<std::pair<std::string, Stat *>> &all() const
    {
        return order_;
    }

    /**
     * Reset every counter and histogram in the group to zero (formulas
     * recompute from their inputs and need no reset). This is the
     * warmup-window hook: System::statsResetAtCycle calls it on every
     * module group so post-warmup dumps exclude the cold caches.
     */
    void resetAll();

    /** Dump "prefix.name value" lines (counters, then histograms and
     *  formula values). */
    void dump(std::ostream &os, const std::string &prefix) const;

    /**
     * One JSON object holding every counter, histogram and formula of
     * the group. This is the machine-readable path shared with
     * bench/bench_common.hh (JsonObject::putRaw), so benches embed
     * module stats without hand-assembling JSON.
     */
    std::string json() const;

  private:
    std::map<std::string, Stat> stats_;
    std::vector<std::pair<std::string, Stat *>> order_;
    std::map<std::string, Histogram> histos_;
    std::vector<std::pair<std::string, Histogram *>> histoOrder_;
    std::vector<std::pair<std::string, std::function<double()>>> formulas_;
};

} // namespace cmd
