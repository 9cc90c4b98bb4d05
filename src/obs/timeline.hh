/**
 * @file
 * Rule/domain timeline tracing: which rule fired when, in which
 * domain, rendered as Chrome/Perfetto trace-event JSON (open the file
 * in ui.perfetto.dev or chrome://tracing). One timeline serves all
 * three SchedulerKinds; each partition domain becomes a named track.
 *
 * Thread-safety: events are appended into per-domain buffers indexed
 * by the rule's *elaborated* domain. Under the parallel scheduler each
 * domain is driven by exactly one worker per cycle, so every buffer
 * has a single writer; under the sequential schedulers everything runs
 * on the driving thread. No locks needed.
 *
 * Determinism: within one (domain, cycle) all three schedulers fire
 * rules in increasing schedule position, so per-domain buffers fill in
 * the canonical order (cycle, schedule position) without sorting, and
 * the exported JSON is byte-identical across schedulers. Only fires
 * are recorded: attempt patterns are scheduler-specific (the
 * event-driven walk skips sleeping rules).
 */
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cmd {
class Kernel;
class Rule;
} // namespace cmd

namespace obs {

class RuleTimeline
{
  public:
    /** Per-domain cap on recorded events (memory bound); drops are
     *  counted and exported, never silent. */
    static constexpr uint64_t kMaxEventsPerDomain = 1u << 22;

    /** Build after Kernel::elaborate() (needs domains + schedule). */
    explicit RuleTimeline(const cmd::Kernel &k);

    /** Hook target; called from KernelObserver::ruleFired with
     *  @p domain = the rule's elaborated domain. */
    void record(const cmd::Rule &r, uint64_t cycle, uint32_t domain);

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    bool write(std::ostream &os) const;
    bool writeFile(const std::string &path) const;

    uint64_t recorded() const;
    uint64_t dropped() const;

  private:
    struct Ev {
        uint64_t cycle;
        uint32_t schedPos; ///< position in the elaborated schedule
    };

    struct DomainBuf {
        std::vector<Ev> events;
        uint64_t droppedEvents = 0;
    };

    const cmd::Kernel &k_;
    std::vector<DomainBuf> bufs_;
    /// rule names indexed by schedule position (stable post-elab)
    std::vector<std::string> ruleNames_;
};

} // namespace obs
