/**
 * @file
 * Configuration of the observability subsystem (src/obs). Kept free of
 * dependencies so proc/config.hh can embed it in SystemConfig without
 * pulling the sink implementations into every translation unit.
 */
#pragma once

#include <cstdint>
#include <string>

namespace obs {

/**
 * What to record and where to write it. All sinks default to off; a
 * System with every flag off installs no kernel observer at all, so
 * the disabled cost is exactly one untaken branch per hook site.
 */
struct ObsConfig {
    // ---- per-uop pipeline traces (Konata/Kanata sink)
    bool pipeline = false;
    /** Output file for the merged Konata trace of every traced core. */
    std::string pipelinePath = "trace.kanata";
    /** Stop tracing new uops past this many per core (memory bound);
     *  drops are counted and reported, never silent. */
    uint64_t maxPipelineUops = 1u << 20;

    // ---- rule/domain timeline (Chrome/Perfetto trace-event sink)
    bool timeline = false;
    /** Output file for the trace-event JSON. */
    std::string timelinePath = "trace_timeline.json";
    /**
     * Also record guard-failed attempts as instant events. Off by
     * default: attempt patterns differ by scheduler (the event-driven
     * walk skips sleeping rules), so the byte-identical-across-
    * schedulers guarantee of the timeline holds only for fire events.
     */
    bool timelineGuardFails = false;
    /** Per-domain cap on recorded timeline events (memory bound). */
    uint64_t maxTimelineEvents = 1u << 22;

    // ---- top-down CPI stacks (commit-point cycle attribution)
    bool cpi = false;

    /** Cores to trace (bit per hart); CPI and pipeline sinks only. */
    uint32_t coreMask = 0xffffffffu;

    bool traceCore(uint32_t hart) const
    {
        return hart < 32 && ((coreMask >> hart) & 1u);
    }
    /** Anything enabled that needs an installed kernel observer? */
    bool enabled() const { return pipeline || timeline || cpi; }
};

} // namespace obs
