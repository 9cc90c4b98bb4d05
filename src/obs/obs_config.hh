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
    /** Output file for the merged Konata trace of every core. */
    std::string pipelinePath = "trace.kanata";

    // ---- rule/domain timeline (Chrome/Perfetto trace-event sink)
    bool timeline = false;
    /** Output file for the trace-event JSON. */
    std::string timelinePath = "trace_timeline.json";

    // ---- top-down CPI stacks (commit-point cycle attribution)
    bool cpi = false;

    /** Anything enabled that needs an installed kernel observer? */
    bool enabled() const { return pipeline || timeline || cpi; }
};

} // namespace obs
