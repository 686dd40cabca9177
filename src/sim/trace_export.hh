/**
 * @file
 * Chrome-tracing export of a recording's dispatches: one timeline
 * row per instruction queue (one process per chip), one duration
 * event per dispatched instruction (1 cycle = 1 µs in the viewer).
 * Load the output in chrome://tracing or https://ui.perfetto.dev to
 * see the two-dimensional schedule the compiler solved (the
 * interactive version of the paper's Fig. 11).
 */

#ifndef TSP_SIM_TRACE_EXPORT_HH
#define TSP_SIM_TRACE_EXPORT_HH

#include <string>

#include "sim/exec_trace.hh"

namespace tsp {

/**
 * Renders @p trace's Dispatch events as Chrome Trace Event JSON.
 *
 * Chip c becomes pid c + 1 and its queues become thread ids grouped
 * by slice kind; timestamps are cycle offsets from the recording's
 * start. The instruction mnemonic is the event name and the full
 * assembly text is attached as an argument.
 */
std::string traceToChromeJson(const ExecutionTrace &trace);

/** Convenience: writes @p trace's JSON to @p path; returns success. */
bool writeChromeTrace(const ExecutionTrace &trace,
                      const std::string &path);

} // namespace tsp

#endif // TSP_SIM_TRACE_EXPORT_HH
