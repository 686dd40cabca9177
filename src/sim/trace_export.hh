/**
 * @file
 * Chrome-tracing export of a trace's dispatches: one timeline
 * row per instruction queue (one process per chip), one duration
 * event per dispatched instruction (1 cycle = 1 µs in the viewer).
 * Load the output in chrome://tracing or https://ui.perfetto.dev to
 * see the two-dimensional schedule the compiler solved (the
 * interactive version of the paper's Fig. 11).
 */

#ifndef TSP_SIM_TRACE_EXPORT_HH
#define TSP_SIM_TRACE_EXPORT_HH

#include <string>
#include <vector>

#include "sim/exec_trace.hh"

namespace tsp {

/**
 * Renders the Dispatch events of @p events (a trace's, or
 * deriveSchedule()'s) as Chrome Trace Event JSON. @p programs holds
 * each traced chip's loaded program, in chip order: an event cites
 * its instruction by index into its queue's program.
 *
 * Chip c becomes pid c + 1 and its queues become thread ids grouped
 * by slice kind; timestamps are cycle offsets from the trace's start.
 * The instruction mnemonic is the event name and the full assembly
 * text is attached as an argument.
 */
std::string
traceToChromeJson(const std::vector<ExecutionTrace::Event> &events,
                  const std::vector<const AsmProgram *> &programs);

/** Convenience: writes @p events' JSON to @p path; returns success. */
bool writeChromeTrace(const std::vector<ExecutionTrace::Event> &events,
                      const std::vector<const AsmProgram *> &programs,
                      const std::string &path);

} // namespace tsp

#endif // TSP_SIM_TRACE_EXPORT_HH
