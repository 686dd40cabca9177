/**
 * @file
 * Record/replay tape interfaces for the stream fabric.
 *
 * The trace-replay execution tier (sim/exec_trace.hh) re-executes a
 * recorded run's dispatches against the real functional units but
 * routes every stream-fabric exchange through a tape instead of the
 * flowing registers: during *recording*, each produce is numbered and
 * each consume notes which produce (or a miss) it sampled; during
 * *replay*, produces write their vectors straight into a pinned,
 * liveness-compacted arena slot and consumes read arena pointers —
 * no Vec320 is copied on the tape hot path. The fabric is the
 * distribution point (mirroring attachFaultHooks): every StreamIo
 * consults the attached hooks per call, so no per-unit plumbing is
 * needed.
 */

#ifndef TSP_STREAM_TRACE_TAPE_HH
#define TSP_STREAM_TRACE_TAPE_HH

#include <cstddef>
#include <cstdint>

#include "arch/types.hh"

namespace tsp {

/** Consume-tape sentinel: nothing was flowing (missed operand). */
inline constexpr std::uint32_t kTapeMiss = 0xffffffffu;

/**
 * Provenance tag of a fabric entry written outside any StreamIo
 * (e.g. a test poking StreamFabric::write directly). Consuming such
 * an entry while recording poisons the trace — replay could not
 * reproduce the value. Consuming one *during* replay is a hard
 * failure: the tape never captured it, so the replayed consume would
 * silently read stale arena state instead.
 */
inline constexpr std::uint32_t kTapeUntagged = 0xfffffffeu;

/** Recording-side hooks (implemented by sim::TraceRecording). */
class TapeRecorder
{
  public:
    virtual ~TapeRecorder() = default;

    /** Numbers one produced vector. @return its provenance tag. */
    virtual std::uint32_t onProduce() = 0;

    /**
     * Notes one consume: @p tag is the sampled entry's provenance
     * (kTapeMiss when nothing was flowing, kTapeUntagged when the
     * entry had no StreamIo producer).
     */
    virtual void onConsume(std::uint32_t tag) = 0;
};

/**
 * Replay-side hooks (implemented by the trace replay driver).
 *
 * The implementation owns a pinned arena of Vec320 slots (one per
 * peak-live value of the recorded run, sim/exec_trace.hh). Produce
 * and consume exchange *pointers into that arena*; nothing copies.
 */
class TapeReplayer
{
  public:
    virtual ~TapeReplayer() = default;

    /**
     * Claims the arena slot for the next produce (in produce-call
     * order) and @return it; the caller writes the produced value
     * there in place.
     *
     * The caller must assign every data byte of the slot (slots are
     * liveness-reused, so unwritten bytes would leak a dead value's
     * bits). The ECC words may be left stale: no replay consumer
     * checks codes and the MEM slices regenerate them at store time
     * (MemSlice::setReplayMode).
     */
    virtual Vec320 *onProduce() = 0;

    /**
     * Resolves the next @p n consumes in one call: fills @p outs[i]
     * with the arena slot the recorded tape says consume i sampled,
     * or nullptr for a recorded miss. A single operand is a run of
     * one; multi-operand consumers (MXM LW bursts and fp16 pairs, VXM
     * groups) pay one virtual call per run. A pointer is valid until
     * the value's last recorded consume has run.
     */
    virtual void onConsumeRun(const Vec320 **outs, std::size_t n) = 0;
};

} // namespace tsp

#endif // TSP_STREAM_TRACE_TAPE_HH
