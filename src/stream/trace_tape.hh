/**
 * @file
 * The replay tape interface for the stream fabric.
 *
 * The trace-replay execution tier (sim/exec_trace.hh) re-executes a
 * traced run's dispatches against the real functional units but
 * routes every stream-fabric exchange through a tape instead of the
 * flowing registers: producers build their vectors straight in a
 * pinned, liveness-compacted arena slot and consumers read operands
 * in their arena slots — no Vec320 is copied on the tape hot path.
 * The trace says which produce each consume sampled; it is derived
 * from the program text (deriveTrace()). The fabric is the
 * distribution point (mirroring attachFaultHooks): every StreamIo
 * consults the attached replayer per call, so no per-unit plumbing is
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
 * The replay side of the tape (implemented by replayTrace()'s tape
 * player).
 *
 * The implementation owns a pinned arena of Vec320 slots (one per
 * peak-live value of the traced run, sim/exec_trace.hh). Produce
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
     * (MemSlice::setReplayMode). The slot is never one a consume of
     * the same dispatch or MXM tick returned, so the caller may build
     * the value while it still reads its operands; values nothing
     * consumes share slot 0.
     */
    virtual Vec320 *onProduce() = 0;

    /**
     * Resolves the next @p n consumes in one call: fills @p outs[i]
     * with the arena slot the tape says consume i sampled, or
     * nullptr for a miss. A single operand is a run of
     * one; multi-operand consumers (MXM LW bursts and fp16 pairs, VXM
     * groups, the SXM transposer) pay one virtual call per run. A
     * pointer is valid until the dispatch or MXM tick holding the
     * value's last consume on the tape ends.
     */
    virtual void onConsumeRun(const Vec320 **outs, std::size_t n) = 0;
};

} // namespace tsp

#endif // TSP_STREAM_TRACE_TAPE_HH
