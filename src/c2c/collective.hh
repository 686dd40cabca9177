/**
 * @file
 * Statically scheduled multi-chip collectives over a Pod ring.
 *
 * Because every chip and every link is deterministic, a collective is
 * just one more compile-time schedule: the ring all-reduce below
 * pipelines a partial sum around the ring (each hop lands at a
 * precomputed cycle, the VXM folds in the local contribution) and
 * then broadcasts the total — with zero synchronization instructions
 * after the initial deskew.
 */

#ifndef TSP_C2C_COLLECTIVE_HH
#define TSP_C2C_COLLECTIVE_HH

#include "c2c/pod.hh"
#include "compiler/schedule.hh"

namespace tsp {

/** Placement and timing constants of the ring all-reduce. */
struct AllReducePlan
{
    /** MEM slice (east hemisphere) holding the vectors. */
    static constexpr int kSlice = 43;
    /** Word holding the chip's local contribution. */
    static constexpr MemAddr kLocalAddr = 0x10;
    /** Word receiving the reduced result. */
    static constexpr MemAddr kResultAddr = 0x20;
    /** Batched schedules address kLocalAddr+s / kResultAddr+s. */
    static constexpr int kMaxBatch = 16;

    Cycle phase = 0;     ///< Cycles per ring hop.
    Cycle firstSend = 0; ///< First Send's cycle.
    /** The exact retire cycle: the largest finishCycle() of the
     *  member programs, which a run of them takes. */
    Cycle finish = 0;
};

/**
 * Builds per-chip programs for a saturating int8 ring all-reduce of
 * one 320-byte vector: result = satadd(...satadd(V0, V1)..., Vn-1),
 * landed at kResultAddr on every chip.
 *
 * With @p batch > 1 the schedule reduces @p batch independent vectors
 * in one program: sample s lives at kLocalAddr+s / kResultAddr+s and
 * its ring hops occupy send slots offset by s*(n+1) — the offset is
 * collision-free because each chip's link slots within one sample are
 * {c, c+n}, so a cross-sample clash would need ds*(n+1) in {0, n},
 * which has no solution for 1 <= ds < batch. Samples pipeline through
 * the ring (sample s+1 starts while s broadcasts), so cycles grow by
 * (n+1) phases per extra sample instead of a full (2n-2)-phase pass
 * plus program overhead: strictly sublinear in batch. toAsm() panics
 * on any same-cycle ICU double-booking, so a bad offset cannot build.
 *
 * @param chips the ring's size (>= 2).
 * @param wire_latency the ring's per-link wire latency.
 * @param programs out: one ScheduledProgram per chip.
 * @param batch vectors reduced per program (1..16; address-limited).
 * @return the plan with the computed timing.
 */
AllReducePlan buildRingAllReduce(int chips, Cycle wire_latency,
                                 std::vector<ScheduledProgram> &programs,
                                 int batch = 1);

/** The schedule for @p pod's size and wire latency. */
inline AllReducePlan
buildRingAllReduce(const Pod &pod, std::vector<ScheduledProgram> &programs,
                   int batch = 1)
{
    return buildRingAllReduce(pod.size(), pod.wireLatency(), programs,
                              batch);
}

/**
 * Loads the programs, runs the pod, and returns the cycle count.
 * Vectors must already be in place at kLocalAddr.
 */
Cycle runAllReduce(Pod &pod, std::vector<ScheduledProgram> &programs);

} // namespace tsp

#endif // TSP_C2C_COLLECTIVE_HH
