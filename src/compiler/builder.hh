/**
 * @file
 * Low-level timed instruction emission.
 *
 * Encapsulates the dataflow timing identities of the chip model, which
 * the compiler and simulator share through the ISA's temporal
 * parameters (paper III, Eq. 4):
 *
 *  - a MEM Read issued at t makes its vector visible at the slice's
 *    position at t + d_func(Read); it reaches position q after
 *    |q - pos| further hops;
 *  - a MEM Write issued at t samples its stream at the slice's
 *    position exactly at t;
 *  - a VXM/SXM op issued at t samples operands at its position at t
 *    and makes results visible there at t + d_func(op);
 *  - MXM ABC consumes one activation per cycle starting at its issue
 *    cycle; ACC makes result i visible at issue + i + d_func(Acc).
 */

#ifndef TSP_COMPILER_BUILDER_HH
#define TSP_COMPILER_BUILDER_HH

#include "compiler/schedule.hh"
#include "compiler/tensor.hh"

namespace tsp {

/** Emits exactly-timed instructions into a ScheduledProgram. */
class KernelBuilder
{
  public:
    explicit KernelBuilder(ScheduledProgram &prog) : prog_(prog) {}

    /** @return the program being built. */
    ScheduledProgram &program() { return prog_; }

    // ----- MEM -----

    /** Emits a Read at @p issue placing the word on stream @p s. */
    void read(const GlobalAddr &a, StreamRef s, Cycle issue);

    /**
     * Emits a Read timed so its vector is visible at position
     * @p consumer_pos exactly at @p at.
     *
     * @return the issue cycle. Panics if @p at is too early.
     */
    Cycle readArriving(const GlobalAddr &a, StreamRef s,
                       SlicePos consumer_pos, Cycle at);

    /** Emits a Write sampling stream @p s at @p issue. */
    void write(const GlobalAddr &a, StreamRef s, Cycle issue);

    /**
     * @return the cycles from a Read of @p a issuing to its vector
     * being visible at position @p q: d_func(Read) plus the transit.
     */
    static Cycle
    readLead(const GlobalAddr &a, SlicePos q)
    {
        return opTiming(Opcode::Read).dFunc +
               Layout::transitDelay(a.pos(), q);
    }

    // ----- VXM -----

    /**
     * Emits a binary VXM op on @p alu at @p issue.
     * @return the cycle the result is visible at the VXM.
     */
    Cycle vxmBinary(int alu, Opcode op, DType t, StreamRef a,
                    StreamRef b, StreamRef dst, Cycle issue);

    /** Emits a unary VXM op (imm used by Shift). */
    Cycle vxmUnary(int alu, Opcode op, DType t, StreamRef a,
                   StreamRef dst, Cycle issue, std::uint32_t imm = 0);

    /** Emits a Convert on @p alu. */
    Cycle vxmConvert(int alu, DType from, DType to, StreamRef a,
                     StreamRef dst, Cycle issue);

    // ----- MXM -----

    /**
     * Emits the LW burst + IW installing @p tile into @p plane.
     * Weight rows are read from the tile's 16 slices, timed to arrive
     * 16 per cycle (rows beyond the valid count are zero-padded in
     * SRAM by the runtime's DMA, so the full 320 rows always stream).
     *
     * @param streams_base first of 16 stream ids used for the burst.
     * @param start LW issue cycle at the MXM (first burst).
     * @return the cycle after IW completes (weights usable).
     */
    Cycle installWeights(int plane, const WeightTile &tile,
                         StreamId streams_base, Direction dir,
                         Cycle start);

    /** Emits Abc on @p plane's activation queue. */
    void abc(int plane, StreamRef act, std::uint32_t count,
             bool accumulate, DType atype, Cycle issue);

    /** Emits Acc draining @p count vectors onto @p dst (SG4). */
    void acc(int plane, StreamRef dst, std::uint32_t count,
             Cycle issue);

    // ----- SXM -----

    /** Emits an SXM op on the given unit of @p hem at @p issue. */
    Cycle sxm(Hemisphere hem, SxmUnit unit, Instruction inst,
              Cycle issue);

  private:
    ScheduledProgram &prog_;
};

} // namespace tsp

#endif // TSP_COMPILER_BUILDER_HH
