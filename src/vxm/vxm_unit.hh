/**
 * @file
 * The vector execution module: a 4x4 mesh of 32-bit ALUs per superlane
 * (16 ALUs per lane, 5,120 chip-wide — paper III.C).
 *
 * Each of the 16 ALU positions has its own instruction queue; an ALU
 * executes one point-wise vector operation per dispatch, consuming
 * operand stream groups at the VXM's position and producing the result
 * group d_func cycles later at the same position. Chaining ALUs is
 * pure scheduling: a downstream ALU dispatched exactly d_func cycles
 * later intercepts the intermediate without a MEM round trip.
 */

#ifndef TSP_VXM_VXM_UNIT_HH
#define TSP_VXM_VXM_UNIT_HH

#include <cstdint>

#include "arch/config.hh"
#include "stream/stream_io.hh"
#include "vxm/alu_ops.hh"

namespace tsp {

/** The 16-ALU vector processor at the chip bisection. */
class VxmUnit
{
  public:
    VxmUnit(const ChipConfig &cfg, StreamFabric &fabric);

    /**
     * Executes one VXM instruction dispatched by ALU queue @p alu at
     * cycle @p now. Stream-group alignment is validated (int16/fp16
     * on even ids, int32/fp32 on multiples of 4).
     */
    void execute(const Instruction &inst, int alu, Cycle now);

    /** @return total lane-operations executed (power model input). */
    std::uint64_t laneOps() const { return laneOps_; }

    /** @return total instructions executed. */
    std::uint64_t instructions() const { return instructions_; }

    /** @return the stream access point (CSR counters). */
    const StreamIo &io() const { return io_; }

    /** Serializes counters (the VXM holds no latched data state). */
    void
    saveState(SnapshotWriter &w) const
    {
        io_.saveState(w);
        w.u64(laneOps_);
        w.u64(instructions_);
    }

    /** Restores counters. */
    void
    loadState(SnapshotReader &r)
    {
        io_.loadState(r);
        laneOps_ = r.u64();
        instructions_ = r.u64();
    }

  private:
    /**
     * Produces the @p g consecutive result streams from @p base at
     * @p when, built in place by @p build over the first @p lanes
     * lanes; the lanes past them are zeroed.
     */
    template <typename Build>
    void produceGroup(StreamRef base, int g, int lanes, Cycle when,
                      Build &&build);

    static void checkAlignment(StreamRef s, int g);

    const ChipConfig &cfg_;
    StreamIo io_;
    /**
     * Where the stepped tier's port copies, checks and corrects the
     * operand groups A (0..3) and B (4..7) when a code does not hold
     * or a fault injector is attached; otherwise operands are read in
     * their fabric slots, and replay reads tape slots. Every copy
     * overwrites what it uses, so nothing re-zeroes it.
     */
    alignas(64) Vec320 scratch_[8];

    std::uint64_t laneOps_ = 0;
    std::uint64_t instructions_ = 0;
};

} // namespace tsp

#endif // TSP_VXM_VXM_UNIT_HH
