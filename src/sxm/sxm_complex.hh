/**
 * @file
 * The switch execution module (paper III.E, Fig. 8): one complex per
 * hemisphere providing the Y-dimension of the on-chip network.
 *
 * Sub-units (each with its own instruction queue): North/South lane
 * shifters with a select combiner, a 320-lane permuter, a per-superlane
 * distributor (remap / replicate / zero-fill), an n x n rotator, and
 * two 16x16 transposers — so the chip can sustain four simultaneous
 * transpose16 operations, matching the paper.
 */

#ifndef TSP_SXM_SXM_COMPLEX_HH
#define TSP_SXM_SXM_COMPLEX_HH

#include <cstdint>

#include "arch/config.hh"
#include "stream/stream_io.hh"

namespace tsp {

/** One hemisphere's SXM complex. */
class SxmComplex
{
  public:
    SxmComplex(Hemisphere hem, const ChipConfig &cfg,
               StreamFabric &fabric);

    /**
     * Executes one SXM instruction on sub-unit @p unit at cycle
     * @p now. The unit must match the opcode (a shift on the permuter
     * is a program bug).
     */
    void execute(const Instruction &inst, SxmUnit unit, Cycle now);

    /** @return this complex's hemisphere. */
    Hemisphere hemisphere() const { return hem_; }

    /** @return X position on the superlane. */
    SlicePos pos() const { return Layout::sxmPos(hem_); }

    /** @return total bytes switched (power model input). */
    std::uint64_t bytesSwitched() const { return bytesSwitched_; }

    /** @return instructions executed. */
    std::uint64_t instructions() const { return instructions_; }

    /** @return the stream access point (CSR counters). */
    const StreamIo &io() const { return io_; }

    /** Serializes counters (SXM ops complete within their issue). */
    void
    saveState(SnapshotWriter &w) const
    {
        io_.saveState(w);
        w.u64(bytesSwitched_);
        w.u64(instructions_);
    }

    /** Restores counters. */
    void
    loadState(SnapshotReader &r)
    {
        io_.loadState(r);
        bytesSwitched_ = r.u64();
        instructions_ = r.u64();
    }

  private:
    void executeShift(const Instruction &inst, bool north, Cycle now);
    void executeSelect(const Instruction &inst, Cycle now);
    void executePermute(const Instruction &inst, Cycle now);
    void executeDistribute(const Instruction &inst, Cycle now);
    void executeRotate(const Instruction &inst, Cycle now);
    void executeTranspose(const Instruction &inst, Cycle now);

    static void checkUnit(Opcode op, SxmUnit unit);

    Hemisphere hem_;
    const ChipConfig &cfg_;
    StreamIo io_;
    /**
     * Where the stepped tier's port checks and corrects the operands
     * (Transpose's 16, Select's 2, one otherwise); replay reads tape
     * slots instead. Every consume overwrites what it uses, so
     * nothing re-zeroes it.
     */
    alignas(64) Vec320 scratch_[16];

    std::uint64_t bytesSwitched_ = 0;
    std::uint64_t instructions_ = 0;
};

} // namespace tsp

#endif // TSP_SXM_SXM_COMPLEX_HH
