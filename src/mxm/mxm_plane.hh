/**
 * @file
 * One 320x320 MACC plane of the matrix execution module (paper III.D,
 * Fig. 7). The chip has four: two per hemisphere.
 *
 * A plane holds a staging weight buffer filled by LW from streams (16
 * streams x 16 B per supercell row per cycle), an installed weight
 * array committed by IW, a bank of vector accumulators written as
 * activations stream through under ABC control, and an ACC sequencer
 * that drains accumulators onto int32/fp32 result stream groups.
 *
 * int8 activations produce int32 accumulations; fp16 mode runs two
 * byte-planes in tandem (modeled as a plane-local mode) accumulating
 * in fp32 with a single rounding step at the end.
 */

#ifndef TSP_MXM_MXM_PLANE_HH
#define TSP_MXM_MXM_PLANE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "stream/stream_io.hh"

namespace tsp {

/**
 * Accumulator bank depth per plane, in 320-element vectors.
 *
 * The paper does not publish this constant; 64 bounds the reorder
 * window the compiler may accumulate into before draining (DESIGN.md
 * lists this as a modeled parameter). Convolution lowering tiles its
 * output windows to this depth.
 */
inline constexpr std::uint32_t kMxmAccDepth = 64;

/** One of the four 320x320 multiply-accumulate planes. */
class MxmPlane
{
  public:
    /**
     * @param plane plane number 0..3 (0,1 west; 2,3 east).
     */
    MxmPlane(int plane, const ChipConfig &cfg, StreamFabric &fabric);

    /** Dispatches Lw / Iw / Abc / Acc to this plane at cycle @p now. */
    void issue(const Instruction &inst, Cycle now);

    /**
     * Advances the plane's ABC/ACC sequencers one cycle. Must be
     * called every cycle after dispatch so a window's first activation
     * is consumed in its issue cycle.
     */
    void tick(Cycle now);

    /** @return plane number 0..3. */
    int plane() const { return plane_; }

    /** @return X position (west or east MXM). */
    SlicePos
    pos() const
    {
        return Layout::mxmPos(plane_ < 2 ? Hemisphere::West
                                         : Hemisphere::East);
    }

    /** @return cumulative MACC operations (power/roofline input). */
    std::uint64_t maccOps() const { return maccOps_; }

    /** @return cycles with an active ABC window (occupancy). */
    std::uint64_t activeCycles() const { return activeCycles_; }

    /** @return weight bytes loaded into the LW buffer. */
    std::uint64_t weightBytesLoaded() const { return weightBytes_; }

    /** @return true if an ABC window is streaming right now. */
    bool abcActive() const { return abc_.active; }

    /** @return true if an ACC drain is running right now. */
    bool accActive() const { return acc_.active; }

    /** @return true if either sequencer needs a tick() this cycle. */
    bool busy() const { return abc_.active || acc_.active; }

    /**
     * @return the next cycle >= @p now at which this plane does work:
     * @p now while an ABC window or ACC drain is streaming (both
     * sequencers consume/produce every cycle until exhausted), else
     * kNoEventCycle — an idle plane only re-activates at an Lw / Iw /
     * Abc / Acc dispatch, which is the dispatching queue's event.
     */
    Cycle
    nextActiveCycle(Cycle now) const
    {
        return busy() ? now : kNoEventCycle;
    }

    /** @return the stream access point (CSR counters). */
    const StreamIo &io() const { return io_; }

    /** Test hook: directly reads an installed weight (row, col). */
    std::int8_t installedWeight(int row, int col) const;

    /** Test hook: reads the fp16 installed weight bits. */
    std::uint16_t installedWeightF16(int row, int col) const;

    /**
     * Serializes weight buffers (staging + installed), sequencer
     * state, the accumulator banks with their generation stamps, and
     * counters. Derived weight state — nonzero extents, VNNI row
     * sums, the fp16 column image — is excluded: it is recomputed
     * deterministically from the weights.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores plane state and recomputes the derived weight state.
     * Marks @p r failed on a fill row past the plane, a sequencer
     * window outside the accumulator bank or its streams outside the
     * direction.
     */
    void loadState(SnapshotReader &r);

  private:
    /**
     * Sizes the weight and accumulator arrays, all zero, on the
     * plane's first instruction or state load. A program that never
     * uses the plane, such as the all-reduce, leaves them empty, so a
     * chip that stays off the MXM costs no 1.2 MB per plane to build
     * or rebuild.
     */
    void allocateArrays();

    void executeLw(const Instruction &inst, Cycle now);
    void executeIw(const Instruction &inst, Cycle now);
    void executeAbc(const Instruction &inst, Cycle now);
    void executeAcc(const Instruction &inst, Cycle now);

    void stepAbc(Cycle now);
    void stepAcc(Cycle now);

    /** Rebuilds winstFCols_ from winstF_ (lazy, post-IW). */
    void buildF16WeightCols();

    /** Recomputes the VNNI row sums of installed rows [0, @p rows). */
    void refreshRowSums(int rows);

    /** Recomputes blockRows_/blockCols_ from winstExt_. */
    void updateBlock();

    /**
     * Column granule of the int8 nonzero-extent tracking: LW records,
     * per staged row, how many kColBlock-column blocks reach its last
     * nonzero weight. 32 is the AVX2 kernel's chunk and half the VNNI
     * kernel's block (mxm_kernels.hh).
     */
    static constexpr int kColBlock = 32;
    static_assert(kMxmDim % kColBlock == 0 && kColBlock % 8 == 0);

    const ChipConfig &cfg_;
    StreamIo io_;
    int plane_;

    /**
     * Weight staging (LW) and installed (IW) arrays, row-major. IW
     * leaves installed == staged, and an LW burst writes only rows
     * [0, fillRow_) of its own dtype's staging buffer — so those are
     * the only rows the next IW has to copy. These and the arrays
     * below stay empty until allocateArrays().
     */
    std::vector<std::int8_t> wbuf_;
    std::vector<std::int8_t> winst_;
    /** fp16 bit patterns when in fp16 mode. */
    std::vector<std::uint16_t> wbufF_;
    std::vector<std::uint16_t> winstF_;
    /**
     * Nonzero extent of each int8 weight row in kColBlock-column
     * blocks: every weight of row r at or past column
     * ext[r] * kColBlock is zero. LW records it for each row it
     * stages (wbufExt_), and IW installs it with the row (winstExt_).
     */
    std::vector<std::uint8_t> wbufExt_;
    std::vector<std::uint8_t> winstExt_;
    /**
     * The installed int8 weights' nonzero block: every weight outside
     * rows [0, blockRows_) x columns [0, blockCols_) is zero, so ABC
     * computes only the block (mxm_kernels.hh).
     */
    int blockRows_ = 0;
    int blockCols_ = 0;
    /**
     * Per-row sums of the installed int8 weights over the active
     * columns, the bias correction for the VNNI kernel
     * (mxm_kernels.hh). IW refreshes the rows it installs.
     */
    std::vector<std::int32_t> winstRowSum_;
    /**
     * Column-major fp32 image of the installed fp16 weights
     * (winstFCols_[c * kMxmDim + r] = toFloat(winstF_[r][c])), the
     * operand layout the fp16 SIMD kernels need to vectorize across
     * rows while keeping each row's scalar rounding order. Rebuilt
     * lazily after an IW that installs fp16 rows; derived state
     * excluded from snapshots, and fp16->fp32 conversion is exact so
     * the image carries the installed bits losslessly.
     */
    std::vector<float> winstFCols_;
    bool fWeightsValid_ = false;
    int fillRow_ = 0;
    DType weightType_ = DType::Int8;
    DType installedType_ = DType::Int8;

    /** Activation window sequencer. */
    struct AbcState
    {
        bool active = false;
        StreamRef src{};
        std::uint32_t remaining = 0;
        std::uint32_t index = 0;
        bool accumulate = false;
        DType atype = DType::Int8;
    };
    AbcState abc_{};

    /** Result drain sequencer. */
    struct AccState
    {
        bool active = false;
        StreamRef dst{};
        std::uint32_t remaining = 0;
        std::uint32_t index = 0;
    };
    AccState acc_{};

    /**
     * Accumulator bank: int32 and fp32 views (mode-selected),
     * kMxmAccDepth vectors each once allocated.
     */
    std::vector<std::array<std::int32_t, kMxmDim>> accI_;
    std::vector<std::array<float, kMxmDim>> accF_;

    /**
     * Drain-consistency tracking: every overwriting ABC starts a new
     * generation; ACC must emit accumulators of the generation that
     * was current when it issued, or the schedule interleaved two
     * chunks incorrectly.
     */
    std::uint64_t generation_ = 0;
    std::uint64_t accGen_ = 0;
    std::array<std::uint64_t, kMxmAccDepth> indexGen_{};

    std::uint64_t maccOps_ = 0;
    std::uint64_t activeCycles_ = 0;
    std::uint64_t weightBytes_ = 0;
};

} // namespace tsp

#endif // TSP_MXM_MXM_PLANE_HH
