/**
 * @file
 * Physical layout of functional slices along a superlane.
 *
 * The X axis runs West to East across the full chip. Per hemisphere,
 * from the chip bisection outward: VXM (shared, at center) | MEM0 ..
 * MEM43 | SXM | MXM | C2C (paper Figs. 4 and 5; MEM0 is closest to the
 * VXM and MEM43 nearest the SXM). Stream registers sit at each slice
 * position; stream values advance one position per cycle in their
 * direction of flow, so the transit delay between positions i and j is
 * |i - j| cycles (Eq. 4's delta).
 */

#ifndef TSP_ARCH_LAYOUT_HH
#define TSP_ARCH_LAYOUT_HH

#include <string>
#include <vector>

#include "arch/types.hh"

namespace tsp {

/** Kinds of functional slice (Table I groupings). */
enum class SliceKind : std::uint8_t { ICU, MEM, VXM, MXM, SXM, C2C };

/** @return short uppercase name of a slice kind. */
const char *sliceKindName(SliceKind kind);

/** Number of MEM slices per hemisphere. */
inline constexpr int kMemSlicesPerHem = 44;

/** Total MEM slices on chip. */
inline constexpr int kMemSlices = 2 * kMemSlicesPerHem;

/** Words addressable per MEM slice (13-bit address). */
inline constexpr int kMemWordsPerSlice = 1 << 13;

/** SRAM banks per MEM slice (pseudo-dual-port pair). */
inline constexpr int kMemBanks = 2;

/** Per-slice capacity in bytes: 8192 words x 16 B x 20 tiles = 2.5 MiB. */
inline constexpr std::size_t kMemSliceBytes =
    static_cast<std::size_t>(kMemWordsPerSlice) * kWordBytes * kSuperlanes;

/** Total on-chip SRAM: 220 MiB. */
inline constexpr std::size_t kTotalMemBytes = kMemSliceBytes * kMemSlices;

/** Number of independent instruction queues on chip. */
inline constexpr int kNumIcus = 144;

/** MXM MACC planes on chip (two per hemisphere). */
inline constexpr int kMxmPlanes = 4;

/** Rows/cols of one MXM MACC plane. */
inline constexpr int kMxmDim = 320;

/**
 * Accumulator bank depth per plane, in 320-element vectors.
 *
 * The paper does not publish this constant; 64 bounds the reorder
 * window the compiler may accumulate into before draining (DESIGN.md
 * lists this as a modeled parameter). Convolution lowering tiles its
 * output windows to this depth, and it bounds an ABC or ACC window.
 */
inline constexpr std::uint32_t kMxmAccDepth = 64;

/** Vector ALUs per lane (the 4x4 VXM mesh). */
inline constexpr int kVxmAlusPerLane = 16;

/** C2C serial links. */
inline constexpr int kC2cLinks = 16;

/** Lane-rate of one C2C link in Gb/s (x4 lanes at 30 Gb/s). */
inline constexpr double kC2cLinkGbps = 4 * 30.0;

/**
 * X positions of every slice along the superlane.
 *
 * Index scheme (95 positions total):
 *   0            C2C (west edge)
 *   1            MXM west
 *   2            SXM west
 *   3..46        MEM west 43..0 (MEM_W0 adjacent to the VXM)
 *   47           VXM (chip bisection)
 *   48..91       MEM east 0..43
 *   92           SXM east
 *   93           MXM east
 *   94           C2C (east edge)
 */
struct Layout
{
    static constexpr SlicePos c2cWest = 0;
    static constexpr SlicePos mxmWest = 1;
    static constexpr SlicePos sxmWest = 2;
    static constexpr SlicePos vxm = 3 + kMemSlicesPerHem; // 47
    static constexpr SlicePos sxmEast = vxm + kMemSlicesPerHem + 1; // 92
    static constexpr SlicePos mxmEast = sxmEast + 1; // 93
    static constexpr SlicePos c2cEast = mxmEast + 1; // 94
    static constexpr int numPositions = c2cEast + 1; // 95

    /** @return X position of MEM slice @p index in @p hem (0..43). */
    static SlicePos memPos(Hemisphere hem, int index);

    /** @return X position of the SXM in @p hem. */
    static constexpr SlicePos
    sxmPos(Hemisphere hem)
    {
        return hem == Hemisphere::West ? sxmWest : sxmEast;
    }

    /** @return X position of the MXM in @p hem. */
    static constexpr SlicePos
    mxmPos(Hemisphere hem)
    {
        return hem == Hemisphere::West ? mxmWest : mxmEast;
    }

    /** @return X position of the C2C block in @p hem. */
    static constexpr SlicePos
    c2cPos(Hemisphere hem)
    {
        return hem == Hemisphere::West ? c2cWest : c2cEast;
    }

    /** @return transit delay in cycles between two positions (Eq. 4). */
    static Cycle
    transitDelay(SlicePos from, SlicePos to)
    {
        return static_cast<Cycle>(from < to ? to - from : from - to);
    }

    /**
     * @return the direction a stream must flow to travel @p from ->
     * @p to. Equal positions default to East.
     */
    static Direction
    flowDirection(SlicePos from, SlicePos to)
    {
        return to >= from ? Direction::East : Direction::West;
    }

    /** @return human-readable name of the slice at @p pos. */
    static std::string posName(SlicePos pos);
};

/**
 * Identity of one of the 144 instruction queues.
 *
 * The paper states the count but not the decomposition; we model
 * (documented in DESIGN.md section 2):
 *   0..87    MEM   (west 0..43, east 0..43)
 *   88..103  VXM   (16 ALU sequencers, one per mesh position)
 *   104..111 MXM   (4 planes x {weight sequencer, activation sequencer})
 *   112..127 SXM   (2 hemispheres x 8 functional units)
 *   128..143 C2C   (16 links)
 */
struct IcuId
{
    int id = -1;

    static constexpr int memBase = 0;
    static constexpr int vxmBase = 88;
    static constexpr int mxmBase = 104;
    static constexpr int sxmBase = 112;
    static constexpr int c2cBase = 128;

    /** Queue for MEM slice @p index of @p hem. */
    static IcuId mem(Hemisphere hem, int index);

    /** Queue for VXM ALU @p alu (0..15). */
    static IcuId vxmAlu(int alu);

    /** Queue for MXM @p plane (0..3); weight or activation sequencer. */
    static IcuId mxm(int plane, bool weight_sequencer);

    /** Queue for SXM unit @p unit (0..7) of @p hem. */
    static IcuId sxm(Hemisphere hem, int unit);

    /** Queue for C2C link @p link (0..15). */
    static IcuId c2c(int link);

    /** @return which slice kind this queue drives. */
    SliceKind kind() const;

    /** @return X position of the slice this queue drives. */
    SlicePos pos() const;

    /** @return a compact printable name, e.g. "MEM_E12", "VXM3". */
    std::string name() const;

    bool operator==(const IcuId &other) const = default;
};

/** SXM functional unit indices within a hemisphere's SXM complex. */
enum class SxmUnit : std::uint8_t {
    ShiftNorth = 0,
    ShiftSouth = 1,
    Permute = 2,
    Distribute = 3,
    Rotate = 4,
    Transpose0 = 5,
    Transpose1 = 6,
    Select = 7,
};

/** @return printable name of an SXM unit. */
const char *sxmUnitName(SxmUnit unit);

} // namespace tsp

#endif // TSP_ARCH_LAYOUT_HH
