/**
 * @file
 * Definitions shared by the lowering translation units (lowering.cc,
 * lowering_eltwise.cc): per-engine scheduling state, the fixed stream
 * role map, and placed-convolution bookkeeping. Not part of the
 * public compiler interface.
 */

#ifndef TSP_COMPILER_LOWERING_INTERNAL_HH
#define TSP_COMPILER_LOWERING_INTERNAL_HH

#include <string>
#include <unordered_map>

#include "compiler/lowering.hh"
#include "compiler/mem_alloc.hh"
#include "mxm/mxm_plane.hh"

namespace tsp {

/** Stream-id roles for one engine (see lowering.hh header comment). */
struct StreamRoles
{
    Direction toMxm{};   ///< Weights and activations flow this way.
    Direction fromMxm{}; ///< Results, consts, chain stages, outputs.

    StreamRef
    weight(int j) const
    {
        return {static_cast<StreamId>(j), toMxm};
    }
    StreamRef
    act(int pi) const
    {
        return {static_cast<StreamId>(16 + pi), toMxm};
    }
    /**
     * Final results flow *toward* the engine's own hemisphere (a
     * direction flip at the VXM), so every tensor lives on its
     * engine's side and reads never cross the bisection on another
     * engine's stream ids.
     */
    StreamRef
    finalOwn() const
    {
        return {29, toMxm};
    }
    /** Halo duplicates flow to the opposite hemisphere. */
    StreamRef
    haloOut() const
    {
        return {30, fromMxm};
    }
    StreamRef
    bias(int k) const
    {
        return {static_cast<StreamId>(0 + k), fromMxm};
    }
    StreamRef
    scale(int k) const
    {
        return {static_cast<StreamId>(4 + k), fromMxm};
    }
    StreamRef
    stage1(int k) const ///< AddSat out (int32) and friends.
    {
        return {static_cast<StreamId>(8 + k), fromMxm};
    }
    StreamRef
    stage2(int k) const ///< int32 -> fp32 stage.
    {
        return {static_cast<StreamId>(12 + k), fromMxm};
    }
    StreamRef
    result(int pi, int k) const ///< MXM ACC output (SG4).
    {
        return {static_cast<StreamId>(16 + 4 * pi + k), fromMxm};
    }
    StreamRef
    stage3(int k) const ///< x scale stage (fp32).
    {
        return {static_cast<StreamId>(24 + k), fromMxm};
    }
    StreamRef
    stageInt8() const
    {
        return {28, fromMxm};
    }
};

/** Per-hemisphere-engine scheduling state. */
struct Lowering::Engine
{
    int idx = 0; ///< 0 = west, 1 = east.
    Hemisphere hem{};
    int planes[2] = {0, 1};
    SlicePos mxmPos = 0;
    int aluBase = 0; ///< First of 8 VXM ALUs owned.
    StreamRoles roles{};

    Cycle installFree = 0; ///< Weight streams + LW sequencer resource.
    Cycle chainFree = 0;   ///< VXM chain next-free (VXM-arrival time).
    /**
     * Last chain-ALU op cycle + 1. A user whose stage layout differs
     * from the previous user's (chainSig) must gate on this instead
     * of chainFree — identical layouts interleave stage-disjoint,
     * different ones would collide on the stage ALUs.
     */
    Cycle chainTail = 0;
    int chainSig = -1;
    Cycle planeFree[2] = {0, 0}; ///< Earliest next window start.
    Cycle windowEnd[2] = {0, 0}; ///< End of last ABC on the plane.

    GlobalAddr padZero[2];   ///< Per-plane zero padding vector.
    GlobalAddr padNeg128[3]; ///< Max-pool padding vectors.
    ConstQuad zeroQuad{};    ///< int32 zeros (eltwise seeds).
};

/** Placed weights + constants of one conv layer. */
struct Lowering::PlacedConv
{
    ConvGeom g{};
    int outC = 0;
    int inC = 0;
    int kgIn = 0;
    int cogOut = 0;
    /** tiles[e][cog * windows + w], w = (ky*kw + kx)*kgIn + kg. */
    std::vector<WeightTile> tiles[2];
    std::vector<ConstQuad> bias[2];  ///< Per cog.
    std::vector<ConstQuad> scale[2]; ///< Per cog.

    int
    windows() const
    {
        return g.kh * g.kw * kgIn;
    }
};

/**
 * The build half of a Lowering: everything only scheduling reads,
 * freed by Lowering::seal().
 */
struct Lowering::Build
{
    /** MEM slices across both hemispheres: a port-table row. */
    static constexpr std::size_t kPortSlices = 2 * kMemSlicesPerHem;

    /** A cached conv placement + the key fields that validate reuse. */
    struct ConvCacheEntry
    {
        std::uint64_t hash = 0;
        ConvGeom g;
        int outC = 0;
        int inC = 0;
        std::unique_ptr<PlacedConv> pc;
    };

    Build(ScheduledProgram &prog, bool pipelined)
        : kb(prog), pipelined(pipelined)
    {
    }

    KernelBuilder kb;
    MemAllocator alloc;
    bool pipelined;
    Engine eng[2];
    /** Rotating activation stripe group (0..3) for allocOutput. */
    int actGroup = 0;
    std::string nextName;

    /**
     * MEM port usage, one byte per slice and cycle at
     * [cycle * kPortSlices + slice] (east slices after the west
     * ones), grown on demand: bit 0 the read, bit 1 the write, bits 2
     * and 3 the bank of each.
     */
    std::vector<std::uint8_t> ports;

    /** place()'s batch, reused across placements. */
    std::vector<Access> batch;

    std::unordered_map<const ConvWeights *,
                       std::unique_ptr<ConvCacheEntry>>
        convCache;
};

inline KernelBuilder &
Lowering::kb()
{
    return build_->kb;
}

} // namespace tsp

#endif // TSP_COMPILER_LOWERING_INTERNAL_HH
