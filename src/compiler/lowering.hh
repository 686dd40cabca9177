/**
 * @file
 * Layer lowering: turns quantized NN layers into exactly-timed TSP
 * instruction schedules.
 *
 * Responsibilities mirroring the paper's compiler back-end (II, IV):
 *  - placement: weights striped near the MXMs, constants in dedicated
 *    quad slices, activations split across hemispheres with halo rows
 *    (see compiler/tensor.hh);
 *  - two-dimensional scheduling of instructions and data (Eq. 4),
 *    tracking every stream's position and time of use;
 *  - explicit management of MEM ports: a reservation table guarantees
 *    each slice sees at most one read and one write per cycle, in
 *    opposite banks — there is no hardware arbiter to fall back on.
 *    Every engine places its accesses through the one placement step
 *    (place(): a batch that moves with its slot, shifted until the
 *    table takes all of it), writes its results through the one
 *    output writer (writeOut(): primary row, flipped halo copy, both
 *    rows' readiness) and times its reads by KernelBuilder::readLead;
 *  - chaining: MXM results stream through the VXM requantization
 *    chain (int32 +bias -> fp32 -> x scale -> int8 -> ReLU) without
 *    round-tripping through MEM (paper IV.B);
 *  - optional cross-layer pipelining: a consumer may read an input
 *    row as soon as its producer committed it (paper IV.C); the one
 *    readiness accessor (producerDone(), rowReady()) holds the choice.
 *
 * Stream map (fixed roles; see DESIGN.md section 7):
 *   West engine (planes 0,1 at MXM_W):
 *     westward: s0-15 weights, s16/s17 activations (planes 0/1),
 *               s30 halo copies from the east engine's outputs;
 *     eastward: s0-3 bias, s4-7 scale, s8-15 + s24-27 chain
 *               intermediates, s16-19/s20-23 MXM results (planes
 *               0/1), s28 int8, s29 final (to east-hemisphere
 *               slices), s30 halo copies toward east storage.
 *   East engine (planes 2,3 at MXM_E): the exact mirror.
 * Cross-hemisphere reuse of the same stream ids is safe because every
 * consumer samples a value at or before the position where the other
 * hemisphere's producers overwrite the flow line.
 */

#ifndef TSP_COMPILER_LOWERING_HH
#define TSP_COMPILER_LOWERING_HH

#include <memory>
#include <mutex>
#include <vector>

#include "arch/config.hh"
#include "compiler/builder.hh"
#include "compiler/host_image.hh"
#include "sim/program.hh"

namespace tsp {

/** Host-side quantized convolution layer parameters. */
struct ConvWeights
{
    int outC = 0;
    int inC = 0;
    int kh = 1;
    int kw = 1;
    std::vector<std::int8_t> w;    ///< [outC][inC][kh][kw].
    std::vector<std::int32_t> bias;  ///< [outC].
    std::vector<float> scale;        ///< [outC]: (acc+bias)*scale.

    /** @return weight element. */
    std::int8_t
    at(int oc, int ic, int ky, int kx) const
    {
        return w[((static_cast<std::size_t>(oc) * inC + ic) * kh + ky) *
                     kw +
                 kx];
    }
};

/** Convolution geometry. */
struct ConvGeom
{
    int kh = 1;
    int kw = 1;
    int stride = 1;
    int pad = 0;
    bool relu = true;
};

/** An activation tensor plus its per-row commit times. */
struct LoweredTensor
{
    ActTensor t;
    /** ready[e][local_row]: first cycle a read of that row may issue. */
    std::shared_ptr<std::vector<Cycle>> ready[2];

    /** @return latest commit across both parts. */
    Cycle maxReady() const;
};

/**
 * The lowering context: one instance builds one program.
 *
 * It holds two halves. The run half is what a bound session and its
 * caller read: the DMA image, layers(), finishCycle(),
 * weightPlacements(), program().size() and the cached assembly
 * (assembled()). The build half is what only scheduling reads: the
 * events, the MEM port table, the engines, the conv-placement cache,
 * the placement batch, the allocator and the KernelBuilder. seal()
 * frees the build half; binding the lowering to an InferenceSession
 * seals it, and so does the end of a BatchProgramCache compile. Any
 * later lowering call, or toAsm() on its program, panics.
 */
class Lowering
{
  public:
    /** Slice-region boundaries (per hemisphere). */
    static constexpr int kPadSlice = 0;     ///< Constant pad vectors.
    static constexpr int kActFirst = 1;     ///< Activations 1..19.
    static constexpr int kActLast = 19;
    static constexpr int kBiasFirst = 20;   ///< Bias quads 20..23.
    static constexpr int kScaleFirst = 24;  ///< Scale quads 24..27.
    static constexpr int kWeightFirst = 28; ///< Weight stripes 28..43.

    /** Default striping width for activation tensors. */
    static constexpr int kActStripe = 4;

    /** Number of rotating activation slice groups. */
    static constexpr int kActGroups = 4;

    /**
     * @param pipelined allow consuming a row as soon as it commits
     * (paper IV.C optimization); when false, every layer waits for
     * the previous layer's last write.
     */
    explicit Lowering(bool pipelined = true);

    ~Lowering();

    /** @return the schedule; seal() frees its events but not size(). */
    ScheduledProgram &program() { return prog_; }

    /** @return the DMA manifest. */
    const HostImage &image() const { return image_; }

    /**
     * @return the program assembled with its barrier preamble
     * (program().toAsm(true)) and hashed. The first call assembles it
     * and caches it; every later call, before or after seal(), shares
     * that one assembly. Panics on a sealed lowering that never
     * cached one. Safe to call from several threads at once, also
     * while one of them seals.
     */
    const SharedProgram &assembled();

    /**
     * Frees the build half once the schedule is complete.
     * InferenceSession::bind() (and so every session constructor that
     * takes a Lowering) and BatchProgramCache's compile call it; a
     * repeat call does nothing. Thread-safe against assembled().
     */
    void seal();

    /** @return true once seal() freed the build half. */
    bool sealed() const { return build_ == nullptr; }

    /**
     * Places a host-provided int8 input tensor [h x w x channels] and
     * queues its rows for DMA. Ready at cycle 0.
     */
    LoweredTensor inputTensor(int height, int width, int channels,
                              const std::vector<std::int8_t> &data,
                              int halo = kDefaultHalo);

    /** Lowers a quantized conv2d (+bias, x scale, optional ReLU). */
    LoweredTensor conv2d(const LoweredTensor &in, const ConvGeom &g,
                         const ConvWeights &w,
                         int out_halo = kDefaultHalo);

    /** Lowers k x k max pooling (stride @p stride, pad @p pad). */
    LoweredTensor maxPool(const LoweredTensor &in, int k, int stride,
                          int pad, int out_halo = kDefaultHalo);

    /**
     * Lowers global average pooling to a 1 x 1 tensor; @p scale maps
     * the int32 sum back to int8 (1 / positions folded with the
     * layer's requant ratio).
     */
    LoweredTensor globalAvgPool(const LoweredTensor &in, float scale);

    /**
     * Lowers out = relu?(sat_int8(a * sa + b * sb)) — the quantized
     * residual connection.
     */
    LoweredTensor residualAdd(const LoweredTensor &a,
                              const LoweredTensor &b, float sa,
                              float sb, bool relu,
                              int out_halo = kDefaultHalo);

    /** @return cycle at which the whole program has finished: its
     *  program's finishCycle(). */
    Cycle finishCycle() const { return prog_.finishCycle(); }

    /**
     * @return conv layers whose weights were actually placed (SRAM
     * tiles allocated + DMA entries emitted). Repeat lowerings of the
     * same ConvWeights object reuse the first placement, so a batch-B
     * program pays the weight install once: this counter stays at the
     * model's layer count while conv2d() is called B times per layer.
     */
    std::uint64_t weightPlacements() const { return weightPlacements_; }

    /** One lowered layer's cycle span (for the per-layer power plot). */
    struct LayerSpan
    {
        std::string name;
        Cycle begin = 0;
        Cycle end = 0;
    };

    /** @return spans of every lowered layer in emission order. */
    const std::vector<LayerSpan> &layers() const { return layers_; }

    /** Names the next lowered layer (defaults to the op kind). */
    void setNextLayerName(std::string name);

    /** Default halo rows stored on each side of the split. */
    static constexpr int kDefaultHalo = 4;

    /** @return the slice group (0..3) of a tensor, or -1. */
    static int groupOf(const LoweredTensor &t);

    /**
     * Emits a MEM-to-MEM copy of @p src into a fresh allocation that
     * avoids @p avoid_mask's groups (explicit memory management in
     * the spirit of Listing 2). One row per cycle per engine.
     */
    LoweredTensor copyTensor(const LoweredTensor &src, int avoid_mask);

  private:
    struct Engine; // Per-hemisphere scheduling state.
    struct Build;  // The build half (lowering_internal.hh).

    /** @return the build half; panics in @p who once sealed. */
    Build &build(const char *who);

    Engine &engine(int e);

    /** @return the build half's KernelBuilder. */
    KernelBuilder &kb();

    /** Gate for VXM ops that time-share the bisection streams. */
    Cycle globalChainGate();

    /** Marks both engines' chains busy until @p c. */
    void setGlobalChain(Cycle c);

    /**
     * Allocates an output tensor in the act region, rotating across
     * the slice groups while skipping any group in @p avoid_mask
     * (bit g set = group g busy — typically the op's input tensors,
     * so reads and writes of one engine never fight over a slice).
     */
    LoweredTensor allocOutput(int height, int width, int channels,
                              int halo, Hemisphere part_hem[2],
                              int avoid_mask = 0);

    /** Places conv weights+consts into SRAM for both hemispheres. */
    struct PlacedConv;
    std::unique_ptr<PlacedConv> placeConv(const ConvGeom &g,
                                          const ConvWeights &w);

    /**
     * Returns the placement for (@p g, @p w), placing on first use and
     * reusing the cached placement on repeats. Keyed by the weights
     * object's address, validated against a content hash + geometry so
     * a recycled address or mutated weights re-place instead of
     * aliasing stale SRAM tiles. Reuse is sound because convEngine
     * only ever *reads* the placed tiles/quads.
     */
    const PlacedConv &placedConvFor(const ConvGeom &g,
                                    const ConvWeights &w);

    // --- MEM port reservation (no arbiters: compile-time proof) ---

    /** One port access of a placement batch. */
    struct Access
    {
        GlobalAddr a;
        Cycle c = 0;
        bool write = false;
    };

    /** Reserves one access's port; @return false if it is taken. */
    bool tryReserve(const Access &acc);
    void unreserve(const Access &acc);

    /** Reserves all of @p batch or none; @return success. */
    bool tryReserveAll(const std::vector<Access> &batch);

    /** @return @p acc's slice-cycle entry of the port table. */
    std::uint8_t &portBits(const Access &acc);

    /** @return the placement batch, emptied for an engine to fill. */
    std::vector<Access> &newBatch();

    /**
     * The one placement step. newBatch() holds the accesses of a
     * placement at @p slot; every access moves with the slot, so the
     * step shifts the whole batch one cycle later until
     * tryReserveAll() takes it. @return the slot it reserved.
     */
    Cycle place(Cycle slot, const char *who);

    // --- Row readiness (paper IV.C) ---

    /**
     * @return the cycle before which no read of @p t may issue: its
     * producer's last write in sequential mode ("before" IV.C), 0
     * when pipelined.
     */
    Cycle producerDone(const LoweredTensor &t) const;

    /**
     * @return the first cycle a read of local row @p row of @p t's
     * part @p e may issue: its own commit, and no earlier than
     * @p done (producerDone(), or the latest over several operands).
     */
    static Cycle rowReady(const LoweredTensor &t, int e, int row,
                          Cycle done);

    // --- Output rows ---

    /**
     * One output element as engine e writes it: [0] its row in part
     * e, [1] the halo copy part 1 - e stores (when hasHalo).
     */
    struct OutElem
    {
        bool hasHalo = false;
        GlobalAddr addr[2];
        int row[2] = {0, 0};   ///< Local rows.
        Cycle lag[2] = {0, 0}; ///< Write issue after VXM visibility.
    };

    /** @return element (@p y, @p x, @p kg) of @p t for engine @p e. */
    static OutElem outElem(const ActTensor &t, int e, int y, int x,
                           int kg);

    /**
     * Adds the write reservations of @p o, whose value is visible on
     * the engine's finalOwn stream at the VXM at @p vis, to @p batch.
     */
    static void reserveOut(const OutElem &o, Cycle vis,
                           std::vector<Access> &batch);

    /**
     * The one output writer: writes @p o's value (finalOwn at the VXM
     * at @p vis) to its primary row, flips a halo copy toward the
     * other part through ALU @p halo_alu, and records when both rows
     * commit in @p out.
     */
    void writeOut(int e, const OutElem &o, Cycle vis, int halo_alu,
                  LoweredTensor &out);

    // Layer engines (lowering.cc, lowering_eltwise.cc).
    void convEngine(int e, const LoweredTensor &in, const ConvGeom &g,
                    const PlacedConv &pc, LoweredTensor &out);
    void maxPoolEngine(int e, const LoweredTensor &in, int k,
                       int stride, int pad, LoweredTensor &out);
    void eltwiseAddEngine(int e, const LoweredTensor &a,
                          const LoweredTensor &b, const ConstQuad &sa,
                          const ConstQuad &sb, bool relu,
                          LoweredTensor &out);

    /**
     * Runs the requant chain for a drain of result vectors arriving
     * at the VXM from @p result_base starting at @p tv, one per
     * element of @p dest, and writes them out.
     */
    void requantChain(int e, StreamId result_base,
                      const ConstQuad &bias, const ConstQuad &scale,
                      bool relu, Cycle tv,
                      const std::vector<OutElem> &dest,
                      LoweredTensor &out);

    void recordLayer(const char *kind, Cycle begin);

    // --- Run half ---

    /** The events (freed by seal()), their count and finish (kept). */
    ScheduledProgram prog_;
    HostImage image_;
    std::vector<LayerSpan> layers_;
    std::uint64_t weightPlacements_ = 0;
    /** assembled()'s cache; null until something asks for it. */
    SharedProgram asm_;
    /** Orders assembled() and seal() across threads (sessions built
     *  concurrently on one lowering). */
    std::mutex sealMu_;

    // --- Build half: null once sealed ---
    std::unique_ptr<Build> build_;
};

} // namespace tsp

#endif // TSP_COMPILER_LOWERING_HH
