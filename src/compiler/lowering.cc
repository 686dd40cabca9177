#include "compiler/lowering.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot_io.hh"
#include "compiler/lowering_internal.hh"

namespace tsp {

namespace {

/** MXM drain parameters shared by compiler and chip model. */
constexpr Cycle kAccLatency = kSuperlanes + 1; // opTiming(Acc).dFunc
constexpr Cycle kMxmToVxm = 46;                // delta(MXM, VXM)

/** Requant chain: a drained result's int8 is visible this much later. */
constexpr Cycle kChainOutLat = 8;

} // namespace

Cycle
LoweredTensor::maxReady() const
{
    Cycle m = 0;
    for (int e = 0; e < 2; ++e) {
        if (!ready[e])
            continue;
        for (const Cycle c : *ready[e])
            m = std::max(m, c);
    }
    return m;
}

Lowering::Lowering(bool pipelined)
    : build_(std::make_unique<Build>(prog_, pipelined))
{
    for (int e = 0; e < 2; ++e) {
        Engine &en = build_->eng[e];
        en.idx = e;
        en.hem = e == 0 ? Hemisphere::West : Hemisphere::East;
        en.planes[0] = e == 0 ? 0 : 2;
        en.planes[1] = e == 0 ? 1 : 3;
        en.mxmPos = Layout::mxmPos(en.hem);
        en.aluBase = e == 0 ? 0 : 8;
        en.roles.toMxm =
            e == 0 ? Direction::West : Direction::East;
        en.roles.fromMxm = opposite(en.roles.toMxm);

        // Schedules must leave room for read leads plus the barrier.
        const Cycle base = ScheduledProgram::kProgramStart + 128;
        en.installFree = base;
        en.chainFree = base;
        en.planeFree[0] = base;
        en.planeFree[1] = base;

        // Padding vectors: zero pads read all-zero SRAM (no DMA
        // needed); -128 pads are DMA-filled for max pooling.
        en.padZero[0] = build_->alloc.alloc(en.hem, kPadSlice, 1);
        en.padZero[1] = build_->alloc.alloc(en.hem, kActLast, 1);
        en.padNeg128[0] = build_->alloc.alloc(en.hem, kPadSlice, 1);
        en.padNeg128[1] = build_->alloc.alloc(en.hem, kActLast, 1);
        en.padNeg128[2] = build_->alloc.alloc(en.hem, kBiasFirst, 1);
        std::array<std::int8_t, kLanes> neg;
        neg.fill(-128);
        for (const auto &a : en.padNeg128)
            image_.addInt8(a, neg.data(), kLanes);
        en.zeroQuad = allocConstQuad(build_->alloc, en.hem, kScaleFirst);
        // Zero quad: SRAM zero-initialized; nothing to DMA.
    }
}

Lowering::~Lowering() = default;

Lowering::Build &
Lowering::build(const char *who)
{
    if (!build_) {
        panic("Lowering::%s: the lowering is sealed: a session bound "
              "it, which freed its build state",
              who);
    }
    return *build_;
}

void
Lowering::seal()
{
    std::lock_guard<std::mutex> lock(sealMu_);
    if (!build_)
        return;
    build_.reset();
    prog_.release();
}

const SharedProgram &
Lowering::assembled()
{
    std::lock_guard<std::mutex> lock(sealMu_);
    if (!asm_) {
        build("assembled");
        asm_ = SharedProgram(prog_.toAsm(/*with_preamble=*/true));
    }
    return asm_;
}

Lowering::Engine &
Lowering::engine(int e)
{
    TSP_ASSERT(e == 0 || e == 1);
    return build_->eng[e];
}

void
Lowering::recordLayer(const char *kind, Cycle begin)
{
    LayerSpan span;
    std::string &next = build_->nextName;
    span.name = next.empty() ? kind : next;
    next.clear();
    span.begin = begin;
    span.end = prog_.finishCycle();
    layers_.push_back(std::move(span));
}

void
Lowering::setNextLayerName(std::string name)
{
    build("setNextLayerName").nextName = std::move(name);
}

// --------------------------------------------------------------------
// MEM port reservation
// --------------------------------------------------------------------

std::uint8_t &
Lowering::portBits(const Access &acc)
{
    constexpr std::size_t row = Build::kPortSlices;
    std::vector<std::uint8_t> &ports = build_->ports;
    const std::size_t i =
        static_cast<std::size_t>(acc.c) * row +
        static_cast<std::size_t>(acc.a.hem == Hemisphere::East
                                     ? kMemSlicesPerHem + acc.a.slice
                                     : acc.a.slice);
    if (i >= ports.size())
        ports.resize(std::max((i / row + 1) * row, 2 * ports.size()));
    return ports[i];
}

bool
Lowering::tryReserve(const Access &acc)
{
    const int k = acc.write ? 1 : 0;
    const int bank = acc.a.bank();
    std::uint8_t &bits = portBits(acc);
    if (bits & (1 << k))
        return false; // One read and one write per cycle,
    if ((bits & (1 << (1 - k))) && ((bits >> (3 - k)) & 1) == bank)
        return false; // in opposite banks (pseudo-dual-port).
    bits |= static_cast<std::uint8_t>((1 << k) | (bank << (2 + k)));
    return true;
}

void
Lowering::unreserve(const Access &acc)
{
    const int k = acc.write ? 1 : 0;
    std::uint8_t &bits = portBits(acc);
    TSP_ASSERT(bits & (1 << k));
    bits &= static_cast<std::uint8_t>(~((1 << k) | (4 << k)));
}

bool
Lowering::tryReserveAll(const std::vector<Access> &batch)
{
    for (std::size_t done = 0; done < batch.size(); ++done) {
        if (tryReserve(batch[done]))
            continue;
        for (std::size_t i = 0; i < done; ++i)
            unreserve(batch[i]);
        return false;
    }
    return true;
}

std::vector<Lowering::Access> &
Lowering::newBatch()
{
    build_->batch.clear();
    return build_->batch;
}

Cycle
Lowering::place(Cycle slot, const char *who)
{
    for (int attempt = 0; !tryReserveAll(build_->batch); ++attempt) {
        if (attempt > 100000)
            panic("%s: cannot place (port livelock)", who);
        for (Access &acc : build_->batch)
            ++acc.c;
        ++slot;
    }
    return slot;
}

Cycle
Lowering::producerDone(const LoweredTensor &t) const
{
    return build_->pipelined ? 0 : t.maxReady();
}

Cycle
Lowering::rowReady(const LoweredTensor &t, int e, int row, Cycle done)
{
    // A row commits no later than its producer's last write, so the
    // maximum is the row itself when pipelined, done otherwise.
    return std::max(done, (*t.ready[e])[static_cast<std::size_t>(row)]);
}

// --------------------------------------------------------------------
// Output rows
// --------------------------------------------------------------------

Lowering::OutElem
Lowering::outElem(const ActTensor &t, int e, int y, int x, int kg)
{
    OutElem o;
    o.hasHalo = t.stores(1 - e, y);
    for (int h = 0; h < (o.hasHalo ? 2 : 1); ++h) {
        o.addr[h] = t.addrOf(e ^ h, y, x, kg);
        o.row[h] = t.localRow(e ^ h, y, x, kg);
        // The halo copy leaves the VXM a cycle later, after its flip.
        o.lag[h] = static_cast<Cycle>(h) +
                   Layout::transitDelay(Layout::vxm, o.addr[h].pos());
    }
    return o;
}

void
Lowering::reserveOut(const OutElem &o, Cycle vis,
                     std::vector<Access> &batch)
{
    for (int h = 0; h < (o.hasHalo ? 2 : 1); ++h)
        batch.push_back({o.addr[h], vis + o.lag[h], true});
}

void
Lowering::writeOut(int e, const OutElem &o, Cycle vis, int halo_alu,
                   LoweredTensor &out)
{
    const StreamRoles &r = engine(e).roles;
    kb().write(o.addr[0], r.finalOwn(), vis + o.lag[0]);
    (*out.ready[e])[static_cast<std::size_t>(o.row[0])] =
        vis + o.lag[0] + 1;
    if (!o.hasHalo)
        return;
    kb().vxmBinary(halo_alu, Opcode::Max, DType::Int8, r.finalOwn(),
                   r.finalOwn(), r.haloOut(), vis);
    kb().write(o.addr[1], r.haloOut(), vis + o.lag[1]);
    (*out.ready[1 - e])[static_cast<std::size_t>(o.row[1])] =
        vis + o.lag[1] + 1;
}

// --------------------------------------------------------------------
// Tensor placement
// --------------------------------------------------------------------

namespace {
/** Activation stripe groups: {1..4}, {5..8}, {9..12}, {13..16}. */
constexpr int kActGroupStride = 4;
} // namespace

int
Lowering::groupOf(const LoweredTensor &t)
{
    const int first = t.t.part[0].firstSlice;
    if (first < kActFirst)
        return -1;
    return (first - kActFirst) / kActGroupStride;
}

LoweredTensor
Lowering::allocOutput(int height, int width, int channels, int halo,
                      Hemisphere part_hem[2], int avoid_mask)
{
    TSP_ASSERT(height >= 1 && width >= 1 && channels >= 1);
    LoweredTensor lt;
    ActTensor &t = lt.t;
    t.height = height;
    t.width = width;
    t.channels = channels;
    t.kgCount = (channels + kMxmDim - 1) / kMxmDim;
    t.splitY = height > 1 ? (height + 1) / 2 : 1;
    t.halo = height > 1 ? std::min(halo, height) : 0;

    int &next_group = build_->actGroup;
    int group = next_group;
    for (int tries = 0; tries < kActGroups; ++tries) {
        if (!(avoid_mask & (1 << group)))
            break;
        group = (group + 1) % kActGroups;
    }
    next_group = (group + 1) % kActGroups;
    const int first = kActFirst + group * kActGroupStride;

    for (int e = 0; e < 2; ++e) {
        const int stored_rows =
            e == 0 ? t.storedHiY() : t.height - t.storedLoY();
        const int rows = stored_rows * t.width * t.kgCount;
        StripedTensor &st = t.part[e];
        st.hem = part_hem[e];
        st.firstSlice = first;
        st.nSlices = kActStripe;
        st.rows = rows;
        if (rows > 0) {
            const GlobalAddr a =
                build_->alloc.allocStriped(st.hem, first, kActStripe,
                                           st.wordsPerSlice());
            st.base = a.addr;
        }
        lt.ready[e] = std::make_shared<std::vector<Cycle>>(
            static_cast<std::size_t>(std::max(rows, 0)), Cycle{0});
    }
    return lt;
}

LoweredTensor
Lowering::inputTensor(int height, int width, int channels,
                      const std::vector<std::int8_t> &data, int halo)
{
    build("inputTensor");
    TSP_ASSERT(static_cast<std::size_t>(height) * width * channels ==
               data.size());
    // Every tensor part lives in its engine's own hemisphere: reads
    // flow toward the engine's MXM (or the VXM) without crossing the
    // bisection, and outputs are flipped back by the chains' final
    // stage.
    Hemisphere hems[2] = {Hemisphere::West, Hemisphere::East};
    LoweredTensor lt =
        allocOutput(height, width, channels, halo, hems);
    const ActTensor &t = lt.t;

    // DMA every stored row of both parts.
    std::vector<std::int8_t> row(kLanes, 0);
    for (int e = 0; e < 2; ++e) {
        const int y_lo = e == 0 ? 0 : t.storedLoY();
        const int y_hi = e == 0 ? t.storedHiY() : t.height;
        for (int y = y_lo; y < y_hi; ++y) {
            for (int x = 0; x < t.width; ++x) {
                for (int kg = 0; kg < t.kgCount; ++kg) {
                    std::fill(row.begin(), row.end(), 0);
                    const int c_lo = kg * kMxmDim;
                    const int c_hi =
                        std::min(channels, c_lo + kMxmDim);
                    for (int c = c_lo; c < c_hi; ++c) {
                        row[static_cast<std::size_t>(c - c_lo)] =
                            data[(static_cast<std::size_t>(y) * t.width +
                                  x) *
                                     channels +
                                 c];
                    }
                    image_.addInt8(t.addrOf(e, y, x, kg), row.data(),
                                   kLanes);
                }
            }
        }
    }
    return lt;
}

namespace {

/** FNV-1a over the layer's full parameter content. */
std::uint64_t
convContentHash(const ConvGeom &g, const ConvWeights &w)
{
    const int dims[6] = {w.outC, w.inC, g.kh, g.kw, g.stride, g.pad};
    const unsigned char relu = g.relu ? 1 : 0;
    std::uint64_t h = fnv1a64(dims, sizeof(dims));
    h = fnv1a64(&relu, 1, h);
    h = fnv1a64(w.w.data(), w.w.size() * sizeof(w.w[0]), h);
    h = fnv1a64(w.bias.data(), w.bias.size() * sizeof(w.bias[0]), h);
    return fnv1a64(w.scale.data(), w.scale.size() * sizeof(w.scale[0]),
                   h);
}

} // namespace

const Lowering::PlacedConv &
Lowering::placedConvFor(const ConvGeom &g, const ConvWeights &w)
{
    auto &cache = build_->convCache;
    auto it = cache.find(&w);
    if (it != cache.end()) {
        const Build::ConvCacheEntry &e = *it->second;
        const bool same_geom =
            e.g.kh == g.kh && e.g.kw == g.kw &&
            e.g.stride == g.stride && e.g.pad == g.pad &&
            e.g.relu == g.relu && e.outC == w.outC &&
            e.inC == w.inC;
        if (same_geom && e.hash == convContentHash(g, w))
            return *e.pc;
        cache.erase(it); // Recycled address or mutated weights.
    }
    auto entry = std::make_unique<Build::ConvCacheEntry>();
    entry->hash = convContentHash(g, w);
    entry->g = g;
    entry->outC = w.outC;
    entry->inC = w.inC;
    entry->pc = placeConv(g, w);
    ++weightPlacements_;
    const PlacedConv &pc = *entry->pc;
    cache.emplace(&w, std::move(entry));
    return pc;
}

std::unique_ptr<Lowering::PlacedConv>
Lowering::placeConv(const ConvGeom &g, const ConvWeights &w)
{
    auto pc = std::make_unique<PlacedConv>();
    pc->g = g;
    pc->outC = w.outC;
    pc->inC = w.inC;
    pc->kgIn = (w.inC + kMxmDim - 1) / kMxmDim;
    pc->cogOut = (w.outC + kMxmDim - 1) / kMxmDim;
    const int windows = pc->windows();

    std::vector<std::int8_t> row(kMxmDim, 0);
    std::vector<std::int32_t> biasv(kMxmDim, 0);
    std::vector<float> scalev(kMxmDim, 0.0f);

    for (int e = 0; e < 2; ++e) {
        const Hemisphere hem =
            e == 0 ? Hemisphere::West : Hemisphere::East;
        pc->tiles[e].reserve(
            static_cast<std::size_t>(pc->cogOut) * windows);
        for (int cog = 0; cog < pc->cogOut; ++cog) {
            for (int ky = 0; ky < g.kh; ++ky) {
                for (int kx = 0; kx < g.kw; ++kx) {
                    for (int kg = 0; kg < pc->kgIn; ++kg) {
                        const int valid_rows = std::min(
                            kMxmDim, w.outC - cog * kMxmDim);
                        WeightTile tile = allocWeightTile(
                            build_->alloc, hem, kWeightFirst, valid_rows);
                        // DMA the stored row groups (tail rows of
                        // the last group zero).
                        const int stored =
                            tile.bursts() * WeightTile::kStripe;
                        for (int r = 0; r < stored; ++r) {
                            std::fill(row.begin(), row.end(), 0);
                            const int oc = cog * kMxmDim + r;
                            if (oc < w.outC) {
                                const int c_lo = kg * kMxmDim;
                                const int c_hi = std::min(
                                    w.inC, c_lo + kMxmDim);
                                for (int ic = c_lo; ic < c_hi; ++ic) {
                                    row[static_cast<std::size_t>(
                                        ic - c_lo)] =
                                        w.at(oc, ic, ky, kx);
                                }
                            }
                            image_.addInt8(tile.rowAddr(r),
                                           row.data(), kMxmDim);
                        }
                        pc->tiles[e].push_back(tile);
                    }
                }
            }
            // Per-cog bias / scale quads.
            std::fill(biasv.begin(), biasv.end(), 0);
            std::fill(scalev.begin(), scalev.end(), 0.0f);
            for (int r = 0; r < kMxmDim; ++r) {
                const int oc = cog * kMxmDim + r;
                if (oc < w.outC) {
                    biasv[static_cast<std::size_t>(r)] = w.bias[oc];
                    scalev[static_cast<std::size_t>(r)] = w.scale[oc];
                }
            }
            ConstQuad bq = allocConstQuad(build_->alloc, hem, kBiasFirst);
            ConstQuad sq = allocConstQuad(build_->alloc, hem, kScaleFirst);
            image_.addInt32Quad(bq.addr, biasv.data(), kMxmDim);
            image_.addFp32Quad(sq.addr, scalev.data(), kMxmDim);
            pc->bias[e].push_back(bq);
            pc->scale[e].push_back(sq);
        }
    }
    return pc;
}

// --------------------------------------------------------------------
// Requantization chain (shared by conv and global-avg-pool drains)
// --------------------------------------------------------------------

void
Lowering::requantChain(int e, StreamId result_base,
                       const ConstQuad &bias, const ConstQuad &scale,
                       bool relu, Cycle tv,
                       const std::vector<OutElem> &dest,
                       LoweredTensor &out)
{
    Engine &en = engine(e);
    const StreamRoles &r = en.roles;
    const SlicePos vxm = Layout::vxm;

    for (std::size_t i = 0; i < dest.size(); ++i) {
        const Cycle t = tv + static_cast<Cycle>(i);

        // Stage 1: acc + bias (int32, saturating).
        for (int k = 0; k < 4; ++k)
            kb().readArriving(bias.addr[k], r.bias(k), vxm, t);
        StreamRef res{static_cast<StreamId>(result_base), r.fromMxm};
        kb().vxmBinary(en.aluBase + 0, Opcode::AddSat, DType::Int32,
                       res, r.bias(0), r.stage1(0), t);
        // Stage 2: int32 -> fp32.
        kb().vxmConvert(en.aluBase + 1, DType::Int32, DType::Fp32,
                        r.stage1(0), r.stage2(0), t + 1);
        // Stage 3: x scale (fp32).
        for (int k = 0; k < 4; ++k)
            kb().readArriving(scale.addr[k], r.scale(k), vxm, t + 3);
        kb().vxmBinary(en.aluBase + 2, Opcode::Mul, DType::Fp32,
                       r.stage2(0), r.scale(0), r.stage3(0), t + 3);
        // Stage 4: fp32 -> int8 (round-to-nearest-even, saturating).
        kb().vxmConvert(en.aluBase + 3, DType::Fp32, DType::Int8,
                        r.stage3(0), r.stageInt8(), t + 5);
        // Stage 5 flips direction toward the engine's own hemisphere
        // (ReLU when the layer has one, an identity Max otherwise).
        if (relu) {
            kb().vxmUnary(en.aluBase + 4, Opcode::Relu, DType::Int8,
                          r.stageInt8(), r.finalOwn(), t + 7);
        } else {
            kb().vxmBinary(en.aluBase + 4, Opcode::Max, DType::Int8,
                           r.stageInt8(), r.stageInt8(), r.finalOwn(),
                           t + 7);
        }
        writeOut(e, dest[i], t + kChainOutLat, en.aluBase + 5, out);
    }
}

// --------------------------------------------------------------------
// Convolution engine
// --------------------------------------------------------------------

void
Lowering::convEngine(int e, const LoweredTensor &in, const ConvGeom &g,
                     const PlacedConv &pc, LoweredTensor &out)
{
    Engine &en = engine(e);
    const StreamRoles &r = en.roles;
    const ActTensor &it = in.t;
    const ActTensor &ot = out.t;

    const int y_lo = e == 0 ? 0 : ot.splitY;
    const int y_hi = e == 0 ? ot.splitY : ot.height;
    const int owned = (y_hi - y_lo) * ot.width;
    if (owned <= 0)
        return;

    const int windows = pc.windows();
    const int chunk_max = static_cast<int>(kMxmAccDepth);
    const Cycle done = producerDone(in);
    std::vector<GlobalAddr> src;
    std::vector<OutElem> dest;

    // Flattened owned output positions, chunked.
    int chunk_idx = 0;
    for (int cog = 0; cog < pc.cogOut; ++cog) {
        for (int p0 = 0; p0 < owned; p0 += chunk_max, ++chunk_idx) {
            const int n = std::min(chunk_max, owned - p0);
            const int pi = chunk_idx % 2;
            const int plane = en.planes[pi];

            Cycle prev_window_end = en.planeFree[pi];
            Cycle last_window_start = 0;
            for (int w = 0; w < windows; ++w) {
                const int kg = w % pc.kgIn;
                const int kx = (w / pc.kgIn) % g.kw;
                const int ky = w / (pc.kgIn * g.kw);
                const WeightTile &tile =
                    pc.tiles[e][static_cast<std::size_t>(cog) *
                                    windows +
                                w];

                // Weight install: the LW burst may overlap the
                // plane's previous window, but IW must not commit
                // while the array is still streaming it.
                const Cycle bursts =
                    static_cast<Cycle>(tile.bursts());
                const Cycle iw_min =
                    w == 0 ? en.windowEnd[pi] : prev_window_end;
                const Cycle inst_start = std::max(
                    en.installFree,
                    iw_min > bursts ? iw_min - bursts : 0);
                const Cycle inst_done = kb().installWeights(
                    plane, tile, /*streams_base=*/0, r.toMxm,
                    inst_start);
                en.installFree = inst_start + bursts + 1;

                // Per-element sources and the earliest window start
                // tw: element i's read issues at tw + i - lead, no
                // earlier than its row is ready. A sequential-mode
                // pad waits for the producer too (paper IV.C
                // "before").
                Cycle tw = std::max(prev_window_end, inst_done);
                src.resize(static_cast<std::size_t>(n));
                for (int i = 0; i < n; ++i) {
                    const int p = p0 + i;
                    const int oy = y_lo + p / ot.width;
                    const int ox = p % ot.width;
                    const int iy = oy * g.stride - g.pad + ky;
                    const int ix = ox * g.stride - g.pad + kx;
                    GlobalAddr &a = src[static_cast<std::size_t>(i)];
                    Cycle rdy = done;
                    if (iy < 0 || iy >= it.height || ix < 0 ||
                        ix >= it.width) {
                        a = en.padZero[pi];
                    } else {
                        if (!it.stores(e, iy)) {
                            panic("convEngine: engine %d needs input "
                                  "row y=%d beyond its halo",
                                  e, iy);
                        }
                        a = it.addrOf(e, iy, ix, kg);
                        rdy = rowReady(in, e,
                                       it.localRow(e, iy, ix, kg), done);
                    }
                    const Cycle need = rdy + kb().readLead(a, en.mxmPos);
                    if (tw + static_cast<Cycle>(i) < need)
                        tw = need - static_cast<Cycle>(i);
                }

                // Place the window's reads, then emit them.
                std::vector<Access> &batch = newBatch();
                for (int i = 0; i < n; ++i) {
                    const GlobalAddr &a = src[static_cast<std::size_t>(i)];
                    batch.push_back({a,
                                     tw + static_cast<Cycle>(i) -
                                         kb().readLead(a, en.mxmPos),
                                     false});
                }
                tw = place(tw, "convEngine window");
                for (int i = 0; i < n; ++i) {
                    kb().readArriving(src[static_cast<std::size_t>(i)],
                                      r.act(pi), en.mxmPos,
                                      tw + static_cast<Cycle>(i));
                }
                kb().abc(plane, r.act(pi),
                         static_cast<std::uint32_t>(n),
                         /*accumulate=*/w > 0, DType::Int8, tw);

                prev_window_end = tw + static_cast<Cycle>(n);
                last_window_start = tw;
            }

            // ---- Drain through the requant chain.
            // chainFree/chainTail are in VXM-arrival time; ACC issue
            // u leads them by the accumulate-exit + transit latency.
            constexpr Cycle drain_lead = kAccLatency + kMxmToVxm;
            const int sig = g.relu ? 1 : 0;
            // A heterogeneous predecessor may have had traffic
            // crossing the result streams' transit span; leave the
            // full MXM-to-VXM flight clear after its tail.
            const Cycle gate = en.chainSig == sig
                                   ? en.chainFree
                                   : en.chainTail + kMxmToVxm;
            Cycle u = last_window_start + 1;
            if (gate > drain_lead)
                u = std::max(u, gate - drain_lead);

            // Place the drain's whole port footprint (const-quad
            // reads + output writes); shift the drain on conflict.
            const ConstQuad &bias = pc.bias[e][static_cast<std::size_t>(cog)];
            const ConstQuad &scale =
                pc.scale[e][static_cast<std::size_t>(cog)];
            dest.clear();
            std::vector<Access> &batch = newBatch();
            for (int i = 0; i < n; ++i) {
                const int p = p0 + i;
                dest.push_back(outElem(ot, e, y_lo + p / ot.width,
                                       p % ot.width, cog));
                const Cycle t = u + drain_lead + static_cast<Cycle>(i);
                for (int q = 0; q < 4; ++q) {
                    const GlobalAddr &ba = bias.addr[q];
                    const GlobalAddr &sa = scale.addr[q];
                    batch.push_back(
                        {ba, t - kb().readLead(ba, Layout::vxm), false});
                    batch.push_back(
                        {sa, t + 3 - kb().readLead(sa, Layout::vxm),
                         false});
                }
                reserveOut(dest.back(), t + kChainOutLat, batch);
            }
            u = place(u, "convEngine drain");

            const Cycle tv = u + drain_lead;
            kb().acc(plane, r.result(pi, 0),
                     static_cast<std::uint32_t>(n), u);
            requantChain(e, r.result(pi, 0).id, bias, scale, g.relu,
                         tv, dest, out);

            en.chainFree = tv + static_cast<Cycle>(n);
            en.chainTail =
                tv + static_cast<Cycle>(n) + kChainOutLat + 2;
            en.chainSig = sig;
            en.planeFree[pi] = u + 1;
            en.windowEnd[pi] =
                last_window_start + static_cast<Cycle>(n);
        }
    }
}

LoweredTensor
Lowering::conv2d(const LoweredTensor &in, const ConvGeom &g,
                 const ConvWeights &w, int out_halo)
{
    build("conv2d");
    TSP_ASSERT(in.t.channels == w.inC);
    const int out_h =
        (in.t.height + 2 * g.pad - g.kh) / g.stride + 1;
    const int out_w =
        (in.t.width + 2 * g.pad - g.kw) / g.stride + 1;
    TSP_ASSERT(out_h >= 1 && out_w >= 1);

    const PlacedConv &pc = placedConvFor(g, w);

    Hemisphere hems[2] = {Hemisphere::West, Hemisphere::East};
    int avoid = 0;
    if (const int ig = groupOf(in); ig >= 0)
        avoid |= 1 << ig;
    LoweredTensor out =
        allocOutput(out_h, out_w, w.outC, out_halo, hems, avoid);

    const Cycle begin = prog_.finishCycle();
    for (int e = 0; e < 2; ++e)
        convEngine(e, in, g, pc, out);
    recordLayer("conv2d", begin);
    return out;
}

} // namespace tsp
