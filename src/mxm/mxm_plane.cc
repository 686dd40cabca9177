#include "mxm/mxm_plane.hh"

#include <algorithm>

#include "common/cpu.hh"
#include "common/fp16.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "mxm/mxm_kernels.hh"

namespace tsp {

namespace {

/**
 * @return the number of @p block-column blocks up to and including
 * the last one of @p row holding a nonzero weight (0 for an all-zero
 * row). Scans from the end, so a dense row costs one block.
 */
std::uint8_t
nonzeroBlocks(const std::int8_t *row, int block)
{
    for (int b = kMxmDim / block; b > 0; --b) {
        const std::int8_t *p = row + (b - 1) * block;
        std::uint64_t any = 0;
        for (int i = 0; i < block; i += 8) {
            std::uint64_t w;
            __builtin_memcpy(&w, p + i, sizeof(w));
            any |= w;
        }
        if (any != 0)
            return static_cast<std::uint8_t>(b);
    }
    return 0;
}

} // namespace

MxmPlane::MxmPlane(int plane, const ChipConfig &cfg,
                   StreamFabric &fabric)
    : cfg_(cfg), io_(cfg, fabric, strformat("MXM%d", plane)),
      plane_(plane)
{
    TSP_ASSERT(plane >= 0 && plane < kMxmPlanes);
}

void
MxmPlane::allocateArrays()
{
    if (!wbuf_.empty())
        return;
    const std::size_t plane = static_cast<std::size_t>(kMxmDim) * kMxmDim;
    wbuf_.assign(plane, 0);
    winst_.assign(plane, 0);
    wbufF_.assign(plane, 0);
    winstF_.assign(plane, 0);
    wbufExt_.assign(kMxmDim, 0);
    winstExt_.assign(kMxmDim, 0);
    winstRowSum_.assign(kMxmDim, 0);
    winstFCols_.assign(plane, 0.0f);
    accI_.assign(kMxmAccDepth, {});
    accF_.assign(kMxmAccDepth, {});
}

std::int8_t
MxmPlane::installedWeight(int row, int col) const
{
    TSP_ASSERT(row >= 0 && row < kMxmDim && col >= 0 && col < kMxmDim);
    if (winst_.empty())
        return 0;
    return winst_[static_cast<std::size_t>(row) * kMxmDim +
                  static_cast<std::size_t>(col)];
}

std::uint16_t
MxmPlane::installedWeightF16(int row, int col) const
{
    TSP_ASSERT(row >= 0 && row < kMxmDim && col >= 0 && col < kMxmDim);
    if (winstF_.empty())
        return 0;
    return winstF_[static_cast<std::size_t>(row) * kMxmDim +
                   static_cast<std::size_t>(col)];
}

void
MxmPlane::issue(const Instruction &inst, Cycle now)
{
    // ABC and ACC tick only after an issue, so every array access
    // follows this.
    allocateArrays();
    switch (inst.op) {
      case Opcode::Lw:
        executeLw(inst, now);
        return;
      case Opcode::Iw:
        executeIw(inst, now);
        return;
      case Opcode::Abc:
        executeAbc(inst, now);
        return;
      case Opcode::Acc:
        executeAcc(inst, now);
        return;
      default:
        panic("MXM%d: bad opcode %s", plane_, opcodeName(inst.op));
    }
}

void
MxmPlane::executeLw(const Instruction &inst, Cycle now)
{
    (void)now;
    const int gs = inst.groupSize;
    TSP_ASSERT(gs >= 1 && gs <= kStreamsPerDir);

    if (fillRow_ == 0)
        weightType_ = inst.dtype;
    else if (inst.dtype != weightType_)
        panic("MXM%d: mixed weight dtypes in one LW burst", plane_);

    if (weightType_ != DType::Int8 && weightType_ != DType::Fp16) {
        panic("MXM%d: weights must be int8 or fp16, got %s", plane_,
              dtypeName(weightType_));
    }
    // An fp16 row arrives as a (low byte, high byte) stream pair.
    const bool f16 = weightType_ == DType::Fp16;
    TSP_ASSERT(!f16 || gs % 2 == 0);
    const int rows = f16 ? gs / 2 : gs;
    if (fillRow_ + rows > kMxmDim) {
        panic("MXM%d: LW overflows weight buffer (row %d + %d)", plane_,
              fillRow_, rows);
    }
    const Vec320 *vp[kStreamsPerDir];
    Vec320 scratch[kStreamsPerDir];
    io_.consumeRun(inst.srcA, pos(), scratch, vp,
                   static_cast<std::size_t>(gs));
    for (int i = 0; i < rows; ++i) {
        const std::size_t row = static_cast<std::size_t>(fillRow_ + i);
        if (f16) {
            const Vec320 &vlo = *vp[2 * i];
            const Vec320 &vhi = *vp[2 * i + 1];
            for (std::size_t c = 0; c < kMxmDim; ++c) {
                wbufF_[row * kMxmDim + c] = static_cast<std::uint16_t>(
                    vlo.bytes[c] |
                    (static_cast<std::uint16_t>(vhi.bytes[c]) << 8));
            }
        } else {
            std::int8_t *dst = &wbuf_[row * kMxmDim];
            // Bit-preserving u8 -> int8 row copy (the cast the scalar
            // loop did is a no-op on the representation).
            __builtin_memcpy(dst, vp[i]->bytes.data(), kMxmDim);
            wbufExt_[row] = nonzeroBlocks(dst, kColBlock);
        }
    }
    fillRow_ += rows;
    weightBytes_ += static_cast<std::uint64_t>(gs) * kMxmDim;
}

void
MxmPlane::executeIw(const Instruction &inst, Cycle now)
{
    (void)inst;
    (void)now;
    // Installs staged == installed for the whole plane, copying only
    // what can differ: the rows staged since the last install, of the
    // burst's dtype (see wbuf_).
    const std::size_t n =
        static_cast<std::size_t>(fillRow_) * kMxmDim;
    if (weightType_ == DType::Int8) {
        std::copy_n(wbuf_.begin(), n, winst_.begin());
        std::copy_n(wbufExt_.begin(), fillRow_, winstExt_.begin());
        refreshRowSums(fillRow_);
        updateBlock();
    } else if (n > 0) {
        std::copy_n(wbufF_.begin(), n, winstF_.begin());
        fWeightsValid_ = false;
    }
    installedType_ = weightType_;
    fillRow_ = 0;
}

void
MxmPlane::refreshRowSums(int rows)
{
    const int n = cfg_.vectorLength();
    for (int r = 0; r < rows; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        const std::int8_t *row = &winst_[ri * kMxmDim];
        // The row's weights past its extent are zero.
        const int cols = std::min(n, winstExt_[ri] * kColBlock);
        std::int32_t sum = 0;
        for (int c = 0; c < cols; ++c)
            sum += row[c];
        winstRowSum_[ri] = sum;
    }
}

void
MxmPlane::updateBlock()
{
    blockRows_ = 0;
    int blocks = 0;
    for (int r = 0; r < kMxmDim; ++r) {
        const int ext = winstExt_[static_cast<std::size_t>(r)];
        if (ext != 0) {
            blockRows_ = r + 1;
            blocks = std::max(blocks, ext);
        }
    }
    blockCols_ = blocks * kColBlock;
}

void
MxmPlane::buildF16WeightCols()
{
    for (int r = 0; r < kMxmDim; ++r) {
        const std::uint16_t *wrow =
            &winstF_[static_cast<std::size_t>(r) * kMxmDim];
        for (int c = 0; c < kMxmDim; ++c) {
            winstFCols_[static_cast<std::size_t>(c) * kMxmDim +
                        static_cast<std::size_t>(r)] =
                Fp16::fromBits(wrow[c]).toFloat();
        }
    }
    fWeightsValid_ = true;
}

void
MxmPlane::executeAbc(const Instruction &inst, Cycle now)
{
    (void)now;
    if (abc_.active) {
        panic("MXM%d: ABC issued while a window is active (scheduler "
              "bug)",
              plane_);
    }
    TSP_ASSERT(inst.imm1 > 0);
    if (inst.imm1 > kMxmAccDepth) {
        panic("MXM%d: ABC window of %u exceeds accumulator depth %u",
              plane_, inst.imm1, kMxmAccDepth);
    }
    abc_.active = true;
    if (!(inst.flags & Instruction::kFlagAccumulate))
        ++generation_;
    abc_.src = inst.srcA;
    abc_.remaining = inst.imm1;
    abc_.index = 0;
    abc_.accumulate = inst.flags & Instruction::kFlagAccumulate;
    abc_.atype = inst.dtype;
    if (abc_.atype == DType::Fp16 && installedType_ != DType::Fp16) {
        panic("MXM%d: fp16 activations over %s weights", plane_,
              dtypeName(installedType_));
    }
}

void
MxmPlane::executeAcc(const Instruction &inst, Cycle now)
{
    (void)now;
    if (acc_.active) {
        panic("MXM%d: ACC issued while a drain is active (scheduler "
              "bug)",
              plane_);
    }
    TSP_ASSERT(inst.imm1 > 0 && inst.imm1 <= kMxmAccDepth);
    acc_.active = true;
    accGen_ = generation_;
    acc_.dst = inst.dst;
    acc_.remaining = inst.imm1;
    acc_.index = 0;
}

void
MxmPlane::stepAbc(Cycle now)
{
    if (!abc_.active)
        return;
    ++activeCycles_;

    const int n = cfg_.vectorLength();
    const std::uint32_t idx = abc_.index;

    // Stamp the accumulator with the current window generation; the
    // drain checks it reads its own generation (see stepAcc).
    indexGen_[idx] = generation_;

    if (abc_.atype == DType::Int8) {
        Vec320 scratch;
        const Vec320 &a = *io_.consumeRef(abc_.src, pos(), scratch);
        auto &acc = accI_[idx];
        // Dot products against installed rows: y[r] = sum_c W[r][c]*a[c],
        // computed over the nonzero block only — the rest of the plane
        // contributes exact zeros (mxm_kernels.hh). Kernel ladder:
        // AVX-512 VNNI (with the per-install row sums), then AVX2,
        // then scalar. Every tier computes the identical wrapping
        // int32 sums; a kernel declines lane counts it can't chunk and
        // the next tier takes over.
        const int rows = std::min(blockRows_, n);
        const int cols = std::min(blockCols_, n);
        bool done = false;
        if (simdKernelsEnabled()) {
            if (cpuHasAvx512Vnni()) {
                done = simd::mxmAbcInt8Vnni(
                    winst_.data(), kMxmDim, a.bytes.data(),
                    winstRowSum_.data(), acc.data(), n, rows, cols,
                    abc_.accumulate);
            }
            if (!done) {
                done = simd::mxmAbcInt8Avx2(
                    winst_.data(), kMxmDim, a.bytes.data(), acc.data(),
                    n, rows, cols, abc_.accumulate);
            }
        }
        if (!done) {
            simd::mxmAbcInt8Scalar(winst_.data(), kMxmDim,
                                   a.bytes.data(), acc.data(), n, rows,
                                   cols, abc_.accumulate);
        }
    } else if (abc_.atype == DType::Fp16) {
        const Vec320 *vp[2];
        Vec320 scratch[2];
        io_.consumeRun(abc_.src, pos(), scratch, vp, 2);
        const Vec320 &vlo = *vp[0];
        const Vec320 &vhi = *vp[1];
        float act[kMxmDim];
        for (int c = 0; c < n; ++c) {
            const auto bits = static_cast<std::uint16_t>(
                vlo.bytes[static_cast<std::size_t>(c)] |
                (static_cast<std::uint16_t>(
                     vhi.bytes[static_cast<std::size_t>(c)])
                 << 8));
            act[c] = Fp16::fromBits(bits).toFloat();
        }
        auto &acc = accF_[idx];
        // Row dot products in fp32: y[r] = sum_c w[r][c]*act[c],
        // summed column-ascending from 0.0f with a separate rounding
        // for the multiply and the add (no FMA). The SIMD tiers
        // vectorize *across rows*, so each row's rounding sequence is
        // exactly this scalar loop's — bit-identical including NaN
        // and inf propagation. Unlike int8, fp16 always computes the
        // full plane: a zero weight is not a no-op in IEEE arithmetic
        // (0 x Inf and 0 x NaN are NaN, and adding a zero row's +0 sum
        // turns a -0 accumulator into +0), so bounding the kernel to
        // the nonzero block would be inexact.
        bool done = false;
        if (simdKernelsEnabled()) {
            if (!fWeightsValid_)
                buildF16WeightCols();
            if (cpuHasAvx512f()) {
                done = simd::mxmAbcF16Avx512(
                    winstFCols_.data(), kMxmDim, act, accF_[idx].data(),
                    n, abc_.accumulate);
            }
            if (!done) {
                done = simd::mxmAbcF16Avx2(winstFCols_.data(), kMxmDim,
                                           act, accF_[idx].data(), n,
                                           abc_.accumulate);
            }
        }
        if (!done) {
            for (int r = 0; r < n; ++r) {
                const std::uint16_t *wrow =
                    &winstF_[static_cast<std::size_t>(r) * kMxmDim];
                float sum = 0.0f;
                for (int c = 0; c < n; ++c)
                    sum += Fp16::fromBits(wrow[c]).toFloat() * act[c];
                if (abc_.accumulate)
                    acc[static_cast<std::size_t>(r)] += sum;
                else
                    acc[static_cast<std::size_t>(r)] = sum;
            }
        }
    } else {
        panic("MXM%d: unsupported activation dtype %s", plane_,
              dtypeName(abc_.atype));
    }
    (void)now;

    maccOps_ +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    ++abc_.index;
    if (--abc_.remaining == 0)
        abc_.active = false;
}

void
MxmPlane::stepAcc(Cycle now)
{
    if (!acc_.active)
        return;

    if (indexGen_[acc_.index] != accGen_) {
        panic("MXM%d: ACC drains accumulator %u of generation %llu "
              "but expected %llu (overwritten before drain — "
              "scheduler bug)",
              plane_, acc_.index,
              static_cast<unsigned long long>(indexGen_[acc_.index]),
              static_cast<unsigned long long>(accGen_));
    }

    const Cycle when = now + opTiming(Opcode::Acc).dFunc;
    const int n = cfg_.vectorLength();

    TSP_ASSERT(acc_.dst.id % 4 == 0 &&
               acc_.dst.id + 4 <= kStreamsPerDir);

    // The four byte planes of each accumulator row, built in one pass
    // straight into the produced vectors (tape slots on replay).
    io_.produceInPlace<4>(
        acc_.dst, pos(), when, /*keep_codes=*/false,
        [&](Vec320 *const *out) {
            const auto put = [&](int r, std::uint32_t u) {
                for (int k = 0; k < 4; ++k) {
                    out[k]->bytes[static_cast<std::size_t>(r)] =
                        static_cast<std::uint8_t>(u >> (8 * k));
                }
            };
            if (installedType_ == DType::Fp16) {
                const auto &acc = accF_[acc_.index];
                for (int r = 0; r < n; ++r) {
                    std::uint32_t u;
                    __builtin_memcpy(&u, &acc[static_cast<std::size_t>(r)],
                                     sizeof(u));
                    put(r, u);
                }
            } else {
                const auto &acc = accI_[acc_.index];
                for (int r = 0; r < n; ++r) {
                    put(r, static_cast<std::uint32_t>(
                               acc[static_cast<std::size_t>(r)]));
                }
            }
            // Lanes past the vector length read as zero.
            for (int k = 0; k < 4; ++k)
                std::fill(out[k]->bytes.begin() + n, out[k]->bytes.end(), 0);
        });

    ++acc_.index;
    if (--acc_.remaining == 0)
        acc_.active = false;
}

void
MxmPlane::tick(Cycle now)
{
    stepAbc(now);
    stepAcc(now);
}

void
MxmPlane::saveState(SnapshotWriter &w) const
{
    io_.saveState(w);
    // A plane that never ran has no arrays; they read as zeros.
    const std::size_t plane = static_cast<std::size_t>(kMxmDim) * kMxmDim;
    const bool zero = wbuf_.empty();
    if (zero) {
        w.zeros(2 * plane + 2 * plane * sizeof(std::uint16_t));
    } else {
        w.bytes(wbuf_.data(), wbuf_.size());
        w.bytes(winst_.data(), winst_.size());
        for (const auto v : wbufF_)
            w.u16(v);
        for (const auto v : winstF_)
            w.u16(v);
    }
    w.i32(fillRow_);
    w.u8(static_cast<std::uint8_t>(weightType_));
    w.u8(static_cast<std::uint8_t>(installedType_));

    w.b(abc_.active);
    w.u8(abc_.src.id);
    w.u8(abc_.src.dir == Direction::West ? 1 : 0);
    w.u32(abc_.remaining);
    w.u32(abc_.index);
    w.b(abc_.accumulate);
    w.u8(static_cast<std::uint8_t>(abc_.atype));

    w.b(acc_.active);
    w.u8(acc_.dst.id);
    w.u8(acc_.dst.dir == Direction::West ? 1 : 0);
    w.u32(acc_.remaining);
    w.u32(acc_.index);

    if (zero) {
        w.zeros(2 * std::size_t{kMxmAccDepth} * kMxmDim * sizeof(float));
    } else {
        for (const auto &row : accI_) {
            for (const auto v : row)
                w.i32(v);
        }
        for (const auto &row : accF_) {
            for (const auto v : row)
                w.f32(v);
        }
    }
    w.u64(generation_);
    w.u64(accGen_);
    for (const auto g : indexGen_)
        w.u64(g);

    w.u64(maccOps_);
    w.u64(activeCycles_);
    w.u64(weightBytes_);
}

void
MxmPlane::loadState(SnapshotReader &r)
{
    io_.loadState(r);
    allocateArrays();
    r.bytes(wbuf_.data(), wbuf_.size());
    r.bytes(winst_.data(), winst_.size());
    for (auto &v : wbufF_)
        v = r.u16();
    for (auto &v : winstF_)
        v = r.u16();
    fillRow_ = r.i32();
    weightType_ = static_cast<DType>(r.u8());
    installedType_ = static_cast<DType>(r.u8());
    // Derived weight state: the nonzero extents, the VNNI row sums
    // and the installed block are recomputed from the weights; the
    // fp16 column image is rebuilt on demand.
    for (int row = 0; row < kMxmDim; ++row) {
        const std::size_t ri = static_cast<std::size_t>(row);
        wbufExt_[ri] = nonzeroBlocks(&wbuf_[ri * kMxmDim], kColBlock);
        winstExt_[ri] = nonzeroBlocks(&winst_[ri * kMxmDim], kColBlock);
    }
    refreshRowSums(kMxmDim);
    updateBlock();
    fWeightsValid_ = false;

    abc_.active = r.b();
    abc_.src.id = r.u8();
    abc_.src.dir = r.u8() ? Direction::West : Direction::East;
    abc_.remaining = r.u32();
    abc_.index = r.u32();
    abc_.accumulate = r.b();
    abc_.atype = static_cast<DType>(r.u8());

    acc_.active = r.b();
    acc_.dst.id = r.u8();
    acc_.dst.dir = r.u8() ? Direction::West : Direction::East;
    acc_.remaining = r.u32();
    acc_.index = r.u32();
    // A sequencer steps index up to index + remaining <= the bank
    // depth, on streams inside the direction; a payload that says
    // otherwise was never saved.
    const auto window_ok = [](bool active, std::uint32_t index,
                              std::uint32_t remaining) {
        return std::uint64_t{index} + remaining <= kMxmAccDepth &&
               (!active || remaining > 0);
    };
    const int abc_ids = abc_.atype == DType::Fp16 ? 2 : 1;
    if (fillRow_ < 0 || fillRow_ > kMxmDim ||
        !window_ok(abc_.active, abc_.index, abc_.remaining) ||
        !window_ok(acc_.active, acc_.index, acc_.remaining) ||
        abc_.src.id + abc_ids > kStreamsPerDir || acc_.dst.id % 4 != 0 ||
        acc_.dst.id + 4 > kStreamsPerDir) {
        r.fail();
        return;
    }

    for (auto &row : accI_) {
        for (auto &v : row)
            v = r.i32();
    }
    for (auto &row : accF_) {
        for (auto &v : row)
            v = r.f32();
    }
    generation_ = r.u64();
    accGen_ = r.u64();
    for (auto &g : indexGen_)
        g = r.u64();

    maccOps_ = r.u64();
    activeCycles_ = r.u64();
    weightBytes_ = r.u64();
}

} // namespace tsp
