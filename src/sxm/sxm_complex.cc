#include "sxm/sxm_complex.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tsp {

SxmComplex::SxmComplex(Hemisphere hem, const ChipConfig &cfg,
                       StreamFabric &fabric)
    : hem_(hem), cfg_(cfg),
      io_(cfg, fabric,
          strformat("SXM_%c", hem == Hemisphere::East ? 'E' : 'W'))
{
}

void
SxmComplex::checkUnit(Opcode op, SxmUnit unit)
{
    bool ok = false;
    switch (op) {
      case Opcode::ShiftUp:
        ok = unit == SxmUnit::ShiftNorth;
        break;
      case Opcode::ShiftDown:
        ok = unit == SxmUnit::ShiftSouth;
        break;
      case Opcode::SelectNS:
        ok = unit == SxmUnit::Select;
        break;
      case Opcode::Permute:
        ok = unit == SxmUnit::Permute;
        break;
      case Opcode::Distribute:
        ok = unit == SxmUnit::Distribute;
        break;
      case Opcode::Rotate:
        ok = unit == SxmUnit::Rotate;
        break;
      case Opcode::Transpose:
        ok = unit == SxmUnit::Transpose0 || unit == SxmUnit::Transpose1;
        break;
      default:
        break;
    }
    if (!ok) {
        panic("SXM: opcode %s dispatched to unit %s", opcodeName(op),
              sxmUnitName(unit));
    }
}

void
SxmComplex::execute(const Instruction &inst, SxmUnit unit, Cycle now)
{
    checkUnit(inst.op, unit);
    ++instructions_;
    switch (inst.op) {
      case Opcode::ShiftUp:
        executeShift(inst, /*north=*/true, now);
        return;
      case Opcode::ShiftDown:
        executeShift(inst, /*north=*/false, now);
        return;
      case Opcode::SelectNS:
        executeSelect(inst, now);
        return;
      case Opcode::Permute:
        executePermute(inst, now);
        return;
      case Opcode::Distribute:
        executeDistribute(inst, now);
        return;
      case Opcode::Rotate:
        executeRotate(inst, now);
        return;
      case Opcode::Transpose:
        executeTranspose(inst, now);
        return;
      default:
        panic("SXM: bad opcode %s", opcodeName(inst.op));
    }
}

void
SxmComplex::executeShift(const Instruction &inst, bool north, Cycle now)
{
    const Vec320 &in = *io_.consumeRef(inst.srcA, pos(), scratch_[0]);
    const int n = static_cast<int>(inst.imm0);
    TSP_ASSERT(n >= 0 && n < kLanes);

    // North raises the lane index (instructions flow northward over
    // rising superlanes); vacated lanes zero-fill.
    io_.produceInPlace<1>(
        inst.dst, pos(), now + opTiming(inst.op).dFunc, false,
        [&](Vec320 *const *out) {
            for (int l = 0; l < kLanes; ++l) {
                const int src = north ? l - n : l + n;
                out[0]->bytes[static_cast<std::size_t>(l)] =
                    (src >= 0 && src < kLanes)
                        ? in.bytes[static_cast<std::size_t>(src)]
                        : 0;
            }
        });
    bytesSwitched_ += kLanes;
}

void
SxmComplex::executeSelect(const Instruction &inst, Cycle now)
{
    const Vec320 &a = *io_.consumeRef(inst.srcA, pos(), scratch_[0]);
    const Vec320 &b = *io_.consumeRef(inst.srcB, pos(), scratch_[1]);

    // imm0 is a 20-bit per-superlane mask: bit s set selects b for
    // superlane s.
    io_.produceInPlace<1>(
        inst.dst, pos(), now + opTiming(inst.op).dFunc, false,
        [&](Vec320 *const *out) {
            for (int sl = 0; sl < kSuperlanes; ++sl) {
                const bool take_b = (inst.imm0 >> sl) & 1;
                const Vec320 &src = take_b ? b : a;
                for (int j = 0; j < kLanesPerSuperlane; ++j) {
                    const auto l = static_cast<std::size_t>(
                        sl * kLanesPerSuperlane + j);
                    out[0]->bytes[l] = src.bytes[l];
                }
            }
        });
    bytesSwitched_ += kLanes;
}

void
SxmComplex::executePermute(const Instruction &inst, Cycle now)
{
    TSP_ASSERT(inst.map && inst.map->size() == kLanes);
    const Vec320 &in = *io_.consumeRef(inst.srcA, pos(), scratch_[0]);

    io_.produceInPlace<1>(
        inst.dst, pos(), now + opTiming(inst.op).dFunc, false,
        [&](Vec320 *const *out) {
            for (int l = 0; l < kLanes; ++l) {
                const std::uint16_t src =
                    (*inst.map)[static_cast<std::size_t>(l)];
                TSP_ASSERT(src < kLanes);
                out[0]->bytes[static_cast<std::size_t>(l)] =
                    in.bytes[static_cast<std::size_t>(src)];
            }
        });
    bytesSwitched_ += kLanes;
}

void
SxmComplex::executeDistribute(const Instruction &inst, Cycle now)
{
    TSP_ASSERT(inst.map &&
               inst.map->size() == kLanesPerSuperlane);
    const Vec320 &in = *io_.consumeRef(inst.srcA, pos(), scratch_[0]);

    // The same 16-lane remap applies within every superlane; the
    // sentinel 0xffff zero-fills a lane (zero padding, filter
    // rearrangement).
    io_.produceInPlace<1>(
        inst.dst, pos(), now + opTiming(inst.op).dFunc, false,
        [&](Vec320 *const *out) {
            for (int sl = 0; sl < kSuperlanes; ++sl) {
                for (int j = 0; j < kLanesPerSuperlane; ++j) {
                    const std::uint16_t src =
                        (*inst.map)[static_cast<std::size_t>(j)];
                    const auto l = static_cast<std::size_t>(
                        sl * kLanesPerSuperlane + j);
                    if (src == 0xffff) {
                        out[0]->bytes[l] = 0;
                    } else {
                        TSP_ASSERT(src < kLanesPerSuperlane);
                        out[0]->bytes[l] = in.bytes[static_cast<
                            std::size_t>(sl * kLanesPerSuperlane + src)];
                    }
                }
            }
        });
    bytesSwitched_ += kLanes;
}

void
SxmComplex::executeRotate(const Instruction &inst, Cycle now)
{
    const int n = static_cast<int>(inst.imm0);
    TSP_ASSERT(n == 3 || n == 4);
    const int block = n * n;
    TSP_ASSERT(inst.dst.id + block <= kStreamsPerDir);
    const Vec320 &in = *io_.consumeRef(inst.srcA, pos(), scratch_[0]);
    const Cycle when = now + opTiming(inst.op).dFunc;

    // Produce n^2 output streams; output r is the input rotated by r
    // elements within each n^2-lane block (all possible rotations of
    // the n x n window). Trailing lanes past the last whole block are
    // zero.
    const int whole = (kLanes / block) * block;
    const auto build = [&](Vec320 *const *out) {
        for (int r = 0; r < block; ++r) {
            auto &bytes = out[r]->bytes;
            for (int l = 0; l < whole; ++l) {
                const int base = (l / block) * block;
                const int j = l % block;
                bytes[static_cast<std::size_t>(l)] =
                    in.bytes[static_cast<std::size_t>(
                        base + (j + r) % block)];
            }
            std::fill(bytes.begin() + whole, bytes.end(), 0);
        }
    };
    if (n == 3)
        io_.produceInPlace<9>(inst.dst, pos(), when, false, build);
    else
        io_.produceInPlace<16>(inst.dst, pos(), when, false, build);
    bytesSwitched_ += static_cast<std::uint64_t>(kLanes) * block;
}

void
SxmComplex::executeTranspose(const Instruction &inst, Cycle now)
{
    TSP_ASSERT(inst.srcA.id + 16 <= kStreamsPerDir);
    TSP_ASSERT(inst.dst.id + 16 <= kStreamsPerDir);
    const Cycle when = now + opTiming(inst.op).dFunc;

    const Vec320 *in[16];
    io_.consumeRun(inst.srcA, pos(), scratch_, in, 16);

    // Within each superlane, exchange the (stream, lane) axes of the
    // 16x16 element tile.
    io_.produceInPlace<16>(
        inst.dst, pos(), when, false, [&](Vec320 *const *out) {
            for (int k = 0; k < 16; ++k) {
                for (int sl = 0; sl < kSuperlanes; ++sl) {
                    for (int j = 0; j < kLanesPerSuperlane; ++j) {
                        out[k]->bytes[static_cast<std::size_t>(
                            sl * kLanesPerSuperlane + j)] =
                            in[j]->bytes[static_cast<std::size_t>(
                                sl * kLanesPerSuperlane + k)];
                    }
                }
            }
        });
    bytesSwitched_ += static_cast<std::uint64_t>(kLanes) * 16;
}

} // namespace tsp
