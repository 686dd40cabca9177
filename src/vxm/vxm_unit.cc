#include "vxm/vxm_unit.hh"

#include <algorithm>
#include <type_traits>

#include "common/cpu.hh"
#include "common/logging.hh"
#include "vxm/vxm_kernels.hh"

namespace tsp {

namespace {

/**
 * The lane loops below are instantiated once per (dtype, opcode)
 * pair and dispatched to with two switches per *instruction* instead
 * of several per *lane*: with both parameters compile-time constant,
 * the inline alu_ops bodies collapse to straight-line arithmetic.
 * Semantics are those of the shared alu_ops functions — the same
 * code, merely specialized.
 */

/** Calls @p fn with @p t lifted to a compile-time constant. */
template <typename Fn>
void
withDType(DType t, Fn &&fn)
{
    switch (t) {
      case DType::Int8:
        fn(std::integral_constant<DType, DType::Int8>{});
        return;
      case DType::Int16:
        fn(std::integral_constant<DType, DType::Int16>{});
        return;
      case DType::Int32:
        fn(std::integral_constant<DType, DType::Int32>{});
        return;
      case DType::Fp16:
        fn(std::integral_constant<DType, DType::Fp16>{});
        return;
      case DType::Fp32:
        fn(std::integral_constant<DType, DType::Fp32>{});
        return;
    }
    panic("VXM: bad dtype %d", static_cast<int>(t));
}

/** Calls @p fn with a point-wise binary @p op lifted to a constant. */
template <typename Fn>
void
withBinaryOp(Opcode op, Fn &&fn)
{
    switch (op) {
      case Opcode::Add:
        fn(std::integral_constant<Opcode, Opcode::Add>{});
        return;
      case Opcode::Sub:
        fn(std::integral_constant<Opcode, Opcode::Sub>{});
        return;
      case Opcode::Mul:
        fn(std::integral_constant<Opcode, Opcode::Mul>{});
        return;
      case Opcode::AddSat:
        fn(std::integral_constant<Opcode, Opcode::AddSat>{});
        return;
      case Opcode::SubSat:
        fn(std::integral_constant<Opcode, Opcode::SubSat>{});
        return;
      case Opcode::MulSat:
        fn(std::integral_constant<Opcode, Opcode::MulSat>{});
        return;
      case Opcode::Max:
        fn(std::integral_constant<Opcode, Opcode::Max>{});
        return;
      case Opcode::Min:
        fn(std::integral_constant<Opcode, Opcode::Min>{});
        return;
      case Opcode::Mask:
        fn(std::integral_constant<Opcode, Opcode::Mask>{});
        return;
      default:
        panic("aluBinary: not a binary op: %s", opcodeName(op));
    }
}

/** Calls @p fn with a point-wise unary @p op lifted to a constant. */
template <typename Fn>
void
withUnaryOp(Opcode op, Fn &&fn)
{
    switch (op) {
      case Opcode::Neg:
        fn(std::integral_constant<Opcode, Opcode::Neg>{});
        return;
      case Opcode::Abs:
        fn(std::integral_constant<Opcode, Opcode::Abs>{});
        return;
      case Opcode::Relu:
        fn(std::integral_constant<Opcode, Opcode::Relu>{});
        return;
      case Opcode::Tanh:
        fn(std::integral_constant<Opcode, Opcode::Tanh>{});
        return;
      case Opcode::Exp:
        fn(std::integral_constant<Opcode, Opcode::Exp>{});
        return;
      case Opcode::Rsqrt:
        fn(std::integral_constant<Opcode, Opcode::Rsqrt>{});
        return;
      case Opcode::Shift:
        fn(std::integral_constant<Opcode, Opcode::Shift>{});
        return;
      default:
        panic("aluUnary: not a unary op: %s", opcodeName(op));
    }
}

template <DType T, Opcode OP>
void
binaryLanes(const Vec320 *const *a, const Vec320 *const *b,
            Vec320 *const *out, int lanes)
{
    constexpr int g = dtypeBytes(T);
    std::uint8_t ab[4], bb[4], ob[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k) {
            ab[k] = a[k]->bytes[sl];
            bb[k] = b[k]->bytes[sl];
        }
        const LaneValue r = aluBinary(OP, T, laneLoad(ab, T),
                                      laneLoad(bb, T));
        laneStore(ob, T, r);
        for (int k = 0; k < g; ++k)
            out[k]->bytes[sl] = ob[k];
    }
}

template <DType T, Opcode OP>
void
unaryLanes(const Vec320 *const *a, Vec320 *const *out, int lanes,
           std::uint32_t shift_amount)
{
    constexpr int g = dtypeBytes(T);
    std::uint8_t ab[4], ob[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < g; ++k)
            ab[k] = a[k]->bytes[sl];
        const LaneValue r = aluUnary(OP, T, laneLoad(ab, T),
                                     shift_amount);
        laneStore(ob, T, r);
        for (int k = 0; k < g; ++k)
            out[k]->bytes[sl] = ob[k];
    }
}

template <DType FROM, DType TO>
void
convertLanes(const Vec320 *const *in, Vec320 *const *out, int lanes)
{
    constexpr int gi = dtypeBytes(FROM);
    constexpr int go = dtypeBytes(TO);
    std::uint8_t ibytes[4], obytes[4];
    for (int l = 0; l < lanes; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        for (int k = 0; k < gi; ++k)
            ibytes[k] = in[k]->bytes[sl];
        const LaneValue r = aluConvert(FROM, TO, laneLoad(ibytes, FROM));
        laneStore(obytes, TO, r);
        for (int k = 0; k < go; ++k)
            out[k]->bytes[sl] = obytes[k];
    }
}

} // namespace

VxmUnit::VxmUnit(const ChipConfig &cfg, StreamFabric &fabric)
    : cfg_(cfg), io_(cfg, fabric, "VXM")
{
}

void
VxmUnit::checkAlignment(StreamRef s, int g)
{
    if (g > 1 && (s.id % g) != 0) {
        panic("VXM: stream group of %d must be naturally aligned, got "
              "s%d",
              g, static_cast<int>(s.id));
    }
    TSP_ASSERT(s.id + g <= kStreamsPerDir);
}

template <typename Build>
void
VxmUnit::produceGroup(StreamRef base, int g, int lanes, Cycle when,
                      Build &&build)
{
    // Results go straight to where the port points: tape slots on
    // replay, which still hold a dead value's bytes past the vector
    // length, so those lanes are zeroed to read as the stepped tier's.
    const auto fill = [&](Vec320 *const *out) {
        build(out);
        if (lanes < kLanes) {
            for (int k = 0; k < g; ++k)
                std::fill(out[k]->bytes.begin() + lanes,
                          out[k]->bytes.end(), 0);
        }
    };
    switch (g) {
      case 1:
        io_.produceInPlace<1>(base, Layout::vxm, when, false, fill);
        return;
      case 2:
        io_.produceInPlace<2>(base, Layout::vxm, when, false, fill);
        return;
      case 4:
        io_.produceInPlace<4>(base, Layout::vxm, when, false, fill);
        return;
    }
    panic("VXM: bad stream group size %d", g);
}

void
VxmUnit::execute(const Instruction &inst, int alu, Cycle now)
{
    TSP_ASSERT(alu >= 0 && alu < kVxmAlusPerLane);
    const Cycle when = now + opTiming(inst.op).dFunc;
    const int lanes = cfg_.vectorLength();
    ++instructions_;

    // Operands are read where the port returns them (tape slots on
    // replay, scratch_ otherwise) and results built in place: no
    // operand or result is copied on the way through.
    const Vec320 *a[4];
    if (inst.op == Opcode::Convert) {
        const auto to = static_cast<DType>(inst.imm0);
        const auto from = static_cast<DType>(inst.imm1);
        const int gi = dtypeBytes(from);
        const int go = dtypeBytes(to);
        checkAlignment(inst.srcA, gi);
        checkAlignment(inst.dst, go);

        io_.consumeRun(inst.srcA, Layout::vxm, scratch_, a,
                       static_cast<std::size_t>(gi));
        produceGroup(inst.dst, go, lanes, when, [&](Vec320 *const *out) {
            if (simdKernelsEnabled() &&
                simd::vxmConvertAvx2(from, to, a, out, lanes)) {
                return;
            }
            withDType(from, [&](auto fromc) {
                withDType(to, [&](auto toc) {
                    convertLanes<decltype(fromc)::value,
                                 decltype(toc)::value>(a, out, lanes);
                });
            });
        });
        laneOps_ += static_cast<std::uint64_t>(lanes);
        return;
    }

    const DType t = inst.dtype;
    const int g = dtypeBytes(t);
    checkAlignment(inst.srcA, g);
    checkAlignment(inst.dst, g);

    io_.consumeRun(inst.srcA, Layout::vxm, scratch_, a,
                   static_cast<std::size_t>(g));
    if (isVxmBinary(inst.op)) {
        checkAlignment(inst.srcB, g);
        const Vec320 *b[4];
        io_.consumeRun(inst.srcB, Layout::vxm, scratch_ + 4, b,
                       static_cast<std::size_t>(g));
        // The AVX2 kernels cover the integer and fp32 (dtype, opcode)
        // pairs and are bit-identical to the scalar templates;
        // anything they decline falls through to the specialized
        // scalar loop.
        produceGroup(inst.dst, g, lanes, when, [&](Vec320 *const *out) {
            if (simdKernelsEnabled() &&
                simd::vxmBinaryAvx2(t, inst.op, a, b, out, lanes)) {
                return;
            }
            withDType(t, [&](auto tc) {
                withBinaryOp(inst.op, [&](auto opc) {
                    binaryLanes<decltype(tc)::value,
                                decltype(opc)::value>(a, b, out, lanes);
                });
            });
        });
    } else {
        produceGroup(inst.dst, g, lanes, when, [&](Vec320 *const *out) {
            if (simdKernelsEnabled() &&
                simd::vxmUnaryAvx2(t, inst.op, a, out, lanes)) {
                return;
            }
            withDType(t, [&](auto tc) {
                withUnaryOp(inst.op, [&](auto opc) {
                    unaryLanes<decltype(tc)::value,
                               decltype(opc)::value>(a, out, lanes,
                                                     inst.imm0);
                });
            });
        });
    }
    laneOps_ += static_cast<std::uint64_t>(lanes);
}

} // namespace tsp
