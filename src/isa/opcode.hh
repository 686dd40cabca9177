/**
 * @file
 * Opcode enumeration for every instruction in Table I of the paper,
 * and one declarative row per opcode: everything the simulator knows
 * about an instruction (its slice, its timing, its assembly operands
 * and their ranges) lives in kOpTable, and the printer, the parser,
 * the units and the compiler all read it.
 */

#ifndef TSP_ISA_OPCODE_HH
#define TSP_ISA_OPCODE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "arch/layout.hh"

namespace tsp {

/**
 * All TSP instructions (Table I).
 *
 * VXM arithmetic keeps the paper's saturating/modulo split: the plain
 * Add/Sub/Mul opcodes are the modulo (wrapping) variants and the *Sat
 * forms saturate; the ALUs are stateless and produce no flags.
 */
enum class Opcode : std::uint8_t {
    // --- ICU (common to every slice) ---
    Nop,        ///< NOP N: delay N cycles.
    Ifetch,     ///< Fetch 640 B of program text from a stream.
    Sync,       ///< Park until a Notify barrier release.
    Notify,     ///< Release all parked Syncs chip-wide.
    Config,     ///< Configure low-power mode (superlane gating).
    Repeat,     ///< Repeat previous instruction n times, d apart.

    // --- MEM ---
    Read,       ///< Load vector at address onto a stream.
    Write,      ///< Store a stream's vector to an address.
    Gather,     ///< Indirect read; addresses arrive on a map stream.
    Scatter,    ///< Indirect write; addresses arrive on a map stream.

    // --- VXM point-wise ---
    Add,        ///< Wrapping add (add_mod).
    Sub,        ///< Wrapping subtract (sub_mod).
    Mul,        ///< Wrapping multiply (mul_mod).
    AddSat,     ///< Saturating add.
    SubSat,     ///< Saturating subtract.
    MulSat,     ///< Saturating multiply.
    Max,        ///< Point-wise maximum.
    Min,        ///< Point-wise minimum.
    Neg,        ///< Point-wise negate.
    Abs,        ///< Point-wise absolute value.
    Mask,       ///< Zero lanes where the mask stream is zero.
    Relu,       ///< max(0, x).
    Tanh,       ///< Hyperbolic tangent.
    Exp,        ///< e^x.
    Rsqrt,      ///< Reciprocal square root.
    Convert,    ///< Data-type conversion (fixed <-> float, widen/narrow).
    Shift,      ///< Arithmetic right shift by imm (requantization step).

    // --- MXM ---
    Lw,         ///< Load weights from streams into the LW buffer.
    Iw,         ///< Install weights into the 320x320 array.
    Abc,        ///< Activation buffer control: begin streaming activations.
    Acc,        ///< Emit accumulated int32/fp32 results onto streams.

    // --- SXM ---
    ShiftUp,    ///< Lane-shift a stream North by imm lanes.
    ShiftDown,  ///< Lane-shift a stream South by imm lanes.
    SelectNS,   ///< Select between North/South shifted and unshifted.
    Permute,    ///< Bijective remap of the 320 lanes.
    Distribute, ///< Remap / replicate / zero-fill within each superlane.
    Rotate,     ///< Generate all n x n rotations of input data.
    Transpose,  ///< Transpose 16x16 across a 16-stream group.

    // --- C2C ---
    Deskew,     ///< Align a plesiochronous link.
    Send,       ///< Transmit a 320-byte vector on a link.
    Receive,    ///< Receive a 320-byte vector from a link.

    NumOpcodes,
};

/** Number of distinct opcodes. */
inline constexpr int kNumOpcodes =
    static_cast<int>(Opcode::NumOpcodes);

/** The Instruction field an assembly operand reads and writes. */
enum class OpField : std::uint8_t {
    None,      ///< No operand (ends a row's operand list).
    Addr,      ///< addr, printed "0x1a2".
    SrcA,      ///< srcA stream, printed "s12.e".
    SrcB,      ///< srcB stream.
    Dst,       ///< dst stream.
    Imm0,      ///< imm0, a number with the operand's tag.
    Imm1,      ///< imm1.
    GroupSize, ///< groupSize.
    Rotation,  ///< n: imm0 = n and groupSize = n * n (Rotate).
    Types,     ///< "int32 -> fp32": imm1 = source, imm0 = target.
    AccFlag,   ///< Optional trailing "acc": kFlagAccumulate.
};

/** @return true for the stream fields (srcA, srcB, dst). */
constexpr bool
isStreamField(OpField f)
{
    return f == OpField::SrcA || f == OpField::SrcB || f == OpField::Dst;
}

/** The consecutive streams a stream operand touches from its base. */
enum class Span : std::uint8_t {
    One,     ///< Its own stream.
    Pair,    ///< Two: an Ifetch text pair.
    Quad,    ///< Four from a multiple of 4: an ACC int32 result.
    Sixteen, ///< A Transpose group of 16.
    Group,   ///< groupSize (an LW burst, the Rotate outputs).
    SrcType, ///< The source dtype's bytes, aligned (Convert input).
    DstType, ///< The target dtype's bytes, aligned (Convert output).
};

/** One assembly operand of an opcode. */
struct OpOperand
{
    OpField field = OpField::None;
    char tag = 0;          ///< A number's prefix ('p', 'n', 'l', 'm').
    std::uint32_t lo = 0;  ///< A number's range, inclusive.
    std::uint32_t hi = 0;
    Span span = Span::One; ///< A stream's extent.
};

/** Point-wise VXM arity class. */
enum class VxmClass : std::uint8_t { None, Unary, Binary };

/** Everything the simulator knows about one opcode. */
struct OpRow
{
    Opcode op;
    const char *name;   ///< Assembler mnemonic, e.g. "add.sat".
    SliceKind slice;    ///< The slice that executes it (ICU: any).
    /**
     * d_func: cycles from dispatch until the result vector appears on
     * the destination stream register at the slice's position (Eq. 4).
     */
    std::uint8_t dFunc;
    VxmClass vxm;
    /** Holds its unit for its imm1 window after dispatch (ABC, ACC);
     *  every other opcode holds it for the dispatch cycle. */
    bool windowed;
    /** groupSize the assembler sets before its operands. */
    std::uint8_t group;
    /** Assembly operands in text order. */
    std::array<OpOperand, 4> operands;
};

namespace oprow {

inline constexpr std::uint32_t kU32Max =
    std::numeric_limits<std::uint32_t>::max();

constexpr OpOperand
stream(OpField f, Span s = Span::One)
{
    return {f, 0, 0, 0, s};
}

constexpr OpOperand
number(OpField f, std::uint32_t lo, std::uint32_t hi, char tag = 0)
{
    return {f, tag, lo, hi, Span::One};
}

inline constexpr OpOperand kAddr =
    number(OpField::Addr, 0, kMemWordsPerSlice - 1);
inline constexpr OpOperand kPlane =
    number(OpField::Imm0, 0, kMxmPlanes - 1, 'p');
inline constexpr OpOperand kWindow =
    number(OpField::Imm1, 1, kMxmAccDepth, 'n');
inline constexpr OpOperand kLink =
    number(OpField::Imm0, 0, kC2cLinks - 1, 'l');
inline constexpr OpOperand kA = stream(OpField::SrcA);
inline constexpr OpOperand kB = stream(OpField::SrcB);
inline constexpr OpOperand kD = stream(OpField::Dst);

inline constexpr std::array<OpOperand, 4> kUnary = {kA, kD};
inline constexpr std::array<OpOperand, 4> kBinary = {kA, kB, kD};

constexpr OpRow
row(Opcode op, const char *name, SliceKind slice, int d_func,
    std::array<OpOperand, 4> operands = {},
    VxmClass vxm = VxmClass::None, bool windowed = false, int group = 1)
{
    return {op, name, slice, static_cast<std::uint8_t>(d_func), vxm,
            windowed, static_cast<std::uint8_t>(group), operands};
}

} // namespace oprow

/**
 * The opcode table, indexed by Opcode. Timing rows are modeling
 * parameters in core-clock cycles; they are architecturally exposed
 * constants, and the compiler and the chip read the same row, so
 * scheduled intercepts are exact by construction (the paper's
 * determinism contract).
 */
inline constexpr std::array<OpRow, kNumOpcodes> kOpTable = [] {
    using namespace oprow;
    using F = OpField;
    using O = Opcode;
    using S = SliceKind;
    constexpr auto N = VxmClass::None;
    constexpr auto U = VxmClass::Unary;
    constexpr auto B = VxmClass::Binary;
    return std::array<OpRow, kNumOpcodes>{{
        row(O::Nop, "nop", S::ICU, 1, {number(F::Imm0, 0, kU32Max)}),
        row(O::Ifetch, "ifetch", S::ICU, 1, {stream(F::SrcA, Span::Pair)}),
        row(O::Sync, "sync", S::ICU, 1),
        row(O::Notify, "notify", S::ICU, 1),
        row(O::Config, "config", S::ICU, 1, {number(F::Imm0, 0, kU32Max)}),
        row(O::Repeat, "repeat", S::ICU, 1,
            {number(F::Imm0, 0, kU32Max), number(F::Imm1, 0, kU32Max)}),

        // Read: SRAM access + ECC generate + SR drive. Write: sample +
        // ECC check + bank write.
        row(O::Read, "read", S::MEM, 2, {kAddr, kD}),
        row(O::Write, "write", S::MEM, 1, {kAddr, kA}),
        row(O::Gather, "gather", S::MEM, 2, {kD, kB}),
        row(O::Scatter, "scatter", S::MEM, 1, {kA, kB}),

        row(O::Add, "add", S::VXM, 1, kBinary, B),
        row(O::Sub, "sub", S::VXM, 1, kBinary, B),
        row(O::Mul, "mul", S::VXM, 2, kBinary, B),
        row(O::AddSat, "add.sat", S::VXM, 1, kBinary, B),
        row(O::SubSat, "sub.sat", S::VXM, 1, kBinary, B),
        row(O::MulSat, "mul.sat", S::VXM, 2, kBinary, B),
        row(O::Max, "max", S::VXM, 1, kBinary, B),
        row(O::Min, "min", S::VXM, 1, kBinary, B),
        row(O::Neg, "neg", S::VXM, 1, kUnary, U),
        row(O::Abs, "abs", S::VXM, 1, kUnary, U),
        row(O::Mask, "mask", S::VXM, 1, kBinary, B),
        row(O::Relu, "relu", S::VXM, 1, kUnary, U),
        // Iterative / table-based units.
        row(O::Tanh, "tanh", S::VXM, 4, kUnary, U),
        row(O::Exp, "exp", S::VXM, 4, kUnary, U),
        row(O::Rsqrt, "rsqrt", S::VXM, 4, kUnary, U),
        row(O::Convert, "convert", S::VXM, 2,
            {stream(F::SrcA, Span::SrcType), stream(F::Dst, Span::DstType),
             {F::Types}},
            U),
        // A lane holds at most 32 bits.
        row(O::Shift, "shift", S::VXM, 1, {kA, kD, number(F::Imm0, 0, 31)},
            U),

        row(O::Lw, "lw", S::MXM, 1,
            {stream(F::SrcA, Span::Group),
             number(F::GroupSize, 1, kStreamsPerDir, 'n')}),
        row(O::Iw, "iw", S::MXM, 1, {kPlane}),
        row(O::Abc, "abc", S::MXM, 1, {kPlane, kA, kWindow, {F::AccFlag}},
            N, /*windowed=*/true),
        // One full traversal of the 20-supercell accumulation chain
        // before the first int32 partial sum exits the array edge.
        row(O::Acc, "acc", S::MXM, kSuperlanes + 1,
            {kPlane, stream(F::Dst, Span::Quad), kWindow}, N,
            /*windowed=*/true),

        row(O::ShiftUp, "shift.up", S::SXM, 1,
            {kA, kD, number(F::Imm0, 0, kLanes - 1)}),
        row(O::ShiftDown, "shift.down", S::SXM, 1,
            {kA, kD, number(F::Imm0, 0, kLanes - 1)}),
        // One mask bit per superlane.
        row(O::SelectNS, "select.ns", S::SXM, 1,
            {kA, kB, kD, number(F::Imm0, 0, (1u << kSuperlanes) - 1, 'm')}),
        row(O::Permute, "permute", S::SXM, 2, kUnary),
        row(O::Distribute, "distribute", S::SXM, 1, kUnary),
        row(O::Rotate, "rotate", S::SXM, 2,
            {kA, stream(F::Dst, Span::Group), number(F::Rotation, 3, 4, 'n')}),
        row(O::Transpose, "transpose", S::SXM, 2,
            {stream(F::SrcA, Span::Sixteen), stream(F::Dst, Span::Sixteen)},
            N, false, /*group=*/16),

        row(O::Deskew, "deskew", S::C2C, 64),
        // 320 B x 8 b / 120 Gb/s at 1 GHz ~= 22 cycles serialization.
        row(O::Send, "send", S::C2C, 22, {kLink, kA}),
        // The vector already landed in the link's elastic buffer;
        // d_func covers the buffer-to-stream-register drive.
        row(O::Receive, "receive", S::C2C, 2, {kLink, kD}),
    }};
}();

static_assert([] {
    for (int i = 0; i < kNumOpcodes; ++i) {
        if (static_cast<int>(kOpTable[static_cast<std::size_t>(i)].op) != i)
            return false;
    }
    return true;
}(), "kOpTable rows must follow the Opcode order");

/** @return the row of @p op. */
inline const OpRow &
opRow(Opcode op)
{
    return kOpTable[static_cast<std::size_t>(op)];
}

/** @return the assembler mnemonic, e.g. "add.sat". */
inline const char *
opcodeName(Opcode op)
{
    return opRow(op).name;
}

/** Parses a mnemonic, case-insensitively; returns false if unknown. */
bool opcodeFromName(const std::string &name, Opcode &out);

/** @return the slice kind that executes @p op (ICU ops -> ICU). */
inline SliceKind
opcodeSlice(Opcode op)
{
    return opRow(op).slice;
}

/** @return true for the point-wise two-operand VXM ops. */
inline bool
isVxmBinary(Opcode op)
{
    return opRow(op).vxm == VxmClass::Binary;
}

/** @return true for the point-wise one-operand VXM ops. */
inline bool
isVxmUnary(Opcode op)
{
    return opRow(op).vxm == VxmClass::Unary;
}

/**
 * Temporal parameters of an opcode, exposed through the ISA so the
 * compiler back-end can track the position and time of every stream
 * (the "software-defined hardware" contract of section III).
 */
struct OpTiming
{
    /** Eq. 4's d_func (see OpRow::dFunc). */
    Cycle dFunc = 1;
};

/** @return the temporal parameters for @p op. */
inline OpTiming
opTiming(Opcode op)
{
    return {opRow(op).dFunc};
}

} // namespace tsp

#endif // TSP_ISA_OPCODE_HH
