/**
 * @file
 * The Instruction record dispatched to functional slices, and Eq. 4's
 * instruction time, which the compiler uses to schedule intersections
 * of instructions and streams (paper section III).
 */

#ifndef TSP_ISA_INSTRUCTION_HH
#define TSP_ISA_INSTRUCTION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/layout.hh"
#include "arch/types.hh"
#include "isa/opcode.hh"

namespace tsp {

/** A stream operand: logical id 0..31 plus direction of flow. */
struct StreamRef
{
    StreamId id = 0;
    Direction dir = Direction::East;

    bool operator==(const StreamRef &other) const = default;

    /** @return e.g. "s12.e". */
    std::string toString() const;
};

/**
 * One decoded instruction.
 *
 * A flat record rather than a class hierarchy: slices interpret only
 * the fields their opcodes define (documented per field), which keeps
 * the dispatch loop branch-cheap and the encoder trivial. The optional
 * lane map used by Permute/Distribute is shared, not copied, since the
 * compiler reuses a handful of maps across thousands of instructions.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;

    /**
     * General immediate:
     *  Nop/Repeat: repeat count n. Config: power mode (active
     *  superlanes). ShiftUp/Down: lane distance. Rotate: n (3 or 4).
     *  Lw/Iw/Abc/Acc: plane-local flags (see mxm module). Send/Receive:
     *  link id. Shift: right-shift amount. Convert: target DType.
     *  Abc: number of activation vectors to stream (window length).
     */
    std::uint32_t imm0 = 0;

    /**
     * Secondary immediate: Repeat inter-iteration gap d; SelectNS
     * select mask; Acc: result count; Convert: source DType.
     */
    std::uint32_t imm1 = 0;

    /** MEM word address (Read/Write) or base address (Gather/Scatter). */
    MemAddr addr = 0;

    /** First source stream (most ops). For Write: the stored stream. */
    StreamRef srcA{};

    /** Second source stream (binary VXM ops, Gather/Scatter map). */
    StreamRef srcB{};

    /** Destination stream (producers). For Read: the loaded stream. */
    StreamRef dst{};

    /**
     * Number of consecutive streams starting at srcA/dst this
     * instruction touches: 1 for scalar-stream ops, 16 for Transpose,
     * n for Rotate outputs, up to 32 for Lw/Iw bursts.
     */
    std::uint8_t groupSize = 1;

    /** Element type the op interprets streams as. */
    DType dtype = DType::Int8;

    /** Op-specific flag bits (e.g. kFlagAccumulate for Abc). */
    std::uint8_t flags = 0;

    /** Abc: add into the existing accumulators instead of overwriting. */
    static constexpr std::uint8_t kFlagAccumulate = 0x01;

    /**
     * Dispatch in the same cycle as the preceding instruction of the
     * queue (MEM dual-issue: read one bank + write the other — paper
     * IV.A). Set by the scheduler; a listing marks the line "|| ".
     */
    static constexpr std::uint8_t kFlagCoIssue = 0x02;

    /** Lane map for Permute (320 entries) / Distribute (16 entries). */
    std::shared_ptr<const std::vector<std::uint16_t>> map;

    /** @return assembler text for this instruction: "|| " when
     *  co-issued, the mnemonic, then each of its row's operands. */
    std::string toString() const;

    /** @return the text of operand @p o, as the assembler reads it. */
    std::string operandText(const OpOperand &o) const;

    /** @return the stream field @p f names (SrcA, SrcB or Dst). */
    StreamRef &
    stream(OpField f)
    {
        return f == OpField::SrcA ? srcA : f == OpField::SrcB ? srcB : dst;
    }
    const StreamRef &
    stream(OpField f) const
    {
        return f == OpField::SrcA ? srcA : f == OpField::SrcB ? srcB : dst;
    }

    bool operator==(const Instruction &other) const;
};

/** The streams a stream operand touches from its base. */
struct StreamSpan
{
    int count = 1;
    bool aligned = false; ///< The base must be a multiple of count.
};

/** @return the span of stream operand @p o in @p inst. */
StreamSpan streamSpan(const Instruction &inst, const OpOperand &o);

/**
 * @return "" when every field @p inst's row names lies where the
 * assembler reads it from — each number within its operand's range,
 * each dtype named, each stream group within its direction's streams
 * (aligned where its span says), and no flag a line cannot say — else
 * why not. The text parser and the binary decoder share this one
 * validator.
 */
std::string operandError(const Instruction &inst);

/**
 * @return the cycles @p inst holds its unit from its dispatch: its
 * imm1 window for a windowed row (ABC, ACC), one cycle otherwise. A
 * schedule is finished when every event's hold has passed.
 */
inline Cycle
holdCycles(const Instruction &inst)
{
    return opRow(inst.op).windowed ? inst.imm1 : 1;
}

/**
 * Compute Eq. 4: total time for an instruction whose result, produced
 * at position @p producer_pos, is consumed at position @p consumer_pos.
 *
 * T = N + d_func + delta(j, i), with N the tile count of the slice
 * (pipeline depth across superlanes).
 */
Cycle instructionTime(Opcode op, SlicePos producer_pos,
                      SlicePos consumer_pos, int active_superlanes);

} // namespace tsp

#endif // TSP_ISA_INSTRUCTION_HH
