/**
 * @file
 * Two-way assembler for the TSP ISA.
 *
 * The text format is the one produced by Instruction::toString(),
 * organized into per-ICU sections introduced by "@<icu-name>:" labels
 * (e.g. "@MEM_E12:", "@VXM3:"). Comments start with '#' or ';'.
 * This is the format used by the schedule dumps, the tests, and the
 * debugging workflow the paper describes bringing up alongside the
 * compiler.
 */

#ifndef TSP_ISA_ASSEMBLER_HH
#define TSP_ISA_ASSEMBLER_HH

#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace tsp {

/** A complete program: an ordered instruction list per ICU. */
struct AsmProgram
{
    std::map<int, std::vector<Instruction>> queues;

    /** @return instructions for @p icu (empty if none). */
    const std::vector<Instruction> &queue(IcuId icu) const;
};

/** Result of parsing: the program, or an error message with a line. */
struct AsmResult
{
    AsmProgram program;
    bool ok = true;
    std::string error;
    int errorLine = 0;
};

/** Parses an ICU name: exactly what IcuId::name() prints ("MEM_E12",
 *  "VXM3", "SXM_W_PRM", "C2C5"), in either letter case. */
bool parseIcuName(const std::string &name, IcuId &out);

/** Parses a stream reference: exactly what StreamRef::toString()
 *  prints ("s12.e"), in either letter case. */
bool parseStreamRef(const std::string &text, StreamRef &out);

/**
 * Parses one instruction line (without a label): "|| " when it is
 * co-issued with the line before, the mnemonic, then the operands of
 * its opcode row in order (a trailing dtype or acc flag may be left
 * out: int8, no accumulate). A number keeps parseInt's
 * syntax (decimal, 0x hex, leading-zero octal) and must lie in its
 * operand's range; a stream group must fit its direction's 32
 * streams.
 */
bool parseInstruction(const std::string &line, Instruction &out,
                      std::string &error);

/** Assembles a full listing. */
AsmResult assemble(const std::string &text);

/** Disassembles a program back to canonical text. */
std::string disassemble(const AsmProgram &program);

} // namespace tsp

#endif // TSP_ISA_ASSEMBLER_HH
