/**
 * @file
 * Binary instruction encoding.
 *
 * Program text is stored in MEM slices and delivered to the ICUs over
 * streams in 640-byte bundles (a pair of 320-byte vectors) by Ifetch
 * (paper III.A.3). This module defines the byte-level wire format used
 * for that path: a fixed 20-byte header plus an optional lane-map
 * payload for Permute/Distribute.
 */

#ifndef TSP_ISA_ENCODING_HH
#define TSP_ISA_ENCODING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/instruction.hh"

namespace tsp {

/** Size in bytes of the fixed portion of an encoded instruction. */
inline constexpr std::size_t kInstHeaderBytes = 20;

/** Ifetch bundle size: a pair of 320-byte vectors. */
inline constexpr std::size_t kIfetchBundleBytes = 2 * kLanes;

/** Appends the encoding of @p inst to @p out. */
void encodeInstruction(const Instruction &inst,
                       std::vector<std::uint8_t> &out);

/** @return the encoded size of @p inst in bytes. */
std::size_t encodedSize(const Instruction &inst);

/**
 * Decodes one instruction from @p bytes starting at @p offset.
 *
 * @return the decoded instruction and advances @p offset past it, or
 * std::nullopt on malformed input (offset unchanged): a truncated
 * bundle, an unknown opcode or dtype, a bit the encoder never sets,
 * or a field outside its row's range (operandError(), the check the
 * assembler applies to text).
 */
std::optional<Instruction> decodeInstruction(
    const std::vector<std::uint8_t> &bytes, std::size_t &offset);

/** Encodes a whole queue back-to-back. */
std::vector<std::uint8_t> encodeQueue(
    const std::vector<Instruction> &insts);

/** Decodes a byte blob into a queue; returns false on malformed input. */
bool decodeQueue(const std::vector<std::uint8_t> &bytes,
                 std::vector<Instruction> &out);

} // namespace tsp

#endif // TSP_ISA_ENCODING_HH
