#include "isa/instruction.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tsp {

std::string
StreamRef::toString() const
{
    return strformat("s%d.%s", static_cast<int>(id),
                     dir == Direction::East ? "e" : "w");
}

bool
Instruction::operator==(const Instruction &other) const
{
    const bool fields_equal =
        op == other.op && imm0 == other.imm0 && imm1 == other.imm1 &&
        addr == other.addr && srcA == other.srcA && srcB == other.srcB &&
        dst == other.dst && groupSize == other.groupSize &&
        dtype == other.dtype && flags == other.flags;
    if (!fields_equal)
        return false;
    if (static_cast<bool>(map) != static_cast<bool>(other.map))
        return false;
    return !map || *map == *other.map;
}

std::string
Instruction::toString() const
{
    std::string out = opcodeName(op);
    const char *sep = " ";
    for (const OpOperand &o : opRow(op).operands) {
        if (o.field == OpField::None)
            break;
        if (o.field == OpField::AccFlag) {
            if (flags & kFlagAccumulate)
                out += ", acc";
            continue;
        }
        out += sep;
        sep = ", ";
        out += operandText(o);
    }
    return out;
}

std::string
Instruction::operandText(const OpOperand &o) const
{
    switch (o.field) {
      case OpField::Addr:
        return strformat("0x%x", addr);
      case OpField::SrcA:
      case OpField::SrcB:
      case OpField::Dst:
        return stream(o.field).toString();
      case OpField::Types:
        return strformat("%s -> %s", dtypeName(static_cast<DType>(imm1)),
                         dtypeName(static_cast<DType>(imm0)));
      default:
        break;
    }
    // Imm0 and Rotation print imm0.
    const std::uint32_t v = o.field == OpField::Imm1        ? imm1
                            : o.field == OpField::GroupSize ? groupSize
                                                            : imm0;
    return o.tag ? strformat("%c%u", o.tag, v) : strformat("%u", v);
}

StreamSpan
streamSpan(const Instruction &inst, const OpOperand &o)
{
    switch (o.span) {
      case Span::Pair:
        return {2, false};
      case Span::Quad:
        return {4, true};
      case Span::Sixteen:
        return {16, false};
      case Span::Group:
        return {inst.groupSize, false};
      case Span::SrcType:
        return {dtypeBytes(static_cast<DType>(inst.imm1)), true};
      case Span::DstType:
        return {dtypeBytes(static_cast<DType>(inst.imm0)), true};
      default:
        return {1, false};
    }
}

Cycle
instructionTime(Opcode op, SlicePos producer_pos, SlicePos consumer_pos,
                int active_superlanes)
{
    TSP_ASSERT(active_superlanes >= 1 &&
               active_superlanes <= kSuperlanes);
    const Cycle n = static_cast<Cycle>(active_superlanes);
    return n + opTiming(op).dFunc +
           Layout::transitDelay(producer_pos, consumer_pos);
}

} // namespace tsp
