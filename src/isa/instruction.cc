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
    // A co-issued instruction dispatches with the one before it, as
    // "||" marks a parallel instruction in VLIW assembly.
    std::string out = flags & kFlagCoIssue ? "|| " : "";
    out += opcodeName(op);
    const char *sep = " ";
    for (const OpOperand &o : opRow(op).operands) {
        if (o.field == OpField::None)
            break;
        // The optional operands print only when they say something.
        if ((o.field == OpField::AccFlag && !(flags & kFlagAccumulate)) ||
            (o.field == OpField::DType && dtype == DType::Int8)) {
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
      case OpField::DType:
        return dtypeName(dtype);
      case OpField::AccFlag:
        return "acc";
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
      case Span::Typed:
        return {dtypeBytes(inst.dtype), true};
      case Span::TypedRun:
        return {dtypeBytes(inst.dtype), false};
      default:
        return {1, false};
    }
}

std::string
operandError(const Instruction &inst)
{
    const OpRow &row = opRow(inst.op);
    const auto number = [&](OpField f) -> std::uint32_t {
        switch (f) {
          case OpField::Addr:
            return inst.addr;
          case OpField::Imm1:
            return inst.imm1;
          case OpField::GroupSize:
            return inst.groupSize;
          default:
            return inst.imm0;
        }
    };
    constexpr auto kLastType = static_cast<std::uint32_t>(DType::Fp32);
    // The flags a line can say: co-issue on any row, acc on a row with
    // the flag.
    std::uint8_t sayable = Instruction::kFlagCoIssue;
    for (const OpOperand &o : row.operands) {
        if (o.field == OpField::AccFlag)
            sayable |= Instruction::kFlagAccumulate;
    }
    if ((inst.flags & ~sayable) != 0)
        return strformat("'%s': flags 0x%x", row.name, inst.flags);
    // Numbers and dtypes first: the stream spans depend on them.
    for (std::size_t i = 0; i < row.operands.size(); ++i) {
        const OpOperand &o = row.operands[i];
        bool ok = true;
        switch (o.field) {
          case OpField::None:
          case OpField::SrcA:
          case OpField::SrcB:
          case OpField::Dst:
          case OpField::AccFlag:
            break;
          case OpField::Types:
            ok = inst.imm0 <= kLastType && inst.imm1 <= kLastType;
            break;
          case OpField::DType:
            ok = static_cast<std::uint32_t>(inst.dtype) <= kLastType;
            break;
          case OpField::Rotation:
            ok = inst.imm0 >= o.lo && inst.imm0 <= o.hi &&
                 inst.groupSize == inst.imm0 * inst.imm0;
            break;
          default:
            ok = number(o.field) >= o.lo && number(o.field) <= o.hi;
            break;
        }
        if (!ok) {
            return strformat("'%s' operand %zu: out of range '%s'",
                             row.name, i + 1,
                             inst.operandText(o).c_str());
        }
    }
    // Every stream group must fit its direction's streams.
    for (std::size_t i = 0; i < row.operands.size(); ++i) {
        const OpOperand &o = row.operands[i];
        if (!isStreamField(o.field))
            continue;
        const StreamRef s = inst.stream(o.field);
        const StreamSpan span = streamSpan(inst, o);
        if (s.id + span.count > kStreamsPerDir ||
            (span.aligned && s.id % span.count != 0)) {
            return strformat("'%s' operand %zu: %d streams from s%d %s %d "
                             "streams",
                             row.name, i + 1, span.count, s.id,
                             span.aligned ? "must start at a multiple of "
                                            "their count and fit"
                                          : "do not fit",
                             kStreamsPerDir);
        }
    }
    return "";
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
