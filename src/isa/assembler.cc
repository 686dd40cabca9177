#include "isa/assembler.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tsp {

namespace {

const std::vector<Instruction> kEmptyQueue;

bool
parseDType(std::string_view name, DType &out)
{
    for (int t = 0; t <= static_cast<int>(DType::Fp32); ++t) {
        if (iequals(name, dtypeName(static_cast<DType>(t)))) {
            out = static_cast<DType>(t);
            return true;
        }
    }
    return false;
}

/** Parses a number operand: its tag, then parseInt's syntax within
 *  the operand's range. */
bool
parseNumber(const OpOperand &o, std::string_view text, std::uint32_t &out)
{
    if (o.tag) {
        if (text.empty() || text[0] != o.tag)
            return false;
        text.remove_prefix(1);
    }
    long v = 0;
    if (!parseInt(text, v) || v < static_cast<long>(o.lo) ||
        v > static_cast<long>(o.hi)) {
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Parses @p text as operand @p o into @p inst. */
bool
parseOperand(const OpOperand &o, std::string_view text, Instruction &inst)
{
    if (isStreamField(o.field))
        return parseStreamRef(std::string(text), inst.stream(o.field));
    if (o.field == OpField::DType)
        return parseDType(text, inst.dtype);
    if (o.field == OpField::AccFlag) {
        if (!iequals(text, "acc"))
            return false;
        inst.flags |= Instruction::kFlagAccumulate;
        return true;
    }
    if (o.field == OpField::Types) {
        const auto arrow = text.find("->");
        DType from, to;
        if (arrow == std::string_view::npos ||
            !parseDType(trim(text.substr(0, arrow)), from) ||
            !parseDType(trim(text.substr(arrow + 2)), to)) {
            return false;
        }
        inst.imm1 = static_cast<std::uint32_t>(from);
        inst.imm0 = static_cast<std::uint32_t>(to);
        return true;
    }
    std::uint32_t v = 0;
    if (!parseNumber(o, text, v))
        return false;
    switch (o.field) {
      case OpField::Addr:
        inst.addr = v;
        break;
      case OpField::Imm1:
        inst.imm1 = v;
        break;
      case OpField::GroupSize:
        inst.groupSize = static_cast<std::uint8_t>(v);
        break;
      case OpField::Rotation:
        inst.imm0 = v;
        inst.groupSize = static_cast<std::uint8_t>(v * v);
        break;
      default:
        inst.imm0 = v;
        break;
    }
    return true;
}

} // namespace

const std::vector<Instruction> &
AsmProgram::queue(IcuId icu) const
{
    auto it = queues.find(icu.id);
    return it == queues.end() ? kEmptyQueue : it->second;
}

bool
parseIcuName(const std::string &name, IcuId &out)
{
    const auto t = trim(name);
    for (int i = 0; i < kNumIcus; ++i) {
        if (iequals(t, IcuId{i}.name())) {
            out = IcuId{i};
            return true;
        }
    }
    return false;
}

bool
parseStreamRef(const std::string &text, StreamRef &out)
{
    // Accept exactly what StreamRef::toString() prints: "s<id>.<e|w>",
    // the id in decimal without leading zeros.
    const std::string t = toLower(trim(text));
    const auto dot = t.find('.');
    long id = -1;
    if (t.size() < 4 || t[0] != 's' || dot == std::string::npos ||
        !parseInt(t.substr(1, dot - 1), id) || id < 0 ||
        id >= kStreamsPerDir) {
        return false;
    }
    const StreamRef s{static_cast<StreamId>(id),
                      t.back() == 'w' ? Direction::West : Direction::East};
    if (s.toString() != t)
        return false;
    out = s;
    return true;
}

bool
parseInstruction(const std::string &line, Instruction &out,
                 std::string &error)
{
    out = Instruction{};
    error.clear();

    auto t = trim(line);
    // "|| " marks an instruction co-issued with the one before it.
    if (t.starts_with("||")) {
        out.flags |= Instruction::kFlagCoIssue;
        t = trim(t.substr(2));
    }
    const auto sp = t.find_first_of(" \t");
    const std::string mnem(t.substr(0, sp));
    Opcode op;
    if (!opcodeFromName(mnem, op)) {
        error = "unknown mnemonic '" + mnem + "'";
        return false;
    }
    const OpRow &row = opRow(op);
    out.op = op;
    out.groupSize = row.group;

    const auto rest =
        sp == std::string_view::npos ? std::string_view{} : trim(t.substr(sp));
    const auto args =
        rest.empty() ? std::vector<std::string>{} : split(rest, ',');
    std::size_t need = 0;
    for (const OpOperand &o : row.operands) {
        if (o.field != OpField::None && !isOptionalField(o.field))
            ++need;
    }
    // The required operands, in order; then each optional one (they
    // trail) when the next argument reads as it.
    std::size_t next = 0;
    for (const OpOperand &o : row.operands) {
        if (o.field == OpField::None || next == args.size())
            break;
        if (isOptionalField(o.field)) {
            if (parseOperand(o, args[next], out))
                ++next;
            continue;
        }
        if (!parseOperand(o, args[next], out)) {
            error = strformat("'%s' operand %zu: bad or out of range "
                              "'%s'",
                              row.name, next + 1, args[next].c_str());
            return false;
        }
        ++next;
    }
    if (next < need || next != args.size()) {
        error = strformat("'%s' expects %zu operands, got %zu", row.name,
                          need, args.size());
        return false;
    }
    error = operandError(out);
    return error.empty();
}

AsmResult
assemble(const std::string &text)
{
    AsmResult result;
    std::istringstream is(text);
    std::string raw;
    int lineno = 0;
    IcuId current{-1};
    const auto fail = [&](std::string error) {
        result.ok = false;
        result.error = std::move(error);
        result.errorLine = lineno;
        return result;
    };

    while (std::getline(is, raw)) {
        ++lineno;
        // Strip comments.
        const auto hash = raw.find_first_of("#;");
        if (hash != std::string::npos)
            raw.resize(hash);
        const std::string line{trim(raw)};
        if (line.empty())
            continue;

        if (line.front() == '@') {
            std::string name = line.substr(1);
            if (!name.empty() && name.back() == ':')
                name.pop_back();
            if (!parseIcuName(name, current))
                return fail("bad ICU label '" + name + "'");
            result.program.queues[current.id]; // Ensure section exists.
            continue;
        }
        if (current.id < 0)
            return fail("instruction before any @ICU label");

        Instruction inst;
        std::string err;
        if (!parseInstruction(line, inst, err))
            return fail(err);
        const SliceKind expect = opcodeSlice(inst.op);
        if (expect != SliceKind::ICU && expect != current.kind()) {
            return fail(strformat("'%s' is a %s instruction but section is %s",
                                  opcodeName(inst.op), sliceKindName(expect),
                                  sliceKindName(current.kind())));
        }
        result.program.queues[current.id].push_back(inst);
    }
    return result;
}

std::string
disassemble(const AsmProgram &program)
{
    std::ostringstream os;
    for (const auto &[icu_id, insts] : program.queues) {
        os << '@' << IcuId{icu_id}.name() << ":\n";
        for (const auto &inst : insts)
            os << "    " << inst.toString() << '\n';
    }
    return os.str();
}

} // namespace tsp
