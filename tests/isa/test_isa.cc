/**
 * @file
 * ISA-level tests: the opcode table, assembler round trips for every
 * instruction form in Table I, the assembler's operand ranges (a
 * seeded generator over every row and a seeded line mutator), pinned
 * listings of compiled programs, binary encode/decode round trips
 * (including a randomized fuzz sweep), and timing-table sanity.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "c2c/collective.hh"
#include "common/rng.hh"
#include "common/snapshot_io.hh"
#include "common/strutil.hh"
#include "graph/batch_program.hh"
#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "model/resnet.hh"

namespace tsp {
namespace {

TEST(Opcode, NamesRoundTrip)
{
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        Opcode back;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), back))
            << opcodeName(op);
        EXPECT_EQ(back, op);
    }
    Opcode out;
    EXPECT_FALSE(opcodeFromName("bogus", out));
}

TEST(Opcode, SliceAssignmentsMatchTableOne)
{
    EXPECT_EQ(opcodeSlice(Opcode::Nop), SliceKind::ICU);
    EXPECT_EQ(opcodeSlice(Opcode::Read), SliceKind::MEM);
    EXPECT_EQ(opcodeSlice(Opcode::Gather), SliceKind::MEM);
    EXPECT_EQ(opcodeSlice(Opcode::AddSat), SliceKind::VXM);
    EXPECT_EQ(opcodeSlice(Opcode::Rsqrt), SliceKind::VXM);
    EXPECT_EQ(opcodeSlice(Opcode::Iw), SliceKind::MXM);
    EXPECT_EQ(opcodeSlice(Opcode::Transpose), SliceKind::SXM);
    EXPECT_EQ(opcodeSlice(Opcode::Deskew), SliceKind::C2C);
}

TEST(Assembler, IcuNames)
{
    IcuId id;
    ASSERT_TRUE(parseIcuName("MEM_E12", id));
    EXPECT_EQ(id, IcuId::mem(Hemisphere::East, 12));
    ASSERT_TRUE(parseIcuName("vxm15", id));
    EXPECT_EQ(id, IcuId::vxmAlu(15));
    ASSERT_TRUE(parseIcuName("MXM3_A", id));
    EXPECT_EQ(id, IcuId::mxm(3, false));
    ASSERT_TRUE(parseIcuName("SXM_W_TR1", id));
    EXPECT_EQ(id,
              IcuId::sxm(Hemisphere::West,
                         static_cast<int>(SxmUnit::Transpose1)));
    EXPECT_FALSE(parseIcuName("MEM_X1", id));
    EXPECT_FALSE(parseIcuName("VXM16", id));
    EXPECT_FALSE(parseIcuName("C2C16", id));
}

TEST(Assembler, StreamRefs)
{
    StreamRef s;
    ASSERT_TRUE(parseStreamRef("s31.w", s));
    EXPECT_EQ(s.id, 31);
    EXPECT_EQ(s.dir, Direction::West);
    EXPECT_FALSE(parseStreamRef("s32.e", s)); // Out of range.
    EXPECT_FALSE(parseStreamRef("s1.x", s));
    EXPECT_FALSE(parseStreamRef("x1.e", s));
}

/** Round-trips one instruction line through parse + print. */
void
roundTrip(const std::string &line)
{
    Instruction inst;
    std::string err;
    ASSERT_TRUE(parseInstruction(line, inst, err))
        << line << ": " << err;
    EXPECT_EQ(inst.toString(), line);
}

TEST(Assembler, EveryFormRoundTrips)
{
    roundTrip("nop 17");
    roundTrip("repeat 8, 2");
    roundTrip("sync");
    roundTrip("notify");
    roundTrip("config 12");
    roundTrip("ifetch s3.e");
    roundTrip("read 0x1a2, s7.e");
    roundTrip("write 0x1fff, s30.w");
    roundTrip("gather s5.e, s6.e");
    roundTrip("scatter s5.w, s6.w");
    roundTrip("add s1.e, s2.e, s3.e");
    roundTrip("mul.sat s4.w, s5.w, s6.w");
    roundTrip("max s1.e, s2.e, s3.e");
    roundTrip("mask s1.e, s2.e, s3.e");
    roundTrip("relu s9.e, s10.e");
    roundTrip("tanh s9.e, s10.e");
    roundTrip("rsqrt s9.w, s10.w");
    roundTrip("shift s8.e, s12.e, 5");
    roundTrip("convert s0.e, s4.e, int32 -> fp32");
    roundTrip("lw s0.e, n16");
    roundTrip("iw p2");
    roundTrip("abc p1, s16.e, n64");
    roundTrip("abc p1, s16.e, n64, acc");
    roundTrip("acc p3, s20.w, n32");
    roundTrip("shift.up s1.e, s2.e, 4");
    roundTrip("shift.down s1.w, s2.w, 16");
    roundTrip("select.ns s1.e, s2.e, s3.e, m5");
    roundTrip("permute s1.e, s2.e");
    roundTrip("distribute s1.e, s2.e");
    roundTrip("rotate s0.e, s9.e, n3");
    roundTrip("transpose s0.e, s16.e");
    roundTrip("deskew");
    roundTrip("send l3, s1.e");
    roundTrip("receive l3, s1.w");
}

TEST(Assembler, RejectsMalformed)
{
    Instruction inst;
    std::string err;
    EXPECT_FALSE(parseInstruction("read 0x10", inst, err));
    EXPECT_FALSE(parseInstruction("add s1.e, s2.e", inst, err));
    EXPECT_FALSE(parseInstruction("rotate s0.e, s1.e, n5", inst, err));
    EXPECT_FALSE(parseInstruction("iw p9", inst, err));
    EXPECT_FALSE(parseInstruction("frobnicate s1.e", inst, err));
    EXPECT_FALSE(
        parseInstruction("read 0x9999, s1.e", inst, err)); // >13 bit.
}

TEST(Assembler, RefusesWhatNoUnitCanRun)
{
    // Stream groups past a direction's 32 streams, misaligned ACC
    // quads, windows past the accumulator depth, immediates past their
    // field, and labels that are not an ICU's printed name.
    for (const char *line :
         {"ifetch s31.w", "lw s20.w, n16", "lw s0.e, n33",
          "abc p0, s16.e, n65", "acc p0, s30.w, n1", "acc p0, s2.e, n1",
          "rotate s0.e, s30.e, n4", "transpose s20.e, s0.e",
          "nop 4294967297"}) {
        Instruction inst;
        std::string err;
        EXPECT_FALSE(parseInstruction(line, inst, err)) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
    IcuId id;
    EXPECT_FALSE(parseIcuName("MEM_E012", id));
    const AsmResult r = assemble("@MEM_W0:\n    ifetch s31.w\n");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorLine, 2);
}

/** @return the text of a number @p v for operand @p o. */
std::string
numberText(const OpOperand &o, std::uint64_t v)
{
    return o.tag ? strformat("%c%llu", o.tag,
                             static_cast<unsigned long long>(v))
                 : std::to_string(v);
}

/** @return a random in-range instruction of @p row. */
Instruction
randomInstruction(const OpRow &row, Rng &rng)
{
    Instruction inst;
    inst.op = row.op;
    inst.groupSize = row.group;
    // Numbers first: the stream spans depend on them.
    for (const OpOperand &o : row.operands) {
        if (o.field == OpField::Types) {
            inst.imm1 = static_cast<std::uint32_t>(rng.nextBelow(5));
            inst.imm0 = static_cast<std::uint32_t>(rng.nextBelow(5));
        } else if (o.field == OpField::AccFlag) {
            if (rng.nextBelow(2))
                inst.flags |= Instruction::kFlagAccumulate;
        } else if (o.field != OpField::None && !isStreamField(o.field)) {
            // Favour the ends of the range.
            const std::uint64_t pick = rng.nextBelow(4);
            const std::uint32_t v =
                pick == 0   ? o.lo
                : pick == 1 ? o.hi
                            : static_cast<std::uint32_t>(
                                  o.lo + rng.nextBelow(std::uint64_t{o.hi} -
                                                       o.lo + 1));
            if (o.field == OpField::Addr) {
                inst.addr = v;
            } else if (o.field == OpField::Imm1) {
                inst.imm1 = v;
            } else if (o.field == OpField::GroupSize) {
                inst.groupSize = static_cast<std::uint8_t>(v);
            } else {
                inst.imm0 = v;
                if (o.field == OpField::Rotation)
                    inst.groupSize = static_cast<std::uint8_t>(v * v);
            }
        }
    }
    for (const OpOperand &o : row.operands) {
        if (!isStreamField(o.field))
            continue;
        const StreamSpan span = streamSpan(inst, o);
        const int slots = (kStreamsPerDir - span.count) /
                              (span.aligned ? span.count : 1) +
                          1;
        StreamRef &s = inst.stream(o.field);
        s.id = static_cast<StreamId>(
            rng.nextBelow(static_cast<std::uint64_t>(slots)) *
            (span.aligned ? span.count : 1));
        s.dir = rng.nextBelow(2) ? Direction::West : Direction::East;
    }
    return inst;
}

/** @return @p inst's operand texts, in row order, flag excluded. */
std::vector<std::string>
operandTexts(const Instruction &inst)
{
    std::vector<std::string> out;
    for (const OpOperand &o : opRow(inst.op).operands) {
        if (o.field != OpField::None && o.field != OpField::AccFlag)
            out.push_back(inst.operandText(o));
    }
    return out;
}

std::string
joinLine(const Instruction &inst, const std::vector<std::string> &args)
{
    std::string line = opcodeName(inst.op);
    for (std::size_t i = 0; i < args.size(); ++i)
        line += strformat("%s%s", i == 0 ? " " : ", ", args[i].c_str());
    return line;
}

TEST(Assembler, GeneratedOperandsRoundTripAndRangesHold)
{
    Rng rng(11);
    for (const OpRow &row : kOpTable) {
        for (int trial = 0; trial < 64; ++trial) {
            const Instruction inst = randomInstruction(row, rng);
            const std::string text = inst.toString();
            Instruction back;
            std::string err;
            ASSERT_TRUE(parseInstruction(text, back, err))
                << text << ": " << err;
            EXPECT_EQ(back, inst) << text;
            EXPECT_EQ(back.toString(), text);

            // Each operand one past its range is refused.
            const std::vector<std::string> args = operandTexts(inst);
            for (std::size_t i = 0; i < args.size(); ++i) {
                const OpOperand &o = row.operands[i];
                std::vector<std::string> bad;
                if (isStreamField(o.field)) {
                    const StreamSpan span = streamSpan(inst, o);
                    const char d =
                        inst.stream(o.field).dir == Direction::West ? 'w'
                                                                    : 'e';
                    bad.push_back(strformat(
                        "s%d.%c", kStreamsPerDir - span.count + 1, d));
                    if (span.aligned && span.count > 1)
                        bad.push_back(strformat("s1.%c", d));
                } else if (o.field == OpField::Types) {
                    bad.push_back("int8 -> int64");
                } else {
                    bad.push_back(numberText(o, std::uint64_t{o.hi} + 1));
                    if (o.lo > 0)
                        bad.push_back(numberText(o, o.lo - 1));
                }
                for (const std::string &b : bad) {
                    std::vector<std::string> mutated = args;
                    mutated[i] = b;
                    const std::string line = joinLine(inst, mutated);
                    EXPECT_FALSE(parseInstruction(line, back, err))
                        << line;
                }
            }
        }
    }
}

TEST(Assembler, MutatedLinesAreRefusedOrReprintToThemselves)
{
    // A seeded line mutator over valid listings: each mutant is either
    // refused with an error, or its printed form parses back to the
    // same instruction and prints to itself.
    const std::string alphabet = "0123456789abcdefklmnpswx.,-> \t@_";
    Rng rng(7);
    int refused = 0, accepted = 0;
    for (int i = 0; i < 6000; ++i) {
        const OpRow &row = kOpTable[rng.nextBelow(kNumOpcodes)];
        std::string line = randomInstruction(row, rng).toString();
        for (int m = 1 + static_cast<int>(rng.nextBelow(3)); m > 0; --m) {
            const std::size_t at = rng.nextBelow(line.size() + 1);
            const char c = alphabet[rng.nextBelow(alphabet.size())];
            switch (rng.nextBelow(4)) {
              case 0: // Insert.
                line.insert(at, 1, c);
                break;
              case 1: // Erase.
                if (at < line.size())
                    line.erase(at, 1);
                break;
              case 2: // Replace.
                if (at < line.size())
                    line[at] = c;
                break;
              default: // Duplicate a span.
                line.insert(at, line.substr(rng.nextBelow(line.size())));
                break;
            }
        }
        Instruction inst;
        std::string err;
        if (!parseInstruction(line, inst, err)) {
            EXPECT_FALSE(err.empty()) << line;
            ++refused;
            continue;
        }
        ++accepted;
        const std::string text = inst.toString();
        Instruction back;
        ASSERT_TRUE(parseInstruction(text, back, err))
            << line << " -> " << text << ": " << err;
        EXPECT_EQ(back, inst) << line << " -> " << text;
        EXPECT_EQ(back.toString(), text) << line;

        // The same mutant as a listing line: refused with its line
        // number, or assembled.
        const AsmResult r = assemble(
            strformat("@%s:\n%s", IcuId{0}.name().c_str(), line.c_str()));
        EXPECT_TRUE(r.ok || r.errorLine == 2) << line;
    }
    // Both outcomes occur, so the mutator reaches the range checks.
    EXPECT_GT(refused, 1000);
    EXPECT_GT(accepted, 100);
}

TEST(Assembler, FullListingRoundTrips)
{
    const std::string text = "@MEM_E0:\n"
                             "    read 0x10, s4.e\n"
                             "    nop 3\n"
                             "    write 0x20, s0.w\n"
                             "@VXM0:\n"
                             "    add s4.e, s5.e, s0.w\n"
                             "@MXM0_W:\n"
                             "    lw s0.e, n16\n"
                             "    iw p0\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error << " line " << r.errorLine;
    EXPECT_EQ(r.program.queues.size(), 3u);
    // Disassemble and re-assemble: fixed point.
    const std::string dis = disassemble(r.program);
    const AsmResult r2 = assemble(dis);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(disassemble(r2.program), dis);
}

TEST(Assembler, RejectsWrongSliceSection)
{
    const AsmResult r = assemble("@MEM_E0:\n    add s1.e, s2.e, s3.e\n");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorLine, 2);
}

TEST(Encoding, HeaderSizeAndBundles)
{
    Instruction inst;
    inst.op = Opcode::Read;
    EXPECT_EQ(encodedSize(inst), kInstHeaderBytes);
    EXPECT_EQ(kIfetchBundleBytes, 640u); // Pair of 320-byte vectors.
}

TEST(Encoding, MapPayloadRoundTrips)
{
    Instruction inst;
    inst.op = Opcode::Permute;
    inst.srcA = {1, Direction::East};
    inst.dst = {2, Direction::East};
    auto map = std::make_shared<std::vector<std::uint16_t>>();
    for (int i = 0; i < kLanes; ++i)
        map->push_back(static_cast<std::uint16_t>(kLanes - 1 - i));
    inst.map = map;

    std::vector<std::uint8_t> bytes;
    encodeInstruction(inst, bytes);
    EXPECT_EQ(bytes.size(), kInstHeaderBytes + 2u * kLanes);

    std::size_t off = 0;
    auto back = decodeInstruction(bytes, off);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(off, bytes.size());
    EXPECT_EQ(*back, inst);
}

TEST(Encoding, FuzzRoundTrip)
{
    Rng rng(99);
    std::vector<Instruction> queue;
    for (int i = 0; i < 500; ++i) {
        Instruction inst;
        inst.op = static_cast<Opcode>(rng.nextBelow(kNumOpcodes));
        inst.imm0 = static_cast<std::uint32_t>(rng.next());
        inst.imm1 = static_cast<std::uint32_t>(rng.next());
        inst.addr = static_cast<MemAddr>(rng.nextBelow(8192));
        inst.srcA = {static_cast<StreamId>(rng.nextBelow(32)),
                     rng.nextBelow(2) ? Direction::East
                                      : Direction::West};
        inst.srcB = {static_cast<StreamId>(rng.nextBelow(32)),
                     Direction::West};
        inst.dst = {static_cast<StreamId>(rng.nextBelow(32)),
                    Direction::East};
        inst.groupSize =
            static_cast<std::uint8_t>(1 + rng.nextBelow(32));
        inst.dtype = static_cast<DType>(rng.nextBelow(5));
        inst.flags = static_cast<std::uint8_t>(rng.nextBelow(4));
        queue.push_back(std::move(inst));
    }
    const auto bytes = encodeQueue(queue);
    std::vector<Instruction> back;
    ASSERT_TRUE(decodeQueue(bytes, back));
    ASSERT_EQ(back.size(), queue.size());
    for (std::size_t i = 0; i < queue.size(); ++i)
        EXPECT_EQ(back[i], queue[i]) << i;
}

TEST(Encoding, RejectsTruncation)
{
    Instruction inst;
    inst.op = Opcode::Add;
    std::vector<std::uint8_t> bytes;
    encodeInstruction(inst, bytes);
    bytes.pop_back();
    std::vector<Instruction> out;
    EXPECT_FALSE(decodeQueue(bytes, out));
}

TEST(Timing, TemporalParametersExposed)
{
    // Eq. 4: T = N + d_func + delta.
    EXPECT_EQ(instructionTime(Opcode::Read, 10, 15, kSuperlanes),
              20u + opTiming(Opcode::Read).dFunc + 5u);
    // Every opcode has a positive functional delay.
    for (int i = 0; i < kNumOpcodes; ++i) {
        EXPECT_GE(opTiming(static_cast<Opcode>(i)).dFunc, 1u);
    }
    // The ACC exit latency spans the supercell chain.
    EXPECT_EQ(opTiming(Opcode::Acc).dFunc,
              static_cast<Cycle>(kSuperlanes) + 1);
}

// ---- Pins recorded before the opcode table replaced the per-opcode
// switches; the table must reproduce them.

TEST(Opcode, RowsArePinned)
{
    struct Pin
    {
        const char *name;
        SliceKind slice;
        Cycle dFunc;
        int vxm; ///< 0: not point-wise VXM, 1: unary, 2: binary.
    };
    using S = SliceKind;
    const Pin pins[] = {
        {"nop", S::ICU, 1, 0},        {"ifetch", S::ICU, 1, 0},
        {"sync", S::ICU, 1, 0},       {"notify", S::ICU, 1, 0},
        {"config", S::ICU, 1, 0},     {"repeat", S::ICU, 1, 0},
        {"read", S::MEM, 2, 0},       {"write", S::MEM, 1, 0},
        {"gather", S::MEM, 2, 0},     {"scatter", S::MEM, 1, 0},
        {"add", S::VXM, 1, 2},        {"sub", S::VXM, 1, 2},
        {"mul", S::VXM, 2, 2},        {"add.sat", S::VXM, 1, 2},
        {"sub.sat", S::VXM, 1, 2},    {"mul.sat", S::VXM, 2, 2},
        {"max", S::VXM, 1, 2},        {"min", S::VXM, 1, 2},
        {"neg", S::VXM, 1, 1},        {"abs", S::VXM, 1, 1},
        {"mask", S::VXM, 1, 2},       {"relu", S::VXM, 1, 1},
        {"tanh", S::VXM, 4, 1},       {"exp", S::VXM, 4, 1},
        {"rsqrt", S::VXM, 4, 1},      {"convert", S::VXM, 2, 1},
        {"shift", S::VXM, 1, 1},      {"lw", S::MXM, 1, 0},
        {"iw", S::MXM, 1, 0},         {"abc", S::MXM, 1, 0},
        {"acc", S::MXM, 21, 0},       {"shift.up", S::SXM, 1, 0},
        {"shift.down", S::SXM, 1, 0}, {"select.ns", S::SXM, 1, 0},
        {"permute", S::SXM, 2, 0},    {"distribute", S::SXM, 1, 0},
        {"rotate", S::SXM, 2, 0},     {"transpose", S::SXM, 2, 0},
        {"deskew", S::C2C, 64, 0},    {"send", S::C2C, 22, 0},
        {"receive", S::C2C, 2, 0},
    };
    ASSERT_EQ(std::size(pins), static_cast<std::size_t>(kNumOpcodes));
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        const Pin &p = pins[i];
        EXPECT_STREQ(opcodeName(op), p.name);
        EXPECT_EQ(opcodeSlice(op), p.slice) << p.name;
        EXPECT_EQ(opTiming(op).dFunc, p.dFunc) << p.name;
        EXPECT_EQ(isVxmBinary(op) ? 2 : isVxmUnary(op) ? 1 : 0, p.vxm)
            << p.name;
    }
}

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

TEST(Assembler, EveryIcuNameAndStreamRefRoundTrips)
{
    for (int i = 0; i < kNumIcus; ++i) {
        const std::string name = IcuId{i}.name();
        for (const std::string &s : {name, toLower(name), upper(name)}) {
            IcuId back;
            ASSERT_TRUE(parseIcuName(s, back)) << s;
            EXPECT_EQ(back, IcuId{i}) << s;
        }
    }
    for (int id = 0; id < kStreamsPerDir; ++id) {
        for (const Direction d : {Direction::East, Direction::West}) {
            const StreamRef ref{static_cast<StreamId>(id), d};
            const std::string text = ref.toString();
            for (const std::string &s : {text, upper(text)}) {
                StreamRef back;
                ASSERT_TRUE(parseStreamRef(s, back)) << s;
                EXPECT_EQ(back, ref) << s;
            }
        }
    }
}

std::uint64_t
listingHash(const AsmProgram &p)
{
    const std::string text = disassemble(p);
    return fnv1a64(text.data(), text.size());
}

TEST(Assembler, CompiledListingsArePinned)
{
    // The printed text of compiled programs: the tiny nets' assembled
    // programs and each member of a 2-chip batch-4 ring.
    const struct
    {
        int h, w, c, batch;
        std::uint64_t hash;
    } nets[] = {
        {8, 8, 4, 1, 0x10ece42bcfa98058ull},
        {12, 12, 8, 4, 0xe2c0564c222e7c4aull},
    };
    for (const auto &n : nets) {
        BatchProgramCache cache(
            model::buildTinyNet(1, n.h, n.w, n.c),
            std::vector<std::int8_t>(
                static_cast<std::size_t>(n.h * n.w * n.c), 3),
            n.batch);
        EXPECT_EQ(listingHash(*cache.acquire(n.batch)->prog.get()), n.hash)
            << n.h << "x" << n.w << "x" << n.c << " batch " << n.batch;
    }
    Pod pod(2, /*wire_latency=*/17);
    std::vector<ScheduledProgram> ring;
    buildRingAllReduce(pod, ring, /*batch=*/4);
    const std::uint64_t ring_hashes[] = {0x901a3a1342b968daull,
                                         0x3797ba7a7d167e55ull};
    for (std::size_t c = 0; c < ring.size(); ++c)
        EXPECT_EQ(listingHash(ring[c].toAsm()), ring_hashes[c]) << c;
}

} // namespace
} // namespace tsp
