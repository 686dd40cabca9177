#include "isa/encoding.hh"

#include "common/logging.hh"

namespace tsp {

namespace {

/** Appends the low @p n bytes of @p v, little-endian. */
void
putLe(std::vector<std::uint8_t> &out, std::uint32_t v, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

/** @return the @p n little-endian bytes of @p b at @p off. */
std::uint32_t
getLe(const std::vector<std::uint8_t> &b, std::size_t off, int n)
{
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<std::uint32_t>(b[off + i]) << (8 * i);
    return v;
}

std::uint8_t
packStreamRef(const StreamRef &s)
{
    return static_cast<std::uint8_t>(
        (s.id & 0x1f) | (s.dir == Direction::West ? 0x20 : 0x00));
}

StreamRef
unpackStreamRef(std::uint8_t b)
{
    StreamRef s;
    s.id = static_cast<StreamId>(b & 0x1f);
    s.dir = (b & 0x20) ? Direction::West : Direction::East;
    return s;
}

} // namespace

std::size_t
encodedSize(const Instruction &inst)
{
    return kInstHeaderBytes + (inst.map ? 2 * inst.map->size() : 0);
}

void
encodeInstruction(const Instruction &inst, std::vector<std::uint8_t> &out)
{
    // Header layout (20 bytes, little-endian):
    //  [0]  opcode
    //  [1]  flags: bit0 = has map
    //  [2]  srcA  [3] srcB  [4] dst  (packed stream refs)
    //  [5]  groupSize
    //  [6]  dtype
    //  [7]  flags
    //  [8..11]  imm0
    //  [12..15] imm1
    //  [16..17] addr (13 bits used)
    //  [18..19] map entry count
    out.push_back(static_cast<std::uint8_t>(inst.op));
    out.push_back(inst.map ? 0x01 : 0x00);
    out.push_back(packStreamRef(inst.srcA));
    out.push_back(packStreamRef(inst.srcB));
    out.push_back(packStreamRef(inst.dst));
    out.push_back(inst.groupSize);
    out.push_back(static_cast<std::uint8_t>(inst.dtype));
    out.push_back(inst.flags);
    putLe(out, inst.imm0, 4);
    putLe(out, inst.imm1, 4);
    putLe(out, inst.addr, 2);
    putLe(out, inst.map ? static_cast<std::uint32_t>(inst.map->size()) : 0,
          2);
    if (inst.map) {
        for (const std::uint16_t e : *inst.map)
            putLe(out, e, 2);
    }
}

std::optional<Instruction>
decodeInstruction(const std::vector<std::uint8_t> &bytes,
                  std::size_t &offset)
{
    if (offset + kInstHeaderBytes > bytes.size())
        return std::nullopt;
    const std::size_t base = offset;

    const std::uint8_t opb = bytes[base];
    if (opb >= kNumOpcodes)
        return std::nullopt;

    // Only the bits the encoder writes: a decodable bundle re-encodes
    // to itself.
    if ((bytes[base + 1] & ~0x01) != 0 || ((bytes[base + 2] |
                                            bytes[base + 3] |
                                            bytes[base + 4]) &
                                           0xc0) != 0) {
        return std::nullopt;
    }
    Instruction inst;
    inst.op = static_cast<Opcode>(opb);
    const bool has_map = bytes[base + 1] & 0x01;
    inst.srcA = unpackStreamRef(bytes[base + 2]);
    inst.srcB = unpackStreamRef(bytes[base + 3]);
    inst.dst = unpackStreamRef(bytes[base + 4]);
    inst.groupSize = bytes[base + 5];
    if (bytes[base + 6] > static_cast<std::uint8_t>(DType::Fp32))
        return std::nullopt;
    inst.dtype = static_cast<DType>(bytes[base + 6]);
    inst.flags = bytes[base + 7];
    inst.imm0 = getLe(bytes, base + 8, 4);
    inst.imm1 = getLe(bytes, base + 12, 4);
    inst.addr = getLe(bytes, base + 16, 2);
    const std::size_t map_len = getLe(bytes, base + 18, 2);

    // The text and the bundle share one validator: a field outside
    // its row's range is refused in either form.
    if (has_map != (map_len > 0) || !operandError(inst).empty())
        return std::nullopt;
    std::size_t next = base + kInstHeaderBytes;
    if (map_len > 0) {
        if (next + 2 * map_len > bytes.size())
            return std::nullopt;
        auto map = std::make_shared<std::vector<std::uint16_t>>();
        map->reserve(map_len);
        for (std::size_t i = 0; i < map_len; ++i)
            map->push_back(
                static_cast<std::uint16_t>(getLe(bytes, next + 2 * i, 2)));
        inst.map = std::move(map);
        next += 2 * map_len;
    }
    offset = next;
    return inst;
}

std::vector<std::uint8_t>
encodeQueue(const std::vector<Instruction> &insts)
{
    std::vector<std::uint8_t> out;
    for (const auto &inst : insts)
        encodeInstruction(inst, out);
    return out;
}

bool
decodeQueue(const std::vector<std::uint8_t> &bytes,
            std::vector<Instruction> &out)
{
    out.clear();
    std::size_t offset = 0;
    while (offset < bytes.size()) {
        auto inst = decodeInstruction(bytes, offset);
        if (!inst)
            return false;
        out.push_back(std::move(*inst));
    }
    return true;
}

} // namespace tsp
