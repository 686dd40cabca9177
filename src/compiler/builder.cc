#include "compiler/builder.hh"

#include "common/logging.hh"

namespace tsp {

void
KernelBuilder::read(const GlobalAddr &a, StreamRef s, Cycle issue)
{
    Instruction inst;
    inst.op = Opcode::Read;
    inst.addr = a.addr;
    inst.dst = s;
    prog_.emit(issue, a.icu(), inst);
}

Cycle
KernelBuilder::readArriving(const GlobalAddr &a, StreamRef s,
                            SlicePos consumer_pos, Cycle at)
{
    const Cycle lead = readLead(a, consumer_pos);
    if (at < lead) {
        panic("readArriving: arrival %llu needs issue %llu cycles "
              "earlier than 0",
              static_cast<unsigned long long>(at),
              static_cast<unsigned long long>(lead));
    }
    // The stream must flow toward the consumer.
    TSP_ASSERT(consumer_pos == a.pos() ||
               Layout::flowDirection(a.pos(), consumer_pos) == s.dir);
    const Cycle issue = at - lead;
    read(a, s, issue);
    return issue;
}

void
KernelBuilder::write(const GlobalAddr &a, StreamRef s, Cycle issue)
{
    Instruction inst;
    inst.op = Opcode::Write;
    inst.addr = a.addr;
    inst.srcA = s;
    prog_.emit(issue, a.icu(), inst);
}

Cycle
KernelBuilder::vxmBinary(int alu, Opcode op, DType t, StreamRef a,
                         StreamRef b, StreamRef dst, Cycle issue)
{
    TSP_ASSERT(isVxmBinary(op));
    Instruction inst;
    inst.op = op;
    inst.dtype = t;
    inst.srcA = a;
    inst.srcB = b;
    inst.dst = dst;
    prog_.emit(issue, IcuId::vxmAlu(alu), inst);
    return issue + opTiming(op).dFunc;
}

Cycle
KernelBuilder::vxmUnary(int alu, Opcode op, DType t, StreamRef a,
                        StreamRef dst, Cycle issue, std::uint32_t imm)
{
    TSP_ASSERT(isVxmUnary(op) && op != Opcode::Convert);
    Instruction inst;
    inst.op = op;
    inst.dtype = t;
    inst.srcA = a;
    inst.dst = dst;
    inst.imm0 = imm;
    prog_.emit(issue, IcuId::vxmAlu(alu), inst);
    return issue + opTiming(op).dFunc;
}

Cycle
KernelBuilder::vxmConvert(int alu, DType from, DType to, StreamRef a,
                          StreamRef dst, Cycle issue)
{
    Instruction inst;
    inst.op = Opcode::Convert;
    inst.imm1 = static_cast<std::uint32_t>(from);
    inst.imm0 = static_cast<std::uint32_t>(to);
    inst.srcA = a;
    inst.dst = dst;
    prog_.emit(issue, IcuId::vxmAlu(alu), inst);
    return issue + opTiming(Opcode::Convert).dFunc;
}

Cycle
KernelBuilder::installWeights(int plane, const WeightTile &tile,
                              StreamId streams_base, Direction dir,
                              Cycle start)
{
    const SlicePos mxm_pos =
        Layout::mxmPos(plane < 2 ? Hemisphere::West : Hemisphere::East);
    const IcuId wq = IcuId::mxm(plane, /*weight_sequencer=*/true);
    constexpr int stripe = WeightTile::kStripe;
    const int bursts = tile.bursts(); // Partial tiles install less.

    // One LW per cycle; burst k consumes rows 16k..16k+15 on streams
    // base..base+15 at cycle start + k.
    for (int k = 0; k < bursts; ++k) {
        const Cycle lw_cycle = start + static_cast<Cycle>(k);
        for (int j = 0; j < stripe; ++j) {
            const int row = k * stripe + j;
            StreamRef s{static_cast<StreamId>(streams_base + j), dir};
            readArriving(tile.rowAddr(row), s, mxm_pos, lw_cycle);
        }
        Instruction lw;
        lw.op = Opcode::Lw;
        lw.srcA = StreamRef{streams_base, dir};
        lw.groupSize = stripe;
        lw.dtype = DType::Int8;
        prog_.emit(lw_cycle, wq, lw);
    }

    // Commit the buffer into the array the cycle after the last LW.
    Instruction iw;
    iw.op = Opcode::Iw;
    iw.imm0 = static_cast<std::uint32_t>(plane);
    const Cycle iw_cycle = start + static_cast<Cycle>(bursts);
    prog_.emit(iw_cycle, wq, iw);
    return iw_cycle + 1;
    // (Callers advance their install resource by bursts() + 1.)
}

void
KernelBuilder::abc(int plane, StreamRef act, std::uint32_t count,
                   bool accumulate, DType atype, Cycle issue)
{
    Instruction inst;
    inst.op = Opcode::Abc;
    inst.imm0 = static_cast<std::uint32_t>(plane);
    inst.imm1 = count;
    inst.srcA = act;
    inst.dtype = atype;
    if (accumulate)
        inst.flags |= Instruction::kFlagAccumulate;
    prog_.emit(issue, IcuId::mxm(plane, /*weight_sequencer=*/false),
               inst);
}

void
KernelBuilder::acc(int plane, StreamRef dst, std::uint32_t count,
                   Cycle issue)
{
    Instruction inst;
    inst.op = Opcode::Acc;
    inst.imm0 = static_cast<std::uint32_t>(plane);
    inst.imm1 = count;
    inst.dst = dst;
    prog_.emit(issue, IcuId::mxm(plane, /*weight_sequencer=*/false),
               inst);
}

Cycle
KernelBuilder::sxm(Hemisphere hem, SxmUnit unit, Instruction inst,
                   Cycle issue)
{
    const Cycle done = issue + opTiming(inst.op).dFunc;
    prog_.emit(issue, IcuId::sxm(hem, static_cast<int>(unit)),
               std::move(inst));
    return done;
}

} // namespace tsp
