#include "c2c/collective.hh"

#include "common/logging.hh"
#include "compiler/builder.hh"

namespace tsp {

namespace {

/** Streams of the schedule. */
constexpr StreamRef kOut{4, Direction::East};    // To the east link.
constexpr StreamRef kIn{6, Direction::East};     // From the west link.
constexpr StreamRef kLocal{16, Direction::West}; // Slice -> VXM.
constexpr StreamRef kSum{29, Direction::East};   // VXM -> slice.

/** @return word @p addr of the schedule's slice. */
GlobalAddr
word(MemAddr addr)
{
    return {Hemisphere::East, AllReducePlan::kSlice, addr};
}

/**
 * Emits one ring hop: @p from reads @p addr so it reaches its east
 * link at @p send_at and sends it; @p to receives it @p wire cycles
 * after the serialization.
 * @return the cycle the vector is visible at @p to's west link.
 */
Cycle
emitHop(KernelBuilder &from, KernelBuilder &to, MemAddr addr,
        Cycle send_at, Cycle wire)
{
    from.readArriving(word(addr), kOut, Layout::c2cEast, send_at);
    Instruction send;
    send.op = Opcode::Send;
    send.imm0 = Pod::kRightLink;
    send.srcA = kOut;
    from.program().emit(send_at, IcuId::c2c(Pod::kRightLink), send);

    const Cycle arrive = send_at + kC2cSerializationCycles + wire;
    Instruction recv;
    recv.op = Opcode::Receive;
    recv.imm0 = Pod::kLeftLink;
    recv.dst = kIn;
    to.program().emit(arrive, IcuId::c2c(Pod::kLeftLink), recv);
    return arrive + opTiming(Opcode::Receive).dFunc;
}

} // namespace

AllReducePlan
buildRingAllReduce(const Pod &pod,
                   std::vector<ScheduledProgram> &programs,
                   int batch)
{
    const int n = pod.size();
    TSP_ASSERT(n >= 2);
    TSP_ASSERT(batch >= 1 && batch <= AllReducePlan::kMaxBatch);
    programs.assign(static_cast<std::size_t>(n), {});
    std::vector<KernelBuilder> kb(programs.begin(), programs.end());

    AllReducePlan plan;
    const Cycle wire = pod.wireLatency();
    // One hop: serialize (22) + wire + receive (2) + to the VXM (47)
    // + add (1) + write transit + read back to the link, plus slack.
    plan.phase = kC2cSerializationCycles + wire + 160;
    plan.firstSend = 120;

    // Deskew every ring link once, well before the first send.
    for (ScheduledProgram &prog : programs) {
        Instruction deskew;
        deskew.op = Opcode::Deskew;
        prog.emit(0, IcuId::c2c(Pod::kRightLink), deskew);
        prog.emit(1, IcuId::c2c(Pod::kLeftLink), deskew);
    }

    const SlicePos slice = word(0).pos();
    // The running partial lives at kResultAddr. Phase p sends from
    // chip p % n to chip (p + 1) % n; sample s's hops occupy slot
    // s*(n+1) + p: pipelined batching with the collision-free offset
    // proved in the header comment.
    for (int s = 0; s < batch; ++s) {
        const Cycle slot0 =
            static_cast<Cycle>(s) * static_cast<Cycle>(n + 1);
        const MemAddr local_a =
            AllReducePlan::kLocalAddr + static_cast<MemAddr>(s);
        const MemAddr result_a =
            AllReducePlan::kResultAddr + static_cast<MemAddr>(s);
        for (int p = 0; p <= 2 * n - 3; ++p) {
            KernelBuilder &to = kb[static_cast<std::size_t>((p + 1) % n)];
            const Cycle send_at =
                plan.firstSend +
                (slot0 + static_cast<Cycle>(p)) * plan.phase;
            // Chip 0 seeds the reduce by sending its local vector.
            const Cycle vis =
                emitHop(kb[static_cast<std::size_t>(p % n)], to,
                        p == 0 ? local_a : result_a, send_at, wire);

            if (p >= n - 1) {
                // Broadcast phases: chip n-1 holds the total after the
                // reduce; each receiver stores it straight to
                // kResultAddr (west link -> slice, eastward).
                to.write(word(result_a), kIn,
                         vis + Layout::transitDelay(Layout::c2cWest,
                                                    slice));
                continue;
            }
            // Reduce phases: the received vector flows east to the
            // VXM, where the local vector arrives the same cycle
            // flowing west; the sum commits the new partial.
            const Cycle at_vxm =
                vis + Layout::transitDelay(Layout::c2cWest, Layout::vxm);
            to.readArriving(word(local_a), kLocal, Layout::vxm, at_vxm);
            const Cycle sum_vis = to.vxmBinary(
                0, Opcode::AddSat, DType::Int8, kIn, kLocal, kSum, at_vxm);
            to.write(word(result_a), kSum,
                     sum_vis + Layout::transitDelay(Layout::vxm, slice));
        }
    }

    plan.finish =
        plan.firstSend +
        static_cast<Cycle>(2 * n - 2 +
                           (batch - 1) * (n + 1)) *
            plan.phase;
    return plan;
}

Cycle
runAllReduce(Pod &pod, std::vector<ScheduledProgram> &programs)
{
    TSP_ASSERT(static_cast<int>(programs.size()) == pod.size());
    for (int c = 0; c < pod.size(); ++c) {
        pod.chip(c).loadProgram(
            programs[static_cast<std::size_t>(c)].toAsm());
    }
    return pod.runAll();
}

} // namespace tsp
