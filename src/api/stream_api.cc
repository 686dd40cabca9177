#include "api/stream_api.hh"

#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/mem_alloc.hh"

namespace tsp::api {

namespace {

/**
 * Tensors stripe over 16 slices so 16-stream ops have concurrency.
 * Two regions alternate by tensor id so binary ops usually read
 * their operands from disjoint slices; add() stages a copy when they
 * do not.
 */
constexpr int kStripe = 16;
constexpr int kRegionFirst[2] = {1, 17};

} // namespace

struct Program::Impl
{
    ScheduledProgram prog;
    KernelBuilder kb{prog};
    MemAllocator alloc;

    struct Tensor
    {
        MemAddr base = 0;
        int rows = 0;
        int region = 0;
        std::vector<std::int8_t> init; ///< Host data to DMA (may be
                                       ///< empty).

        GlobalAddr
        rowAddr(int r) const
        {
            return GlobalAddr{
                Hemisphere::West,
                kRegionFirst[region] + r % kStripe,
                static_cast<MemAddr>(base + r / kStripe)};
        }
    };
    std::vector<Tensor> tensors;

    /** Sequential op timeline: next free cycle. */
    Cycle next = ScheduledProgram::kProgramStart + 128;

    std::unique_ptr<Chip> chip;
    bool ran = false;

    Tensor &
    at(TensorHandle h)
    {
        TSP_ASSERT(h.id >= 0 &&
                   h.id < static_cast<int>(tensors.size()));
        return tensors[static_cast<std::size_t>(h.id)];
    }

    TensorHandle
    allocTensor(int rows)
    {
        TSP_ASSERT(rows > 0);
        Tensor t;
        t.rows = rows;
        t.region = static_cast<int>(tensors.size()) % 2;
        const int words = (rows + kStripe - 1) / kStripe;
        const GlobalAddr a = alloc.allocStriped(
            Hemisphere::West, kRegionFirst[t.region], kStripe,
            words);
        t.base = a.addr;
        tensors.push_back(std::move(t));
        return {static_cast<int>(tensors.size()) - 1};
    }

    /** Row-by-row MEM copy into a fresh tensor (region rotation). */
    TensorHandle
    stageCopy(TensorHandle src)
    {
        const int rows = at(src).rows;
        TensorHandle h = allocTensor(rows);
        // NOTE: allocTensor may reallocate `tensors`; re-fetch.
        Tensor &td = at(h);
        td.region = 1 - at(src).region; // Force the other region.
        const Tensor ts = at(src);      // Value copy: stable.
        // Slice-major order keeps each consecutive issue on a fresh
        // flow line of the single staging stream.
        Cycle t = next;
        for (int s_idx = 0; s_idx < kStripe; ++s_idx) {
            for (int r = s_idx; r < ts.rows; r += kStripe, ++t) {
                const GlobalAddr from = ts.rowAddr(r);
                const GlobalAddr to = td.rowAddr(r);
                const StreamRef s{
                    31,
                    Layout::flowDirection(from.pos(), to.pos())};
                kb.read(from, s, t);
                kb.write(to, s, t + kb.readLead(from, to.pos()));
            }
            t += Layout::numPositions;
        }
        next = t + 64;
        return h;
    }
};

Program::Program() : impl_(std::make_unique<Impl>()) {}
Program::~Program() = default;

TensorHandle
Program::tensor(int rows)
{
    return impl_->allocTensor(rows);
}

TensorHandle
Program::randomTensor(int rows, std::uint64_t seed)
{
    TensorHandle h = impl_->allocTensor(rows);
    Rng rng(seed);
    auto &t = impl_->at(h);
    t.init.resize(static_cast<std::size_t>(rows) * kLanes);
    for (auto &v : t.init)
        v = static_cast<std::int8_t>(rng.intIn(-100, 100));
    return h;
}

void
Program::setData(TensorHandle h, const std::vector<std::int8_t> &data)
{
    auto &t = impl_->at(h);
    TSP_ASSERT(data.size() ==
               static_cast<std::size_t>(t.rows) * kLanes);
    t.init = data;
}

TensorHandle
Program::add(TensorHandle x, TensorHandle y)
{
    TSP_ASSERT(impl_->at(x).rows == impl_->at(y).rows);
    if (impl_->at(x).region == impl_->at(y).region)
        y = impl_->stageCopy(y); // Same slices: stage one operand.
    TensorHandle z = impl_->allocTensor(impl_->at(x).rows);
    // Value copies: allocTensor may have reallocated the pool.
    const auto tx = impl_->at(x);
    const auto ty = impl_->at(y);
    const auto tz = impl_->at(z);

    // Per row: Read X -> s16.e, Read Y -> s17.e (arriving together
    // at the VXM), AddSat -> s29.w, Write Z at arrival.
    Cycle t = impl_->next;
    const SlicePos vxm = Layout::vxm;
    for (int r = 0; r < tx.rows; ++r, ++t) {
        impl_->kb.readArriving(tx.rowAddr(r),
                               {16, Direction::East}, vxm, t);
        impl_->kb.readArriving(ty.rowAddr(r),
                               {17, Direction::East}, vxm, t);
        impl_->kb.vxmBinary(0, Opcode::AddSat, DType::Int8,
                            {16, Direction::East},
                            {17, Direction::East},
                            {29, Direction::West}, t);
        const GlobalAddr dst = tz.rowAddr(r);
        impl_->kb.write(dst, {29, Direction::West},
                        t + 1 +
                            Layout::transitDelay(vxm, dst.pos()));
    }
    impl_->next = t + 64; // Generous inter-op gap.
    return z;
}

TensorHandle
Program::relu(TensorHandle x)
{
    TensorHandle z = impl_->allocTensor(impl_->at(x).rows);
    const auto tx = impl_->at(x);
    const auto tz = impl_->at(z);

    Cycle t = impl_->next;
    const SlicePos vxm = Layout::vxm;
    for (int r = 0; r < tx.rows; ++r, ++t) {
        impl_->kb.readArriving(tx.rowAddr(r),
                               {16, Direction::East}, vxm, t);
        impl_->kb.vxmUnary(1, Opcode::Relu, DType::Int8,
                           {16, Direction::East},
                           {29, Direction::West}, t);
        const GlobalAddr dst = tz.rowAddr(r);
        impl_->kb.write(dst, {29, Direction::West},
                        t + 1 +
                            Layout::transitDelay(vxm, dst.pos()));
    }
    impl_->next = t + 64;
    return z;
}

TensorHandle
Program::transpose16(TensorHandle x)
{
    TSP_ASSERT(impl_->at(x).rows % 16 == 0);
    TensorHandle z = impl_->allocTensor(impl_->at(x).rows);
    const auto tx = impl_->at(x);
    const auto tz = impl_->at(z);

    // Each 16-row group: 16 reads (one per stripe slice) arriving
    // together at the west SXM on s0-15.w; the transposer emits 16
    // streams on s16-31.e which write back, rows/columns exchanged
    // within each superlane (Listing 2's 16-slice in / 16-slice out).
    const SlicePos sxm = Layout::sxmPos(Hemisphere::West);
    Cycle t = impl_->next;
    for (int g = 0; g < tx.rows / 16; ++g, t += 4) {
        for (int j = 0; j < 16; ++j) {
            impl_->kb.readArriving(
                tx.rowAddr(16 * g + j),
                {static_cast<StreamId>(j), Direction::West}, sxm, t);
        }
        Instruction inst;
        inst.op = Opcode::Transpose;
        inst.srcA = {0, Direction::West};
        inst.dst = {16, Direction::East};
        inst.groupSize = 16;
        impl_->kb.sxm(Hemisphere::West, SxmUnit::Transpose0, inst, t);
        const Cycle vis = t + opTiming(Opcode::Transpose).dFunc;
        for (int j = 0; j < 16; ++j) {
            const GlobalAddr dst = tz.rowAddr(16 * g + j);
            impl_->kb.write(
                dst, {static_cast<StreamId>(16 + j), Direction::East},
                vis + Layout::transitDelay(sxm, dst.pos()));
        }
    }
    impl_->next = t + 64;
    return z;
}

RunInfo
Program::run()
{
    TSP_ASSERT(!impl_->ran);
    impl_->chip = std::make_unique<Chip>();
    Chip &chip = *impl_->chip;

    // DMA initial tensor data.
    for (const auto &t : impl_->tensors) {
        if (t.init.empty())
            continue;
        for (int r = 0; r < t.rows; ++r) {
            Vec320 v;
            for (int b = 0; b < kLanes; ++b) {
                v.bytes[static_cast<std::size_t>(b)] =
                    static_cast<std::uint8_t>(
                        t.init[static_cast<std::size_t>(r) * kLanes +
                               b]);
            }
            const GlobalAddr a = t.rowAddr(r);
            chip.mem(a.hem, a.slice).backdoorWrite(a.addr, v);
        }
    }

    chip.loadProgram(impl_->prog.toAsm(/*with_preamble=*/true));
    RunInfo info;
    info.cycles = chip.run();
    info.instructions = chip.totalDispatched();
    impl_->ran = true;
    return info;
}

std::vector<std::int8_t>
Program::read(TensorHandle h) const
{
    TSP_ASSERT(impl_->ran);
    const auto &t =
        const_cast<Program *>(this)->impl_->at(h);
    std::vector<std::int8_t> out(
        static_cast<std::size_t>(t.rows) * kLanes);
    for (int r = 0; r < t.rows; ++r) {
        const GlobalAddr a = t.rowAddr(r);
        const Vec320 v =
            impl_->chip->mem(a.hem, a.slice).backdoorRead(a.addr);
        for (int b = 0; b < kLanes; ++b) {
            out[static_cast<std::size_t>(r) * kLanes + b] =
                static_cast<std::int8_t>(
                    v.bytes[static_cast<std::size_t>(b)]);
        }
    }
    return out;
}

Chip &
Program::chip()
{
    TSP_ASSERT(impl_->chip);
    return *impl_->chip;
}

} // namespace tsp::api
