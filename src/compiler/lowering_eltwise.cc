/**
 * @file
 * Non-MXM layer engines: max pooling (the Fig. 11 workload),
 * quantized residual addition, global average pooling, and the
 * MEM-to-MEM copy. All but the copy stream vectors through the VXM at
 * the chip bisection, sharing the per-hemisphere chain resource with
 * the conv drains (serialized via chainFree). Like the conv engine,
 * each places an element's accesses with place() and writes it with
 * writeOut(): the primary row flows back to the engine's own
 * hemisphere, and a halo duplicate is direction-flipped through a
 * copy ALU toward the other part.
 */

#include <algorithm>

#include "common/logging.hh"
#include "compiler/lowering.hh"
#include "compiler/lowering_internal.hh"

namespace tsp {

namespace {

/** Direction a read from @p a must flow to reach the VXM. */
Direction
dirToVxm(const GlobalAddr &a)
{
    return Layout::flowDirection(a.pos(), Layout::vxm);
}

} // namespace

/**
 * Eltwise-style layers consume their operands *at* the chip
 * bisection, so the two hemispheres' engines share the same stream
 * registers there; they run in disjoint time windows gated on both
 * engines' chains (a conv drain, by contrast, owns a per-hemisphere
 * partition of the position-47 streams and pipelines freely).
 */
Cycle
Lowering::globalChainGate()
{
    Cycle g = ScheduledProgram::kProgramStart + 128;
    for (int e = 0; e < 2; ++e) {
        g = std::max(g, engine(e).chainFree);
        g = std::max(g, engine(e).chainTail);
    }
    return g;
}

void
Lowering::setGlobalChain(Cycle c)
{
    for (int e = 0; e < 2; ++e) {
        engine(e).chainFree = c;
        engine(e).chainTail = c;
        engine(e).chainSig = -1;
    }
}

// --------------------------------------------------------------------
// Max pooling
// --------------------------------------------------------------------

void
Lowering::maxPoolEngine(int e, const LoweredTensor &in, int k,
                        int stride, int pad, LoweredTensor &out)
{
    Engine &en = engine(e);
    const StreamRoles &r = en.roles;
    const ActTensor &it = in.t;
    const ActTensor &ot = out.t;
    const SlicePos vxm = Layout::vxm;

    const int y_lo = e == 0 ? 0 : ot.splitY;
    const int y_hi = e == 0 ? ot.splitY : ot.height;
    if (y_hi <= y_lo)
        return;

    const int kk = k * k;
    Cycle slot = globalChainGate();
    const Cycle done = producerDone(in);
    std::vector<GlobalAddr> src(static_cast<std::size_t>(kk));
    std::vector<Cycle> rdy(static_cast<std::size_t>(kk));

    // Fast plan (k == 3 only): per window row, a pair read at
    // slot + row and a single at slot + row + 1; a three-ALU max tree
    // finishes at slot + 5, one element every 3 cycles. Falls back to
    // a fully serial chain when two same-cycle reads would hit one
    // slice. Offsets are VXM arrivals relative to the slot.
    auto arrival = [](bool fast, int j) {
        return fast ? static_cast<Cycle>(j / 3 + (j % 3 == 2 ? 1 : 0))
                    : static_cast<Cycle>(j);
    };
    // +1 for the direction-flipping final copy stage.
    const Cycle fast_out = 6;
    const Cycle serial_out = static_cast<Cycle>(kk) + 1;
    auto selfConflict = [](const std::vector<Access> &b) {
        for (std::size_t i = 0; i < b.size(); ++i) {
            for (std::size_t j = i + 1; j < b.size(); ++j) {
                if (b[i].a.hem == b[j].a.hem &&
                    b[i].a.slice == b[j].a.slice && b[i].c == b[j].c &&
                    b[i].write == b[j].write)
                    return true;
            }
        }
        return false;
    };

    for (int oy = y_lo; oy < y_hi; ++oy) {
        for (int ox = 0; ox < ot.width; ++ox) {
            for (int kg = 0; kg < ot.kgCount; ++kg) {
                // Gather the k*k input addresses (row-major window);
                // a pad reads a constant, ready from the start.
                for (int j = 0; j < kk; ++j) {
                    const int iy = oy * stride - pad + j / k;
                    const int ix = ox * stride - pad + j % k;
                    GlobalAddr &a = src[static_cast<std::size_t>(j)];
                    Cycle &ready = rdy[static_cast<std::size_t>(j)];
                    if (iy < 0 || iy >= it.height || ix < 0 ||
                        ix >= it.width) {
                        a = en.padNeg128[j % 3];
                        ready = 0;
                        continue;
                    }
                    if (!it.stores(e, iy)) {
                        panic("maxPoolEngine: input row y=%d beyond "
                              "engine %d halo",
                              iy, e);
                    }
                    a = it.addrOf(e, iy, ix, kg);
                    ready = rowReady(in, e, it.localRow(e, iy, ix, kg),
                                     done);
                }

                // Honor row readiness (timed as the first-choice plan).
                bool fast = k == 3;
                for (int j = 0; j < kk; ++j) {
                    const Cycle need =
                        rdy[static_cast<std::size_t>(j)] +
                        kb().readLead(src[static_cast<std::size_t>(j)],
                                      vxm);
                    const Cycle off = arrival(fast, j);
                    if (slot + off < need)
                        slot = need - off;
                }

                const OutElem o = outElem(ot, e, oy, ox, kg);
                auto fill = [&](bool use_fast) {
                    std::vector<Access> &batch = newBatch();
                    for (int j = 0; j < kk; ++j) {
                        const GlobalAddr &a =
                            src[static_cast<std::size_t>(j)];
                        batch.push_back({a,
                                         slot + arrival(use_fast, j) -
                                             kb().readLead(a, vxm),
                                         false});
                    }
                    reserveOut(o, slot + (use_fast ? fast_out : serial_out),
                               batch);
                };
                fill(fast);
                if (fast && selfConflict(build_->batch)) {
                    fast = false;
                    fill(false);
                }
                slot = place(slot, "maxPoolEngine");

                Cycle tree_vis;
                StreamRef tree_s;
                if (fast) {
                    // Reads: pairs on streams 16/17, singles on 18.
                    for (int row = 0; row < 3; ++row) {
                        StreamRef s[3];
                        for (int c = 0; c < 3; ++c) {
                            const int j = 3 * row + c;
                            const GlobalAddr &a =
                                src[static_cast<std::size_t>(j)];
                            s[c] = {static_cast<StreamId>(16 + c),
                                    dirToVxm(a)};
                            kb().readArriving(a, s[c], vxm,
                                              slot + arrival(true, j));
                        }
                        // P_row = max(pair) on stage1(0).
                        kb().vxmBinary(en.aluBase + 0, Opcode::Max,
                                       DType::Int8, s[0], s[1],
                                       r.stage1(0),
                                       slot + static_cast<Cycle>(row));
                        // M_row = max(P_row, single): rows 0 and 2
                        // land on stage1(1), row 1 on stage1(2).
                        kb().vxmBinary(
                            en.aluBase + 1, Opcode::Max, DType::Int8,
                            r.stage1(0), s[2],
                            row == 1 ? r.stage1(2) : r.stage1(1),
                            slot + static_cast<Cycle>(row) + 1);
                    }
                    // Combine on stage1(3): carry M0, fold M1, M2.
                    kb().vxmBinary(en.aluBase + 2, Opcode::Max,
                                   DType::Int8, r.stage1(1),
                                   r.stage1(1), r.stage1(3), slot + 2);
                    kb().vxmBinary(en.aluBase + 2, Opcode::Max,
                                   DType::Int8, r.stage1(3),
                                   r.stage1(2), r.stage1(3), slot + 3);
                    kb().vxmBinary(en.aluBase + 2, Opcode::Max,
                                   DType::Int8, r.stage1(3),
                                   r.stage1(1), r.stage1(3), slot + 4);
                    tree_vis = slot + fast_out - 1;
                    tree_s = r.stage1(3);
                } else {
                    // Serial fallback: self-chained running max.
                    for (int j = 0; j < kk; ++j) {
                        const GlobalAddr &a =
                            src[static_cast<std::size_t>(j)];
                        const StreamRef in_s{16, dirToVxm(a)};
                        const Cycle at = slot + static_cast<Cycle>(j);
                        kb().readArriving(a, in_s, vxm, at);
                        kb().vxmBinary(en.aluBase + 0, Opcode::Max,
                                       DType::Int8,
                                       j == 0 ? in_s : r.stage1(0), in_s,
                                       r.stage1(0), at);
                    }
                    tree_vis = slot + serial_out - 1;
                    tree_s = r.stage1(0);
                }

                // Flip toward the engine's own hemisphere, then write
                // out like a conv drain.
                kb().vxmBinary(en.aluBase + 3, Opcode::Max,
                               DType::Int8, tree_s, tree_s,
                               r.finalOwn(), tree_vis);
                writeOut(e, o, tree_vis + 1, en.aluBase + 4, out);
                slot += fast ? 3 : static_cast<Cycle>(kk) + 2;
            }
        }
    }
    setGlobalChain(slot + 8);
}

LoweredTensor
Lowering::maxPool(const LoweredTensor &in, int k, int stride, int pad,
                  int out_halo)
{
    build("maxPool");
    const int out_h = (in.t.height + 2 * pad - k) / stride + 1;
    const int out_w = (in.t.width + 2 * pad - k) / stride + 1;
    Hemisphere hems[2] = {Hemisphere::West, Hemisphere::East};
    int avoid = 0;
    if (const int ig = groupOf(in); ig >= 0)
        avoid |= 1 << ig;
    LoweredTensor out = allocOutput(out_h, out_w, in.t.channels,
                                    out_halo, hems, avoid);
    const Cycle begin = prog_.finishCycle();
    for (int e = 0; e < 2; ++e)
        maxPoolEngine(e, in, k, stride, pad, out);
    recordLayer("maxpool", begin);
    return out;
}

// --------------------------------------------------------------------
// Residual addition
// --------------------------------------------------------------------

void
Lowering::eltwiseAddEngine(int e, const LoweredTensor &a,
                           const LoweredTensor &b, const ConstQuad &sa,
                           const ConstQuad &sb, bool relu,
                           LoweredTensor &out)
{
    Engine &en = engine(e);
    const StreamRoles &r = en.roles;
    const ActTensor &at = a.t;
    const ActTensor &bt = b.t;
    const ActTensor &ot = out.t;
    const SlicePos vxm = Layout::vxm;
    TSP_ASSERT(at.height == bt.height && at.width == bt.width &&
               at.kgCount == bt.kgCount);

    const int y_lo = e == 0 ? 0 : ot.splitY;
    const int y_hi = e == 0 ? ot.splitY : ot.height;
    if (y_hi <= y_lo)
        return;

    Cycle slot = globalChainGate();
    const Cycle done = std::max(producerDone(a), producerDone(b));

    for (int oy = y_lo; oy < y_hi; ++oy) {
        for (int ox = 0; ox < ot.width; ++ox) {
            for (int kg = 0; kg < ot.kgCount; ++kg) {
                const GlobalAddr src_a = at.addrOf(e, oy, ox, kg);
                const GlobalAddr src_b = bt.addrOf(e, oy, ox, kg);
                const Cycle lead_a = kb().readLead(src_a, vxm);
                const Cycle lead_b = kb().readLead(src_b, vxm);
                slot = std::max(
                    slot, rowReady(a, e, at.localRow(e, oy, ox, kg),
                                   done) +
                              lead_a);
                slot = std::max(
                    slot, rowReady(b, e, bt.localRow(e, oy, ox, kg),
                                   done) +
                              lead_b);

                // Stream budget (see lowering.hh): all 7 fp32/const
                // quads plus three singles packed into quad 28-31;
                // the adder borrows quad 16-19, which carries no
                // traffic during the globally gated eltwise window.
                const StreamRef in_a{28, dirToVxm(src_a)};
                const StreamRef in_b{31, dirToVxm(src_b)};
                const StreamRef mulb_out{20, r.fromMxm};
                const StreamRef add_out{16, r.fromMxm};
                const StreamRef int8_out{29, r.fromMxm};

                // Place every access of the element as a unit.
                const OutElem o = outElem(ot, e, oy, ox, kg);
                std::vector<Access> &batch = newBatch();
                batch.push_back({src_a, slot - lead_a, false});
                batch.push_back({src_b, slot - lead_b, false});
                for (int q = 0; q < 4; ++q) {
                    batch.push_back(
                        {sa.addr[q],
                         slot + 2 - kb().readLead(sa.addr[q], vxm),
                         false});
                    batch.push_back(
                        {sb.addr[q],
                         slot + 2 - kb().readLead(sb.addr[q], vxm),
                         false});
                }
                reserveOut(o, slot + 8, batch);
                slot = place(slot, "eltwiseAddEngine");
                kb().readArriving(src_a, in_a, vxm, slot);
                kb().readArriving(src_b, in_b, vxm, slot);

                // Pipeline (per element, one producing stage per
                // stream so back-to-back elements never collide on a
                // flowing register; inputs always flow toMxm thanks
                // to the uniform tensor placement, so the fromMxm
                // quad 16-19 is free for the adder):
                //  s:   cvtA -> stage1 (s8-11); cvtB -> stage2
                //       (s12-15)
                //  s+2: mulA (stage1 x sa) -> stage3 (s24-27);
                //       mulB (stage2 x sb) -> s20-23
                //  s+4: add -> s16-19
                //  s+5: cvt fp32->int8 -> s29 fromMxm
                //  s+7: relu/copy -> finalOwn (s29 toMxm)
                kb().vxmConvert(en.aluBase + 0, DType::Int8,
                                DType::Fp32, in_a, r.stage1(0), slot);
                kb().vxmConvert(en.aluBase + 1, DType::Int8,
                                DType::Fp32, in_b, r.stage2(0), slot);
                for (int q = 0; q < 4; ++q) {
                    kb().readArriving(sa.addr[q], r.bias(q), vxm,
                                      slot + 2);
                    kb().readArriving(sb.addr[q], r.scale(q), vxm,
                                      slot + 2);
                }
                kb().vxmBinary(en.aluBase + 2, Opcode::Mul,
                               DType::Fp32, r.stage1(0), r.bias(0),
                               r.stage3(0), slot + 2);
                kb().vxmBinary(en.aluBase + 3, Opcode::Mul,
                               DType::Fp32, r.stage2(0), r.scale(0),
                               mulb_out, slot + 2);
                kb().vxmBinary(en.aluBase + 4, Opcode::Add,
                               DType::Fp32, r.stage3(0), mulb_out,
                               add_out, slot + 4);
                kb().vxmConvert(en.aluBase + 5, DType::Fp32,
                                DType::Int8, add_out, int8_out,
                                slot + 5);
                if (relu) {
                    kb().vxmUnary(en.aluBase + 6, Opcode::Relu,
                                  DType::Int8, int8_out,
                                  r.finalOwn(), slot + 7);
                } else {
                    kb().vxmBinary(en.aluBase + 6, Opcode::Max,
                                   DType::Int8, int8_out, int8_out,
                                   r.finalOwn(), slot + 7);
                }
                writeOut(e, o, slot + 8, en.aluBase + 7, out);
                slot += 1;
            }
        }
    }
    setGlobalChain(slot + 9);
}

LoweredTensor
Lowering::copyTensor(const LoweredTensor &src, int avoid_mask)
{
    build("copyTensor");
    const ActTensor &st = src.t;
    Hemisphere hems[2] = {st.part[0].hem, st.part[1].hem};
    LoweredTensor out =
        allocOutput(st.height, st.width, st.channels, st.halo, hems,
                    avoid_mask);
    // Preserve the exact stored-row structure (including halos).
    TSP_ASSERT(out.t.splitY == st.splitY && out.t.halo == st.halo);
    const Cycle done = producerDone(src);

    for (int e = 0; e < 2; ++e) {
        const StripedTensor &sp = st.part[e];
        if (sp.rows == 0)
            continue;
        Cycle t = std::max(engine(e).chainFree,
                           ScheduledProgram::kProgramStart + 128);
        // Slice-major order: consecutive issues come from ONE source
        // slice, so their values ride distinct flow lines of the
        // single copy stream; a gap separates slice groups.
        for (int s_idx = 0; s_idx < sp.nSlices; ++s_idx) {
            for (int row = s_idx; row < sp.rows;
                 row += sp.nSlices) {
                const GlobalAddr from = sp.rowAddr(row);
                const GlobalAddr to = out.t.part[e].rowAddr(row);
                const Cycle lead = kb().readLead(from, to.pos());
                Cycle issue = std::max(t, rowReady(src, e, row, done));
                std::vector<Access> &batch = newBatch();
                batch.push_back({from, issue, false});
                batch.push_back({to, issue + lead, true});
                issue = place(issue, "copyTensor");
                const StreamRef s{
                    31,
                    Layout::flowDirection(from.pos(), to.pos())};
                kb().read(from, s, issue);
                kb().write(to, s, issue + lead);
                (*out.ready[e])[static_cast<std::size_t>(row)] =
                    issue + lead + 1;
                t = issue + 1;
            }
            t += Layout::numPositions; // Drain the line space.
        }
    }
    return out;
}

LoweredTensor
Lowering::residualAdd(const LoweredTensor &a, const LoweredTensor &b,
                      float sa, float sb, bool relu, int out_halo)
{
    build("residualAdd");
    TSP_ASSERT(a.t.channels == b.t.channels);
    Hemisphere hems[2] = {Hemisphere::West, Hemisphere::East};
    int avoid = 0;
    if (const int ga = groupOf(a); ga >= 0)
        avoid |= 1 << ga;
    if (const int gb = groupOf(b); gb >= 0)
        avoid |= 1 << gb;

    // The engine issues both operand reads in the same cycle; if the
    // operands landed in the same slice group, stage one of them
    // into a fresh group first (escape hatch — the group rotation
    // avoids this in practice).
    const LoweredTensor *pb = &b;
    LoweredTensor staged;
    if (groupOf(a) >= 0 && groupOf(a) == groupOf(b)) {
        staged = copyTensor(b, avoid);
        if (const int gs = groupOf(staged); gs >= 0)
            avoid |= 1 << gs;
        pb = &staged;
    }

    LoweredTensor out = allocOutput(a.t.height, a.t.width,
                                    a.t.channels, out_halo, hems,
                                    avoid);

    std::vector<float> sav(kLanes, sa), sbv(kLanes, sb);
    ConstQuad saq[2], sbq[2];
    for (int e = 0; e < 2; ++e) {
        const Hemisphere hem =
            e == 0 ? Hemisphere::West : Hemisphere::East;
        saq[e] = allocConstQuad(build_->alloc, hem, kBiasFirst);
        sbq[e] = allocConstQuad(build_->alloc, hem, kScaleFirst);
        image_.addFp32Quad(saq[e].addr, sav.data(), kLanes);
        image_.addFp32Quad(sbq[e].addr, sbv.data(), kLanes);
    }

    const Cycle begin = prog_.finishCycle();
    for (int e = 0; e < 2; ++e)
        eltwiseAddEngine(e, a, *pb, saq[e], sbq[e], relu, out);
    recordLayer("residual", begin);
    return out;
}

// --------------------------------------------------------------------
// Global average pooling
// --------------------------------------------------------------------

LoweredTensor
Lowering::globalAvgPool(const LoweredTensor &in, float scale)
{
    build("globalAvgPool");
    const ActTensor &it = in.t;
    Hemisphere hems[2] = {Hemisphere::West, Hemisphere::East};
    int avoid = 0;
    if (const int ig = groupOf(in); ig >= 0)
        avoid |= 1 << ig;
    LoweredTensor out =
        allocOutput(1, 1, it.channels, /*halo=*/0, hems, avoid);
    const Cycle layer_begin = prog_.finishCycle();

    const SlicePos vxm = Layout::vxm;
    std::vector<float> scalev(kLanes, scale);
    const Cycle done = producerDone(in);

    // Per-engine partial sums land in int32 quads; the west engine
    // combines and requantizes.
    std::vector<ConstQuad> partial[2]; // [e][kg]
    std::vector<Cycle> partial_ready[2];

    for (int e = 0; e < 2; ++e) {
        Engine &en = engine(e);
        const StreamRoles &r = en.roles;
        const int y_lo = e == 0 ? 0 : it.splitY;
        const int y_hi = e == 0 ? it.splitY : it.height;
        if (y_hi <= y_lo)
            continue;
        const int n = (y_hi - y_lo) * it.width;
        auto elem = [&](int i) {
            return std::pair<int, int>{y_lo + i / it.width, i % it.width};
        };

        Cycle slot = globalChainGate();
        for (int kg = 0; kg < it.kgCount; ++kg) {
            // Elements stream 1/cycle from base: cvt at s, add at
            // s + 2 chained on stage2 (the running int32 sum, seeded
            // with the zero quad).
            Cycle base = slot;
            for (int i = 0; i < n; ++i) {
                const auto [y, x] = elem(i);
                const Cycle need =
                    rowReady(in, e, it.localRow(e, y, x, kg), done) +
                    kb().readLead(it.addrOf(e, y, x, kg), vxm);
                if (base + static_cast<Cycle>(i) < need)
                    base = need - static_cast<Cycle>(i);
            }
            // Partial-sum destination quad (4 distinct slices).
            const ConstQuad q = allocConstQuad(
                build_->alloc, e == 0 ? Hemisphere::East : Hemisphere::West,
                kActFirst);
            std::vector<Access> &batch = newBatch();
            for (int i = 0; i < n; ++i) {
                const auto [y, x] = elem(i);
                const GlobalAddr a = it.addrOf(e, y, x, kg);
                batch.push_back(
                    {a, base + static_cast<Cycle>(i) - kb().readLead(a, vxm),
                     false});
            }
            const Cycle sum_off = static_cast<Cycle>(n) + 2;
            for (int c = 0; c < 4; ++c) {
                batch.push_back(
                    {en.zeroQuad.addr[c],
                     base + 2 - kb().readLead(en.zeroQuad.addr[c], vxm),
                     false});
                batch.push_back(
                    {q.addr[c],
                     base + sum_off +
                         Layout::transitDelay(vxm, q.addr[c].pos()),
                     true});
            }
            base = place(base, "globalAvgPool");

            // Zero-quad seed arrives when the first add needs it.
            for (int c = 0; c < 4; ++c) {
                kb().readArriving(en.zeroQuad.addr[c], r.stage2(c),
                                  vxm, base + 2);
            }
            for (int i = 0; i < n; ++i) {
                const auto [y, x] = elem(i);
                const GlobalAddr a = it.addrOf(e, y, x, kg);
                const StreamRef in_s{16, dirToVxm(a)};
                const Cycle s = base + static_cast<Cycle>(i);
                kb().readArriving(a, in_s, vxm, s);
                kb().vxmConvert(en.aluBase + 0, DType::Int8,
                                DType::Int32, in_s, r.stage1(0), s);
                kb().vxmBinary(en.aluBase + 1, Opcode::AddSat,
                               DType::Int32, r.stage1(0), r.stage2(0),
                               r.stage2(0), s + 2);
            }

            // Write the partial quad.
            const Cycle sum_vis = base + sum_off;
            Cycle commit = 0;
            for (int c = 0; c < 4; ++c) {
                const Cycle wi =
                    sum_vis +
                    Layout::transitDelay(vxm, q.addr[c].pos());
                kb().write(q.addr[c], r.stage2(c), wi);
                commit = std::max(commit, wi + 1);
            }
            partial[e].push_back(q);
            partial_ready[e].push_back(commit);
            slot = sum_vis + 3;
        }
        setGlobalChain(slot);
    }

    // Combine + requantize on the west engine.
    Engine &en = engine(0);
    const StreamRoles &r = en.roles;
    ConstQuad sq = allocConstQuad(build_->alloc, en.hem, kScaleFirst);
    image_.addFp32Quad(sq.addr, scalev.data(), kLanes);

    for (int kg = 0; kg < it.kgCount; ++kg) {
        const std::size_t k = static_cast<std::size_t>(kg);
        const bool have_east = k < partial[1].size();
        const ConstQuad &qa = partial[0][k];
        const ConstQuad &qb = have_east ? partial[1][k] : en.zeroQuad;
        // Partial quads live wherever their producing engine could
        // write them; the reads must flow toward the VXM from there.
        const Direction da = dirToVxm(qa.addr[0]);
        const Direction db = dirToVxm(qb.addr[0]);
        // Every quad component has its own transit; the arrival time
        // must clear the slowest one after its commit.
        Cycle t = globalChainGate();
        for (int c = 0; c < 4; ++c) {
            t = std::max(t, partial_ready[0][k] +
                                kb().readLead(qa.addr[c], vxm));
            if (have_east) {
                t = std::max(t, partial_ready[1][k] +
                                    kb().readLead(qb.addr[c], vxm));
            }
        }
        const OutElem o = outElem(out.t, 0, 0, 0, kg);
        std::vector<Access> &batch = newBatch();
        for (int c = 0; c < 4; ++c) {
            batch.push_back(
                {qa.addr[c], t - kb().readLead(qa.addr[c], vxm), false});
            batch.push_back(
                {qb.addr[c], t - kb().readLead(qb.addr[c], vxm), false});
            batch.push_back(
                {sq.addr[c], t + 3 - kb().readLead(sq.addr[c], vxm),
                 false});
        }
        reserveOut(o, t + 8, batch);
        t = place(t, "globalAvgPool combine");

        for (int c = 0; c < 4; ++c) {
            kb().readArriving(qa.addr[c],
                              StreamRef{static_cast<StreamId>(8 + c), da},
                              vxm, t);
            kb().readArriving(qb.addr[c],
                              StreamRef{static_cast<StreamId>(12 + c), db},
                              vxm, t);
        }
        kb().vxmBinary(en.aluBase + 0, Opcode::AddSat, DType::Int32,
                       StreamRef{8, da}, StreamRef{12, db},
                       r.stage3(0), t);
        // stage3 int32 -> fp32 -> x scale -> int8.
        kb().vxmConvert(en.aluBase + 1, DType::Int32, DType::Fp32,
                        r.stage3(0), r.stage1(0), t + 1);
        for (int c = 0; c < 4; ++c)
            kb().readArriving(sq.addr[c], r.scale(c), vxm, t + 3);
        kb().vxmBinary(en.aluBase + 2, Opcode::Mul, DType::Fp32,
                       r.stage1(0), r.scale(0), r.stage2(0), t + 3);
        kb().vxmConvert(en.aluBase + 3, DType::Fp32, DType::Int8,
                        r.stage2(0), r.stageInt8(), t + 5);
        kb().vxmBinary(en.aluBase + 4, Opcode::Max, DType::Int8,
                       r.stageInt8(), r.stageInt8(), r.finalOwn(),
                       t + 7);
        // A 1 x 1 tensor has no halo: only the primary row is written.
        writeOut(0, o, t + 8, en.aluBase + 5, out);
        setGlobalChain(t + 8);
    }
    recordLayer("gap", layer_begin);
    return out;
}

} // namespace tsp
