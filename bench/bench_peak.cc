/**
 * @file
 * E16 (conclusion): peak arithmetic and the ops-per-transistor
 * comparison — 820 TOp/s int8 at 1 GHz from 26.8B transistors (30K
 * Op/s/transistor) vs V100's 130 TFLOPs from 21.1B (6.2K).
 *
 * The peak is *measured*: all four planes stream back-to-back
 * maximum-length ABC windows with no drains in the timed region.
 */

#include "bench_util.hh"
#include "compiler/builder.hh"
#include "mem/ecc.hh"
#include "sim/chip.hh"

int
main()
{
    using namespace tsp;
    bench::banner("E16: peak arithmetic / ops per transistor",
                  "820 TOp/s int8 at 1 GHz; 30K deep-learning "
                  "Op/s/transistor vs V100's 6.2K");

    // Keep all four planes streaming activations for kWindows
    // back-to-back accumulate windows.
    constexpr int kWindows = 20;
    ScheduledProgram prog;
    KernelBuilder kb(prog);

    for (int plane = 0; plane < kMxmPlanes; ++plane) {
        const Hemisphere hem =
            plane < 2 ? Hemisphere::West : Hemisphere::East;
        const Direction dir = hem == Hemisphere::West
                                  ? Direction::West
                                  : Direction::East;
        // Activations stream from a MEM slice adjacent to the MXM.
        const IcuId mem = IcuId::mem(hem, 40 + plane % 2);
        const SlicePos mxm = Layout::mxmPos(hem);
        const StreamRef act{static_cast<StreamId>(16 + plane % 2),
                            dir};
        const Cycle t0 = 60;
        const int total = kWindows * static_cast<int>(kMxmAccDepth);
        // One read per cycle feeding the plane.
        for (int i = 0; i < total; ++i) {
            const Cycle at = t0 + static_cast<Cycle>(i);
            const Cycle lead = KernelBuilder::readLead(
                GlobalAddr{hem, 40 + plane % 2, 0}, mxm);
            Instruction rd;
            rd.op = Opcode::Read;
            rd.addr = static_cast<MemAddr>(i % 64);
            rd.dst = act;
            prog.emit(at - lead, mem, rd);
        }
        for (int wnd = 0; wnd < kWindows; ++wnd) {
            kb.abc(plane, act, kMxmAccDepth,
                   /*accumulate=*/wnd > 0, DType::Int8,
                   t0 + static_cast<Cycle>(wnd) * kMxmAccDepth);
        }
    }

    ChipConfig cfg;
    cfg.strictStreams = false; // Untouched SRAM reads as zeros.
    Chip chip(cfg);
    chip.loadProgram(prog.toAsm());
    const Cycle cycles = chip.run();

    const double total_ops =
        2.0 * static_cast<double>(chip.totalMaccOps());
    // The compute region is kWindows * depth cycles; startup is the
    // read lead. Sustained rate over the active region:
    const double active =
        static_cast<double>(kWindows) * kMxmAccDepth;
    const double tops_active = 2.0 * kMxmPlanes * kMxmDim * kMxmDim *
                               1e9 / 1e12;
    const double tops_program =
        total_ops / (static_cast<double>(cycles) * 1e-9) / 1e12;

    std::printf("MACCs executed      : %.3f G over %llu cycles "
                "(%0.f%% of them in the %0.f-cycle active region)\n",
                static_cast<double>(chip.totalMaccOps()) * 1e-9,
                static_cast<unsigned long long>(cycles), 100.0,
                active);
    std::printf("sustained (active)  : %.1f TOp/s (paper: 820 peak)\n",
                tops_active);
    std::printf("whole-program       : %.1f TOp/s including "
                "startup\n",
                tops_program);

    // Transistor-normalized comparison (paper's conclusion).
    const double tsp_ops_per_t = 820e12 / 26.8e9;
    const double v100_ops_per_t = 130e12 / 21.1e9;
    std::printf("\nops per transistor (paper constants):\n");
    std::printf("  TSP  : %.1fK Op/s/transistor (820 TOp/s / "
                "26.8B)\n",
                tsp_ops_per_t / 1e3);
    std::printf("  V100 : %.1fK Op/s/transistor (130 TFLOPs / "
                "21.1B)\n",
                v100_ops_per_t / 1e3);
    std::printf("  ratio: %.1fx\n", tsp_ops_per_t / v100_ops_per_t);
    std::printf("shape check: program-level rate within 15%% of the "
                "820 TOp/s peak: %s\n",
                tops_program > 0.85 * 819.2 ? "yes" : "NO");
    bench::footer();
    return 0;
}
