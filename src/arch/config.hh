/**
 * @file
 * Runtime-tunable chip configuration.
 *
 * Geometry constants (lanes, slices, banks) are fixed by the
 * architecture and live in arch/types.hh and arch/layout.hh; this
 * struct carries the knobs that vary between experiments: clock
 * frequency, ECC enablement, active vector length (superlane power
 * gating), the execution tier, the power-model coefficients and
 * fault injection.
 */

#ifndef TSP_ARCH_CONFIG_HH
#define TSP_ARCH_CONFIG_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"

namespace tsp {

/**
 * One explicitly scheduled soft error: when the chip clock reaches
 * @p cycle, flip one bit of the stored SRAM word at (@p slice,
 * @p addr). The bit is addressed in SECDED-codeword space so check
 * bits are injectable too. Scheduled faults are *events* to the
 * event-driven core: fast-forward never jumps over one, so per-cycle
 * and fast-forwarded runs observe the identical upset history.
 */
struct FaultEvent
{
    /** Chip cycle at which the bit flips. */
    Cycle cycle = 0;

    /** Global MEM slice index: W0..43 are 0..43, E0..43 are 44..87. */
    int slice = 0;

    /** Word address within the slice. */
    MemAddr addr = 0;

    /** Superlane word (ECC chunk) 0..19 within the 320-byte word. */
    int chunk = 0;

    /** Codeword bit: 0..127 flip a data bit, 128..136 a check bit. */
    int bit = 0;
};

/**
 * Deterministic fault-injection configuration (paper II.D exercises:
 * SECDED covers SRAM soft errors and datapath upsets; this is how we
 * create them on demand). All randomness is drawn from one seeded
 * generator *per access*, never per cycle, so the upset sequence is a
 * pure function of the access sequence — identical under per-cycle
 * stepping and event-driven fast-forward.
 */
struct FaultConfig
{
    /** Seed for the per-chip fault RNG. */
    std::uint64_t seed = 0x5eedf001u;

    /** P(strike) per timed MEM read: transient read-path upset. */
    double memReadRate = 0.0;

    /** P(strike) per timed MEM write, before the consumer-side check. */
    double memWriteRate = 0.0;

    /** P(strike) per operand consumed at any slice's stream port. */
    double streamRate = 0.0;

    /**
     * P(strike) per 320-byte vector in C2C link flight, applied on
     * the receiver side as the vector lands in the link's elastic
     * buffer. Each link direction draws from its own RNG stream
     * (seeded from @ref seed and the link index), so the upset
     * history is a pure function of the per-link arrival sequence —
     * identical under lock-step pod stepping and the bounded
     * fast-forward pod scheduler, whatever order the chips are
     * advanced in.
     */
    double c2cRate = 0.0;

    /**
     * Fraction of strikes that flip two distinct bits of the same
     * 128+9-bit chunk — uncorrectable by construction, the trigger
     * for machine checks. The remainder flip a single (correctable)
     * bit anywhere in the chunk, check bits included.
     */
    double doubleBitFraction = 0.0;

    /** Explicit, reproducible (cycle, site, bit) fault list. */
    std::vector<FaultEvent> events;

    /** @return true when any per-access rate is positive. */
    bool
    haveRates() const
    {
        return memReadRate > 0.0 || memWriteRate > 0.0 ||
               streamRate > 0.0 || c2cRate > 0.0;
    }

    /** @return true when this config can inject anything at all. */
    bool enabled() const { return haveRates() || !events.empty(); }
};

/**
 * Per-operation energy coefficients in picojoules, used by the
 * activity-based power model (DESIGN.md substitution table: the paper
 * reports measured chip power; we reproduce the per-layer *shape* with
 * activity counting). Values are representative 14nm estimates.
 */
struct PowerParams
{
    /** Energy of one int8 MACC in the MXM. */
    double mxmMaccPj = 0.4;

    /** Energy of one 32-bit VXM ALU operation. */
    double vxmOpPj = 1.2;

    /** Energy of one byte moved one stream-register hop. */
    double streamHopPj = 0.06;

    /** Energy of one 16-byte SRAM word access (read or write). */
    double sramWordPj = 12.0;

    /** Energy of one byte switched through the SXM. */
    double sxmBytePj = 0.25;

    /** Energy of one instruction dispatch at an ICU. */
    double icuDispatchPj = 8.0;

    /** Static leakage + clock-tree power per active superlane, watts. */
    double superlaneStaticW = 1.5;

    /** Chip-wide uncore static power, watts. */
    double uncoreStaticW = 15.0;
};

/** Top-level simulator configuration. */
struct ChipConfig
{
    /** Core clock in Hz. The paper analyzes at 1 GHz (nominal 900 MHz). */
    double clockHz = 1.0e9;

    /**
     * Number of powered superlanes (1..20). Vector length is
     * 16 x activeSuperlanes; unused superlanes are clock-gated
     * (paper II.F, energy proportionality).
     */
    int activeSuperlanes = kSuperlanes;

    /** Generate/check SECDED codes on streams and SRAM. */
    bool eccEnabled = true;

    /**
     * Panic when an instruction samples a stream register with no
     * valid value flowing through it. The hardware would silently
     * consume garbage; a mis-scheduled intercept is always a compiler
     * bug, so the default is to fail loudly.
     */
    bool strictStreams = true;

    /**
     * Let run()/runBounded() fast-forward over provably idle spans
     * (the event-driven core). Results are bit-identical to per-cycle
     * stepping — same cycle counts, stats, memory and stream contents
     * — because the static schedule makes every idle span provable.
     * Disable to force the per-cycle reference stepper (differential
     * testing).
     */
    bool fastForwardEnabled = true;

    /** Power-model coefficients. */
    PowerParams power{};

    /**
     * Deterministic fault injection (off by default). With a rate or
     * an event list set, the chip flips bits in SRAM words, consumed
     * stream operands and check bits; every injected upset is either
     * corrected (single-bit) or raises a chip-level machine check
     * (double-bit), never silently consumed.
     */
    FaultConfig fault{};

    /** @return active vector length in bytes. */
    int
    vectorLength() const
    {
        return activeSuperlanes * kLanesPerSuperlane;
    }

    /** @return seconds per core clock cycle. */
    double
    cyclePeriodSec() const
    {
        return 1.0 / clockHz;
    }

    /** Validates ranges; calls fatal() on user error. */
    void validate() const;
};

} // namespace tsp

#endif // TSP_ARCH_CONFIG_HH
