/**
 * @file
 * Deterministic fault injection and machine-check capture.
 *
 * The paper (II.D) makes the SECDED path a first-class feature:
 * producers generate the 9-bit code, every consumer checks it, and
 * the host learns about uncorrectable errors through CSRs. This file
 * supplies the two pieces the simulator needs to *exercise* that
 * machinery end to end:
 *
 *  - FaultInjector: seeded, reproducible bit flips in MEM SRAM
 *    words, consumed stream operands and check bits. Per-access
 *    rates draw from the RNG only when an access happens, so the
 *    upset history is a pure function of the (deterministic) access
 *    sequence — bit-identical under per-cycle stepping and the
 *    event-driven fast-forward core. Explicitly scheduled
 *    (cycle, site, bit) faults are surfaced as events so skipped
 *    spans can never jump over one.
 *
 *  - MachineCheckSink: chip-level first-error latch. Any consumer
 *    that observes an Uncorrectable status raises it with full
 *    context (cycle, reporting unit, access detail); the run loop
 *    halts the chip instead of letting corrupted data flow silently
 *    into results.
 */

#ifndef TSP_MEM_FAULT_HH
#define TSP_MEM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/types.hh"
#include "common/rng.hh"
#include "common/snapshot_io.hh"

namespace tsp {

class MemSlice;

/** Context captured for the first uncorrectable error on a chip. */
struct MachineCheckInfo
{
    /** Cycle the error was detected (the consuming access's cycle). */
    Cycle cycle = 0;

    /** Reporting unit, e.g. "MEM_W3", "VXM", "MXM0". */
    std::string unit;

    /** Access description, e.g. "stream s12.e at pos 40". */
    std::string detail;
};

/**
 * Chip-level machine-check latch. The first raise() captures full
 * context; later raises only count (first-error semantics, like a
 * hardware MCA bank). A raised sink condemns the chip: the run loop
 * halts, and only a rebuilt chip clears the latch.
 */
class MachineCheckSink
{
  public:
    /** Records an uncorrectable error observed by @p unit. */
    void raise(Cycle cycle, const std::string &unit,
               std::string detail);

    /** @return true once any uncorrectable error was raised. */
    bool raised() const { return raises_ > 0; }

    /** @return total uncorrectable errors raised. */
    std::uint64_t raises() const { return raises_; }

    /** @return first-error context (valid when raised()). */
    const MachineCheckInfo &info() const { return info_; }

    /** Serializes the latch (snapshot/restore). */
    void
    saveState(SnapshotWriter &w) const
    {
        w.u64(raises_);
        w.u64(info_.cycle);
        w.str(info_.unit);
        w.str(info_.detail);
    }

    /** Restores the latch (snapshot/restore). */
    void
    loadState(SnapshotReader &r)
    {
        raises_ = r.u64();
        info_.cycle = r.u64();
        info_.unit = r.str();
        info_.detail = r.str();
    }

  private:
    std::uint64_t raises_ = 0;
    MachineCheckInfo info_{};
};

/**
 * Seeded fault injector owned by one chip. Not thread-safe; each
 * simulated chip owns its own instance (the serving layer gives every
 * worker its own chip, so worker pools stay data-race-free).
 */
class FaultInjector
{
  public:
    /** @param cfg validated fault configuration (copied; events are
     *  sorted by cycle internally). */
    explicit FaultInjector(const FaultConfig &cfg);

    /** @return true when any injection source is configured. */
    bool enabled() const { return cfg_.enabled(); }

    /** Read-path upset: maybe flip bits in the read-out vector. */
    void
    onMemRead(Vec320 &vec)
    {
        maybeStrike(vec, cfg_.memReadRate, memFlips_);
    }

    /** Write-path upset, ahead of the consumer-side ECC check. */
    void
    onMemWrite(Vec320 &vec)
    {
        maybeStrike(vec, cfg_.memWriteRate, memFlips_);
    }

    /** Stream-hop upset on an operand being consumed. */
    void
    onStreamConsume(Vec320 &vec)
    {
        maybeStrike(vec, cfg_.streamRate, streamFlips_);
    }

    /**
     * Link-flight upset on a vector landing in C2C link @p link's
     * elastic buffer (receiver side, before the downstream
     * consumer's ECC check sees it). Each link draws from a
     * dedicated RNG stream so the strike history depends only on
     * that link's arrival order — never on how chip execution is
     * interleaved by the pod scheduler.
     */
    void onC2cDeliver(Vec320 &vec, int link);

    /** @return true when scheduled events remain unapplied. */
    bool hasScheduled() const { return nextEvent_ < events_.size(); }

    /**
     * @return the cycle of the next unapplied scheduled fault, or
     * kNoEventCycle when the list is exhausted. The chip folds this
     * into nextEventCycle() so fast-forward lands on fault cycles.
     */
    Cycle nextScheduledCycle() const;

    /**
     * Applies every scheduled fault with cycle <= @p now to the
     * chip's MEM slices (persistent SRAM upsets). Called once at the
     * top of each stepped cycle.
     */
    void applyScheduled(Cycle now, std::vector<MemSlice> &slices);

    /** @return bits flipped on MEM read/write paths. */
    std::uint64_t memFlips() const { return memFlips_; }

    /** @return bits flipped on stream consume paths. */
    std::uint64_t streamFlips() const { return streamFlips_; }

    /** @return bits flipped on vectors in C2C link flight. */
    std::uint64_t c2cFlips() const { return c2cFlips_; }

    /** @return scheduled SRAM bits flipped so far. */
    std::uint64_t scheduledFlips() const { return scheduledFlips_; }

    /** @return the configured base seed. */
    std::uint64_t seed() const { return cfg_.seed; }

    /**
     * Serializes RNG streams, the scheduled-event cursor and the flip
     * counters. The fault *environment* (rates + events) is config,
     * verified by hash at the chip level, not serialized.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores injector state. With @p restore_rng the RNG streams
     * resume exactly where the snapshot left them (same-seed restore:
     * exact continuation, bit-identical to the uninterrupted run).
     * Without it the streams keep this injector's fresh seeding —
     * migration onto a rebuilt chip draws a new upset future instead
     * of deterministically replaying the strike that condemned the
     * source — while the event cursor and counters still restore so
     * already-applied scheduled faults never reapply. Marks @p r
     * failed unless link streams are saved for no link or for all.
     */
    void loadState(SnapshotReader &r, bool restore_rng);

  private:
    /** Draws the strike decision and flips 1 or 2 bits of one chunk. */
    void
    maybeStrike(Vec320 &vec, double rate, std::uint64_t &counter)
    {
        maybeStrikeWith(rng_, vec, rate, counter);
    }

    /** maybeStrike() drawing from an explicit RNG stream. */
    void maybeStrikeWith(Rng &rng, Vec320 &vec, double rate,
                         std::uint64_t &counter);

    /** Flips codeword bit @p bit (0..136) of chunk @p chunk. */
    static void flipCodewordBit(Vec320 &vec, int chunk, int bit);

    FaultConfig cfg_;
    Rng rng_;
    std::vector<Rng> linkRngs_; ///< One per C2C link (lazily built).
    std::vector<FaultEvent> events_; ///< Sorted by cycle.
    std::size_t nextEvent_ = 0;

    std::uint64_t memFlips_ = 0;
    std::uint64_t streamFlips_ = 0;
    std::uint64_t c2cFlips_ = 0;
    std::uint64_t scheduledFlips_ = 0;
};

} // namespace tsp

#endif // TSP_MEM_FAULT_HH
