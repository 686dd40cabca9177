/**
 * @file
 * Producer/consumer facade over the stream fabric.
 *
 * Every functional slice consumes operands and produces results
 * through this helper, which implements the paper's producer-side ECC
 * generation and consumer-side ECC check (II.D), the strict-schedule
 * check (a missing operand is a compiler bug), and the CSR counters an
 * error handler would interrogate.
 *
 * It is also the only unit-facing code that knows the execution tier.
 * Units read operands where consumeRef()/consumeRun() return them and
 * build results where produceInPlace() points, so no value is copied
 * between a producer and its consumers on either tier:
 *  - stepped, the destinations are fresh fabric slots (stream/
 *    fabric.hh) that the fabric then flows by index, and a consume
 *    returns the register's slot itself when its codes hold: when
 *    publish() computed them from these bytes, or when a compare that
 *    writes nothing finds them equal. Only a mismatch copies into the
 *    caller's scratch, where the check corrects it, so the register
 *    keeps the flip. With a fault injector attached every consume
 *    copies, injects and checks, so the RNG draws one per consume;
 *  - while a trace replays (sim/exec_trace.hh), the same calls
 *    exchange pointers into the tape arena instead of flowing
 *    registers, and skip the ECC code work no replay consumer
 *    observes.
 */

#ifndef TSP_STREAM_STREAM_IO_HH
#define TSP_STREAM_STREAM_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "arch/config.hh"
#include "common/snapshot_io.hh"
#include "stream/fabric.hh"

namespace tsp {

/** Per-slice stream access point with ECC and CSR counters. */
class StreamIo
{
  public:
    /**
     * @param cfg chip configuration (ECC / strictness knobs).
     * @param fabric the shared stream register file.
     * @param owner printable slice name for diagnostics.
     */
    StreamIo(const ChipConfig &cfg, StreamFabric &fabric,
             std::string owner);

    /**
     * Samples stream @p s at position @p pos in the current cycle.
     *
     * @return the operand: its tape slot while replaying; stepped,
     * the stream register's own slot when its codes hold and no
     * fault injector is attached, otherwise @p scratch after the
     * fault and ECC check/correct path filled it. If nothing is
     * flowing, panics under strictStreams, else counts a missed
     * operand and returns a zero vector. The pointer stays valid, and
     * the value unchanged, until the calling dispatch or MXM tick
     * ends, so long as @p scratch is not reused: a trace frees a
     * tape slot only when the event holding the value's last consume
     * ends (sim/exec_trace.hh), and a fabric slot returns to the pool
     * only when the fabric advances, so no produce of the same event,
     * in place or not, can take it. @p scratch needs no initial value
     * and may be the unit's own long-lived storage.
     */
    const Vec320 *consumeRef(StreamRef s, SlicePos pos,
                             Vec320 &scratch);

    /**
     * consumeRef() over the @p n consecutive streams base.id + i,
     * filling @p outs[i]. While replaying this is one batched tape
     * read; otherwise operand i is read as consumeRef() would, with
     * @p scratch[i] as its scratch.
     */
    void consumeRun(StreamRef base, SlicePos pos, Vec320 *scratch,
                    const Vec320 **outs, std::size_t n);

    /**
     * consumeRef() that tolerates an absent value even in strict mode
     * (an optional operand, like Ifetch's text pair).
     *
     * @return nullptr if nothing was flowing (not a missed operand).
     */
    const Vec320 *tryConsume(StreamRef s, SlicePos pos,
                             Vec320 &scratch);

    /**
     * Produces @p vec with its existing ECC untouched (C2C receives):
     * the code generated by the original producer travels with it, so
     * upsets in flight stay detectable downstream. Every other
     * producer builds its results in place (produceInPlace()).
     */
    void produceRaw(StreamRef s, SlicePos pos, const Vec320 &vec,
                    Cycle when);

    /**
     * Produces @p N results on the streams base.id + k at @p pos,
     * visible at @p when, built in place: @p build receives the N
     * destinations (Vec320 *const *) and must assign every data byte
     * of each. While replaying they are the values' tape slots, and
     * stepped they are fresh fabric slots; both are reused across
     * values, so nothing may be left over (lanes past the vector
     * length included). Stepped, the slots are then encoded — or,
     * with @p keep_codes, keep the codes @p build stored (MEM reads),
     * and are not marked publish-encoded — and scheduled in order. A
     * destination is never an operand this dispatch or tick
     * consumed, so @p build may read its operands while it writes
     * (see consumeRef()); on replay, values nothing consumes share
     * one slot, so destinations may alias each other and @p build
     * must not read them back.
     */
    template <std::size_t N, typename Build>
    void
    produceInPlace(StreamRef base, SlicePos pos, Cycle when,
                   bool keep_codes, Build &&build)
    {
        Vec320 *out[N];
        if (TapeReplayer *rep = fabric_.tapeReplayer()) {
            for (std::size_t k = 0; k < N; ++k)
                out[k] = rep->onProduce();
            build(out);
            produced_ += N;
            return;
        }
        StreamFabric::SlotId ids[N];
        for (std::size_t k = 0; k < N; ++k) {
            ids[k] = fabric_.acquireSlot();
            out[k] = &fabric_.slot(ids[k]);
        }
        build(out);
        for (std::size_t k = 0; k < N; ++k)
            publish(nth(base, k), pos, ids[k], when, !keep_codes);
    }

    /** CSR: single-bit errors corrected on consumed operands. */
    std::uint64_t correctedErrors() const { return corrected_; }

    /** CSR: uncorrectable errors observed on consumed operands. */
    std::uint64_t uncorrectableErrors() const { return uncorrectable_; }

    /** Operands sampled with nothing flowing (non-strict mode only). */
    std::uint64_t missedOperands() const { return missed_; }

    /** Vectors consumed. */
    std::uint64_t consumed() const { return consumed_; }

    /** Vectors produced. */
    std::uint64_t produced() const { return produced_; }

    /** Serializes the CSR counters (snapshot/restore). */
    void
    saveState(SnapshotWriter &w) const
    {
        w.u64(corrected_);
        w.u64(uncorrectable_);
        w.u64(missed_);
        w.u64(consumed_);
        w.u64(produced_);
    }

    /** Restores the CSR counters (snapshot/restore). */
    void
    loadState(SnapshotReader &r)
    {
        corrected_ = r.u64();
        uncorrectable_ = r.u64();
        missed_ = r.u64();
        consumed_ = r.u64();
        produced_ = r.u64();
    }

  private:
    /** @return stream @p base advanced by @p k ids. */
    static StreamRef
    nth(StreamRef base, std::size_t k)
    {
        base.id = static_cast<StreamId>(base.id + k);
        return base;
    }

    /**
     * A consume found nothing flowing on @p s: panics under
     * strictStreams (a scheduler bug), else counts the miss.
     * @return the zero vector the operand reads as (zero data carries
     * zero codes).
     */
    const Vec320 *missed(StreamRef s, SlicePos pos);

    /**
     * Hard failure of a replay consume of @p s at @p pos that found
     * values on the fabric. Replay keeps the fabric empty (produces go
     * to the tape), so a value there was written around the trace —
     * poked in from outside any StreamIo — and the tape, which
     * resolves consumes in trace order, would silently ignore it.
     * Callers gate it on validEntries() != 0 (one load), so the hot
     * path pays no call.
     */
    [[noreturn]] void replayFoundValues(StreamRef s, SlicePos pos) const;

    /**
     * Outside replay: encodes the value in fabric slot @p id when
     * @p encode and schedules the slot on the fabric, marked
     * publish-encoded when @p encode.
     */
    void publish(StreamRef s, SlicePos pos, StreamFabric::SlotId id,
                 Cycle when, bool encode);

    const ChipConfig &cfg_;
    StreamFabric &fabric_;
    std::string owner_;

    std::uint64_t corrected_ = 0;
    std::uint64_t uncorrectable_ = 0;
    std::uint64_t missed_ = 0;
    std::uint64_t consumed_ = 0;
    std::uint64_t produced_ = 0;
};

} // namespace tsp

#endif // TSP_STREAM_STREAM_IO_HH
