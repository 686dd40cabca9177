/**
 * @file
 * The chip-wide streaming register file.
 *
 * Streams are the TSP's only inter-slice communication mechanism: 32
 * eastward and 32 westward logical streams whose values advance one
 * stream-register hop per core clock (paper II.A, V.c). There is no
 * routing, arbitration, or flow control — a value simply propagates in
 * its direction of flow until it falls off the edge of the chip or a
 * functional slice overwrites it.
 *
 * Implementation: the fabric keeps one store of values, a pool of
 * 64-byte-aligned Vec320 slots allocated a chunk at a time at stable
 * addresses. It starts empty, so a chip built for an engine rebuild
 * allocates nothing until its first produce. Each (direction,
 * stream) pair owns a ring over the 95 stream-register positions
 * whose entries hold a slot index; advancing the clock is O(1) index
 * arithmetic plus invalidation of the entry that wrapped past the
 * chip edge, so no vector data is copied as it "flows" (a value
 * moves by hops, paper II.A). A producer builds its value straight
 * in a slot it takes from the pool (StreamIo::produceInPlace()), a
 * scheduled write carries that index until it lands, and a consumer
 * reads the slot in place. A slot goes back to the pool when
 * advance(), advanceBy() or clear() drops or overwrites the entry
 * that holds it, so the slots in use are always validEntries() +
 * pendingWrites(). Writes scheduled for future cycles live in a
 * calendar ring indexed by cycle (every producer delay is a small
 * architectural constant) with a min-heap of distinct pending cycles
 * answering earliestPendingCycle() in O(1) — the hook the
 * event-driven chip core uses to fast-forward, via advanceBy(), over
 * spans where nothing dispatches.
 */

#ifndef TSP_STREAM_FABRIC_HH
#define TSP_STREAM_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "arch/layout.hh"
#include "arch/types.hh"
#include "common/snapshot_io.hh"
#include "isa/instruction.hh"
#include "stream/trace_tape.hh"

namespace tsp {

class FaultInjector;
class MachineCheckSink;

/** The streaming register file spanning all superlanes. */
class StreamFabric
{
  public:
    StreamFabric();

    /** @return the current cycle. */
    Cycle now() const { return cycle_; }

    /**
     * Attaches the chip's fault injector and machine-check sink. The
     * fabric itself never dereferences them; it is the distribution
     * point every StreamIo consults, so consume-path injection and
     * machine-check raising need no per-unit plumbing.
     */
    void
    attachFaultHooks(FaultInjector *faults, MachineCheckSink *mc)
    {
        faults_ = faults;
        mc_ = mc;
    }

    /** @return the attached fault injector, or nullptr. */
    FaultInjector *faultInjector() const { return faults_; }

    /** @return the attached machine-check sink, or nullptr. */
    MachineCheckSink *machineCheckSink() const { return mc_; }

    /**
     * Attaches the trace-replay tape hooks (at most one of the two
     * non-null; see trace_tape.hh). Like the fault hooks, the fabric
     * never dereferences them — StreamIo consults them per call.
     */
    void
    attachTapeHooks(TapeRecorder *rec, TapeReplayer *rep)
    {
        tapeRec_ = rec;
        tapeRep_ = rep;
    }

    /** @return the attached tape recorder, or nullptr. */
    TapeRecorder *tapeRecorder() const { return tapeRec_; }

    /** @return the attached tape replayer, or nullptr. */
    TapeReplayer *tapeReplayer() const { return tapeRep_; }

    /**
     * Advances one core clock: values move one hop in their direction
     * of flow, edge values fall off the chip, and writes scheduled for
     * the new cycle become visible.
     */
    void advance();

    /**
     * Bulk-advances @p n cycles in one jump. Equivalent to calling
     * advance() @p n times provided no write is pending strictly
     * inside the span (asserted): hop accounting and edge fall-off
     * are computed arithmetically per ring, and writes scheduled for
     * the arrival cycle are applied on arrival. totalHops() and all
     * validity state end bit-identical to the per-cycle path.
     */
    void advanceBy(Cycle n);

    /**
     * @return the cycle of the earliest scheduled-but-unapplied write,
     * or kNoEventCycle when none is pending.
     */
    Cycle earliestPendingCycle() const;

    /** Index of a value slot in the fabric's pool. */
    using SlotId = std::uint32_t;

    /** What a consume samples at one stream register. */
    struct Sample
    {
        /** The register's value, or nullptr if nothing is flowing. */
        const Vec320 *vec = nullptr;

        /**
         * The entry's recording provenance (kTapeUntagged for entries
         * written outside any StreamIo), so a recording consume can
         * cite the produce it sampled.
         */
        std::uint32_t tag = kTapeUntagged;

        /**
         * True when StreamIo::publish() computed the value's codes
         * from these very bytes. Nothing writes a slot while it is
         * held by an entry or a pending write, so such a value's
         * codes match its bytes.
         */
        bool encoded = false;
    };

    /**
     * @return the vector visible on stream @p s at position @p pos in
     * the current cycle, or nullptr if no valid value is flowing
     * there.
     */
    const Vec320 *
    peek(StreamRef s, SlicePos pos) const
    {
        return sample(s, pos).vec;
    }

    /**
     * peek() with the entry's provenance tag and publish flag. The
     * pointer stays valid, and the value unchanged, until the fabric
     * next advances or an immediate write (when == now()) lands on
     * the same register.
     */
    Sample sample(StreamRef s, SlicePos pos) const;

    /**
     * Takes a free slot from the pool (growing it by a chunk when
     * none is free). The caller builds a value there and hands the
     * slot back with scheduleSlot(); until then no entry or pending
     * write holds it, so it never aliases a value being consumed.
     */
    SlotId acquireSlot();

    /** @return the value slot @p id (a stable address). */
    Vec320 &
    slot(SlotId id)
    {
        return chunks_[id / kChunkSlots][id % kChunkSlots].vec;
    }

    /** @return the value slot @p id (a stable address). */
    const Vec320 &
    slot(SlotId id) const
    {
        return chunks_[id / kChunkSlots][id % kChunkSlots].vec;
    }

    /**
     * Makes the value in slot @p id (from acquireSlot()) visible on
     * stream @p s at position @p pos starting at cycle @p when (>=
     * now), overwriting whatever would flow through that register.
     * This is how producers with functional delay d_func deposit
     * results: when = dispatch + d_func. Every producer's delay is at
     * least 1, so no register changes within the cycle a unit runs
     * in. @p tag is the recording provenance carried by the entry,
     * and @p encoded says whether StreamIo::publish() computed the
     * value's codes from its bytes (see Sample). The fabric owns the
     * slot from here on.
     */
    void scheduleSlot(StreamRef s, SlicePos pos, SlotId id, Cycle when,
                      const char *writer, std::uint32_t tag,
                      bool encoded);

    /**
     * Raw write: copies @p vec, codes as given, into a fresh slot and
     * schedules it (untagged, not publish-encoded), as scheduleSlot().
     */
    void scheduleWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                       Cycle when);

    /** Immediate raw write visible in the current cycle. */
    void
    write(StreamRef s, SlicePos pos, const Vec320 &vec)
    {
        scheduleWrite(s, pos, vec, cycle_);
    }

    /** Invalidates every entry of every stream (between programs). */
    void clear();

    /** @return number of valid vectors currently flowing chip-wide. */
    std::uint64_t validEntries() const { return validCount_; }

    /** @return cumulative vector-hops since construction (power). */
    std::uint64_t totalHops() const { return totalHops_; }

    /** @return count of scheduled writes applied so far. */
    std::uint64_t totalWrites() const { return totalWrites_; }

    /** @return scheduled-but-unapplied write count (tests/replay). */
    std::size_t pendingWrites() const { return pendingCount_; }

    /**
     * @return pool slots holding a value: validEntries() +
     * pendingWrites() outside a produce (tests).
     */
    std::size_t
    slotsInUse() const
    {
        return chunks_.size() * kChunkSlots - free_.size();
    }

    /**
     * Replay-tier clock jump: moves now() to @p target (>= now)
     * without flowing anything. Legal only while a TapeReplayer is
     * attached — no values are in flight (produces go to the tape,
     * so validEntries() stays 0) and hop/write totals are credited
     * wholesale from the recording via replayCredit().
     */
    void replayJumpTo(Cycle target);

    /** Credits the recorded run's hop/write totals (replay tier). */
    void
    replayCredit(std::uint64_t hops, std::uint64_t writes)
    {
        totalHops_ += hops;
        totalWrites_ += writes;
    }

    /**
     * Serializes the clock, every valid stream-register entry (by raw
     * ring-entry index — entryOf() depends only on cycle_ % positions,
     * which the restored clock reproduces), all scheduled-but-
     * unapplied writes (calendar ring, flattened), and the hop/write
     * totals. Fault/tape hooks are wiring, not state.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores fabric state; pending writes are re-scheduled. Restored
     * values are never marked publish-encoded (their codes are
     * whatever the blob holds), so their consumes compare them. Marks
     * @p r failed on a payload no saved fabric produces: a ring entry,
     * stream id or position out of range, or a pending write outside
     * (now, now + horizon).
     */
    void loadState(SnapshotReader &r);

  private:
    /** No slot: the entry holds no value. */
    static constexpr SlotId kNoSlot = ~SlotId{0};

    struct Entry
    {
        SlotId slot = kNoSlot;       ///< The value; kNoSlot if none.
        bool encoded = false;        ///< See Sample::encoded.
        Cycle writtenAt = ~Cycle{0}; ///< Cycle of the last write.
        const char *writer = "?";    ///< Debug: who wrote it.
        std::uint32_t tag = kTapeUntagged; ///< Recording provenance.
    };

    /**
     * Ring of entries for one (direction, stream id). The entries are
     * allocated on the ring's first write: most programs use a few
     * of the 64 streams, and a chip is built on every engine rebuild.
     * A ring without entries holds no value (validInRing == 0).
     */
    struct Ring
    {
        std::vector<Entry> entries;
        int validInRing = 0;
    };

    /** One write waiting for its visibility cycle. */
    struct PendingWrite
    {
        StreamRef s{};
        SlicePos pos = 0;
        SlotId slot = kNoSlot;
        bool encoded = false;
        const char *writer = "?";
        std::uint32_t tag = kTapeUntagged;
    };

    /** One calendar slot: all writes landing in the same cycle. */
    struct PendingBatch
    {
        Cycle when = 0;
        std::vector<PendingWrite> writes; ///< Capacity is reused.
    };

    /** A pool slot, one cache line aligned. */
    struct alignas(64) PoolSlot
    {
        Vec320 vec;
    };

    /** Pool slots allocated at a time. */
    static constexpr SlotId kChunkSlots = 64;

    static constexpr int kNumRings = 2 * kStreamsPerDir;
    static constexpr int kPositions = Layout::numPositions;

    /**
     * Calendar depth. Producer delays are architectural constants
     * (the largest stream producer's is ACC's 21 cycles), so every
     * in-flight write lands well inside this horizon; scheduleSlot
     * asserts it.
     */
    static constexpr Cycle kPendingHorizon = 128;

    static int
    ringIndex(StreamRef s)
    {
        return (s.dir == Direction::West ? kStreamsPerDir : 0) + s.id;
    }

    /** Ring entry holding (pos) at the current cycle. */
    int
    entryOf(Direction dir, SlicePos pos) const
    {
        int idx = dir == Direction::East ? pos - phase_ : pos + phase_;
        if (idx < 0)
            idx += kPositions;
        else if (idx >= kPositions)
            idx -= kPositions;
        return idx;
    }

    /** Sets the clock and its ring phase. */
    void
    setClock(Cycle c)
    {
        cycle_ = c;
        phase_ = static_cast<int>(c % kPositions);
    }

    /** Returns slot @p id to the pool. */
    void releaseSlot(SlotId id) { free_.push_back(id); }

    /** Drops the value of @p e, a valid entry of @p ring. */
    void
    dropEntry(Ring &ring, Entry &e)
    {
        releaseSlot(e.slot);
        e.slot = kNoSlot;
        --ring.validInRing;
        --validCount_;
    }

    void applyWrite(const PendingWrite &w);

    /** Applies (and empties) the batch scheduled for @p cycle_. */
    void applyPendingNow();

    std::vector<Ring> rings_;
    Cycle cycle_ = 0;
    int phase_ = 0; ///< cycle_ % kPositions: entryOf() needs no division.

    /**
     * The value pool: chunks never move, so a slot's address is
     * stable for as long as the fabric lives. free_ is a stack of
     * the free slot indices (the most recently freed, still warm in
     * cache, is reused first).
     */
    std::vector<std::unique_ptr<PoolSlot[]>> chunks_;
    std::vector<SlotId> free_;

    /**
     * Calendar ring of pending batches indexed by when % horizon,
     * valid when non-empty and batch.when matches. pendingCycles_
     * holds each distinct pending cycle once (pushed when its batch
     * first becomes non-empty), so the earliest key is O(1) away.
     */
    std::vector<PendingBatch> pendingRing_;
    std::priority_queue<Cycle, std::vector<Cycle>,
                        std::greater<Cycle>>
        pendingCycles_;
    std::size_t pendingCount_ = 0;

    FaultInjector *faults_ = nullptr;
    MachineCheckSink *mc_ = nullptr;
    TapeRecorder *tapeRec_ = nullptr;
    TapeReplayer *tapeRep_ = nullptr;

    std::uint64_t validCount_ = 0;
    std::uint64_t totalHops_ = 0;
    std::uint64_t totalWrites_ = 0;
};

} // namespace tsp

#endif // TSP_STREAM_FABRIC_HH
