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
 * Implementation: each (direction, stream) pair owns a ring buffer
 * over the 95 stream-register positions. Advancing the clock is O(1)
 * index arithmetic plus invalidation of the slot that wrapped past the
 * chip edge; no vector data is copied as it "flows". Writes scheduled
 * for future cycles live in a calendar ring indexed by cycle (every
 * producer delay is a small architectural constant) with a min-heap of
 * distinct pending cycles answering earliestPendingCycle() in O(1) —
 * the hook the event-driven chip core uses to fast-forward, via
 * advanceBy(), over spans where nothing dispatches.
 */

#ifndef TSP_STREAM_FABRIC_HH
#define TSP_STREAM_FABRIC_HH

#include <cstdint>
#include <functional>
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

    /**
     * @return the vector visible on stream @p s at position @p pos in
     * the current cycle, or nullptr if no valid value is flowing
     * there.
     */
    const Vec320 *peek(StreamRef s, SlicePos pos) const;

    /**
     * Like peek(), additionally reporting the entry's provenance tag
     * (kTapeUntagged for entries written outside any StreamIo) so a
     * recording consume can cite the produce it sampled.
     */
    const Vec320 *peek(StreamRef s, SlicePos pos,
                       std::uint32_t *tag) const;

    /**
     * Makes @p vec visible on stream @p s at position @p pos starting
     * at cycle @p when (>= now), overwriting whatever would flow
     * through that register. This is how producers with functional
     * delay d_func deposit results: when = dispatch + d_func.
     * @p tag is the recording provenance carried by the entry.
     */
    void scheduleWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                       Cycle when, const char *writer = "?",
                       std::uint32_t tag = kTapeUntagged);

    /** Immediate write visible in the current cycle. */
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
     * ring-slot index — slotOf() depends only on cycle_ % positions,
     * which the restored clock reproduces), all scheduled-but-
     * unapplied writes (calendar ring, flattened), and the hop/write
     * totals. Fault/tape hooks are wiring, not state.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores fabric state; pending writes are re-scheduled. Marks
     * @p r failed on a payload no saved fabric produces: a ring slot,
     * stream id or position out of range, or a pending write outside
     * (now, now + horizon).
     */
    void loadState(SnapshotReader &r);

  private:
    struct Entry
    {
        Vec320 vec;
        bool valid = false;
        Cycle writtenAt = ~Cycle{0}; ///< Cycle of the last write.
        const char *writer = "?";    ///< Debug: who wrote it.
        std::uint32_t tag = kTapeUntagged; ///< Recording provenance.
    };

    /**
     * Ring of entries for one (direction, stream id). The slots are
     * allocated on the ring's first write: most programs use a few
     * of the 64 streams, and a chip is built on every engine rebuild.
     * A ring without slots holds no value (validInRing == 0).
     */
    struct Ring
    {
        std::vector<Entry> slots;
        int validInRing = 0;
    };

    /** One write waiting for its visibility cycle. */
    struct PendingWrite
    {
        StreamRef s{};
        SlicePos pos = 0;
        Vec320 vec{};
        const char *writer = "?";
        std::uint32_t tag = kTapeUntagged;
    };

    /** One calendar slot: all writes landing in the same cycle. */
    struct PendingBatch
    {
        Cycle when = 0;
        std::vector<PendingWrite> writes; ///< Capacity is reused.
    };

    static constexpr int kNumRings = 2 * kStreamsPerDir;
    static constexpr int kPositions = Layout::numPositions;

    /**
     * Calendar depth. Producer delays are architectural constants
     * (the largest stream producer's is ACC's 21 cycles), so every
     * in-flight write lands well inside this horizon; scheduleWrite
     * asserts it.
     */
    static constexpr Cycle kPendingHorizon = 128;

    static int
    ringIndex(StreamRef s)
    {
        return (s.dir == Direction::West ? kStreamsPerDir : 0) + s.id;
    }

    /** Ring slot holding (pos) at the current cycle. */
    int
    slotOf(Direction dir, SlicePos pos) const
    {
        const long t = static_cast<long>(cycle_ % kPositions);
        long idx;
        if (dir == Direction::East)
            idx = (pos - t) % kPositions;
        else
            idx = (pos + t) % kPositions;
        if (idx < 0)
            idx += kPositions;
        return static_cast<int>(idx);
    }

    void applyWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                    const char *writer, std::uint32_t tag);

    /** Applies (and empties) the batch scheduled for @p cycle_. */
    void applyPendingNow();

    std::vector<Ring> rings_;
    Cycle cycle_ = 0;

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
