#include "stream/fabric.hh"

#include "common/logging.hh"

namespace tsp {

StreamFabric::StreamFabric()
    : rings_(kNumRings),
      pendingRing_(static_cast<std::size_t>(kPendingHorizon))
{
}

StreamFabric::SlotId
StreamFabric::acquireSlot()
{
    if (free_.empty()) {
        const auto base = static_cast<SlotId>(chunks_.size() * kChunkSlots);
        chunks_.push_back(std::make_unique<PoolSlot[]>(kChunkSlots));
        // Highest index at the bottom: the chunk is handed out in
        // address order.
        for (SlotId i = kChunkSlots; i-- > 0;)
            free_.push_back(base + i);
    }
    const SlotId id = free_.back();
    free_.pop_back();
    return id;
}

void
StreamFabric::applyWrite(const PendingWrite &w)
{
    TSP_ASSERT(w.pos >= 0 && w.pos < kPositions);
    Ring &ring = rings_[static_cast<std::size_t>(ringIndex(w.s))];
    if (ring.entries.empty())
        ring.entries.resize(kPositions);
    Entry &e =
        ring.entries[static_cast<std::size_t>(entryOf(w.s.dir, w.pos))];
    if (e.slot == kNoSlot) {
        ++ring.validInRing;
        ++validCount_;
    } else if (e.writtenAt == cycle_) {
        panic("fabric: two producers on %s at pos %d in cycle %llu "
              "(%s then %s) (scheduler bug)",
              w.s.toString().c_str(), w.pos,
              static_cast<unsigned long long>(cycle_), e.writer,
              w.writer);
    } else {
        releaseSlot(e.slot); // The overwritten value.
    }
    e.slot = w.slot;
    e.encoded = w.encoded;
    e.writtenAt = cycle_;
    e.writer = w.writer;
    e.tag = w.tag;
    ++totalWrites_;
}

void
StreamFabric::scheduleSlot(StreamRef s, SlicePos pos, SlotId id,
                           Cycle when, const char *writer,
                           std::uint32_t tag, bool encoded)
{
    // Producer delays are architectural constants well inside the
    // calendar: a write beyond it is a simulator bug.
    TSP_ASSERT(when >= cycle_ && when - cycle_ < kPendingHorizon);
    const PendingWrite w{s, pos, id, encoded, writer, tag};
    if (when == cycle_) {
        applyWrite(w);
        return;
    }
    PendingBatch &b =
        pendingRing_[static_cast<std::size_t>(when % kPendingHorizon)];
    if (b.writes.empty()) {
        b.when = when;
        pendingCycles_.push(when);
    } else {
        TSP_ASSERT(b.when == when);
    }
    b.writes.push_back(w);
    ++pendingCount_;
}

void
StreamFabric::scheduleWrite(StreamRef s, SlicePos pos, const Vec320 &vec,
                            Cycle when)
{
    const SlotId id = acquireSlot();
    slot(id) = vec;
    scheduleSlot(s, pos, id, when, "?", kTapeUntagged,
                 /*encoded=*/false);
}

Cycle
StreamFabric::earliestPendingCycle() const
{
    return pendingCycles_.empty() ? kNoEventCycle : pendingCycles_.top();
}

StreamFabric::Sample
StreamFabric::sample(StreamRef s, SlicePos pos) const
{
    TSP_ASSERT(pos >= 0 && pos < kPositions);
    const Ring &ring = rings_[static_cast<std::size_t>(ringIndex(s))];
    if (ring.validInRing == 0)
        return {};
    const Entry &e =
        ring.entries[static_cast<std::size_t>(entryOf(s.dir, pos))];
    if (e.slot == kNoSlot)
        return {};
    return {&slot(e.slot), e.tag, e.encoded};
}

void
StreamFabric::replayJumpTo(Cycle target)
{
    TSP_ASSERT(target >= cycle_);
    // Replay keeps the registers empty: produces bypass the fabric
    // (they go to the tape), so there is nothing to flow or fall off.
    TSP_ASSERT(tapeRep_ != nullptr && validCount_ == 0 &&
               pendingWrites() == 0);
    setClock(target);
}

void
StreamFabric::applyPendingNow()
{
    if (!pendingCycles_.empty() && pendingCycles_.top() == cycle_) {
        pendingCycles_.pop();
        PendingBatch &b = pendingRing_[static_cast<std::size_t>(
            cycle_ % kPendingHorizon)];
        TSP_ASSERT(b.when == cycle_ && !b.writes.empty());
        for (const PendingWrite &w : b.writes)
            applyWrite(w);
        pendingCount_ -= b.writes.size();
        b.writes.clear(); // Capacity retained for reuse.
    }
    // Drain-order invariant: nothing pending at or before now.
    TSP_ASSERT(pendingCycles_.empty() ||
               pendingCycles_.top() > cycle_);
}

void
StreamFabric::advance()
{
    // Everything valid moves one hop (for power accounting).
    totalHops_ += validCount_;

    ++cycle_;
    if (++phase_ == kPositions)
        phase_ = 0;

    // The entry that wrapped around the edge no longer holds a live
    // value: for eastward streams the value past position N-1 falls
    // off the east edge (its entry becomes position 0); westward
    // values fall off the west edge (entry becomes position N-1).
    // Empty rings (all of them on an empty fabric) have nothing to
    // drop.
    const auto east_edge =
        static_cast<std::size_t>(entryOf(Direction::East, 0));
    const auto west_edge = static_cast<std::size_t>(
        entryOf(Direction::West, kPositions - 1));
    for (int r = 0; validCount_ > 0 && r < kNumRings; ++r) {
        Ring &ring = rings_[static_cast<std::size_t>(r)];
        if (ring.validInRing == 0)
            continue;
        Entry &e =
            ring.entries[r < kStreamsPerDir ? east_edge : west_edge];
        if (e.slot != kNoSlot)
            dropEntry(ring, e);
    }

    // Apply writes that become visible this cycle.
    applyPendingNow();
}

void
StreamFabric::advanceBy(Cycle n)
{
    if (n == 0)
        return;
    // Fast-forward legality: no write may become visible strictly
    // inside the span (it would flow from the wrong cycle).
    TSP_ASSERT(earliestPendingCycle() >= cycle_ + n);

    // Per ring, hop totals and edge fall-off in closed form: an
    // eastward value at position p contributes one hop per advance
    // until the advance that wraps it past position N-1 — exactly
    // N - p hops — and symmetrically p + 1 hops westward. Empty
    // rings (the common case in idle spans) cost nothing, and a
    // ring's walk ends at its last value.
    std::uint64_t hops = 0;
    for (int r = 0; r < kNumRings; ++r) {
        Ring &ring = rings_[static_cast<std::size_t>(r)];
        const bool east = r < kStreamsPerDir;
        for (int idx = 0, left = ring.validInRing; left > 0; ++idx) {
            Entry &e = ring.entries[static_cast<std::size_t>(idx)];
            if (e.slot == kNoSlot)
                continue;
            --left;
            // The position entry idx holds: entryOf() inverted.
            int pos = east ? idx + phase_ : idx - phase_;
            if (pos < 0)
                pos += kPositions;
            else if (pos >= kPositions)
                pos -= kPositions;
            const Cycle remaining = east
                                        ? static_cast<Cycle>(
                                              kPositions - pos)
                                        : static_cast<Cycle>(pos + 1);
            hops += remaining < n ? remaining : n;
            if (remaining <= n)
                dropEntry(ring, e);
        }
    }
    totalHops_ += hops;
    setClock(cycle_ + n);

    // Writes scheduled for the arrival cycle become visible now, in
    // the same edge-falloff-then-apply order as advance().
    applyPendingNow();
}

namespace {

void
putVec(SnapshotWriter &w, const Vec320 &v)
{
    w.bytes(v.bytes.data(), v.bytes.size());
    for (const auto e : v.ecc)
        w.u16(e);
}

void
getVec(SnapshotReader &r, Vec320 &v)
{
    r.bytes(v.bytes.data(), v.bytes.size());
    for (auto &e : v.ecc)
        e = r.u16();
}

} // namespace

void
StreamFabric::saveState(SnapshotWriter &w) const
{
    w.u64(cycle_);
    for (const auto &ring : rings_) {
        w.u32(static_cast<std::uint32_t>(ring.validInRing));
        for (std::size_t idx = 0; idx < ring.entries.size(); ++idx) {
            const Entry &e = ring.entries[idx];
            if (e.slot == kNoSlot)
                continue;
            w.u16(static_cast<std::uint16_t>(idx));
            w.u64(e.writtenAt);
            w.u32(e.tag);
            putVec(w, slot(e.slot));
        }
    }
    // All scheduled-but-unapplied writes, flattened with their
    // visibility cycle; loadState() re-inserts via scheduleSlot.
    w.u64(pendingCount_);
    for (const auto &b : pendingRing_) {
        for (const PendingWrite &pw : b.writes) {
            w.u64(b.when);
            w.u8(pw.s.id);
            w.u8(pw.s.dir == Direction::West ? 1 : 0);
            w.i32(pw.pos);
            w.u32(pw.tag);
            putVec(w, slot(pw.slot));
        }
    }
    w.u64(validCount_);
    w.u64(totalHops_);
    w.u64(totalWrites_);
}

void
StreamFabric::loadState(SnapshotReader &r)
{
    clear();
    setClock(r.u64());
    for (auto &ring : rings_) {
        const std::uint32_t n = r.u32();
        if (n > 0 && ring.entries.empty())
            ring.entries.resize(kPositions);
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
            const std::uint16_t idx = r.u16();
            if (idx >= kPositions || ring.entries[idx].slot != kNoSlot) {
                r.fail();
                return;
            }
            Entry &e = ring.entries[idx];
            e.slot = acquireSlot();
            e.encoded = false;
            e.writtenAt = r.u64();
            e.writer = "snapshot";
            e.tag = r.u32();
            getVec(r, slot(e.slot));
            ++ring.validInRing;
            ++validCount_;
        }
    }
    const std::uint64_t pending = r.u64();
    for (std::uint64_t i = 0; i < pending && r.ok(); ++i) {
        const Cycle when = r.u64();
        StreamRef s{};
        s.id = r.u8();
        s.dir = r.u8() ? Direction::West : Direction::East;
        const SlicePos pos = r.i32();
        const std::uint32_t tag = r.u32();
        const SlotId id = acquireSlot();
        getVec(r, slot(id));
        // Pending means strictly in the future (writes for the
        // restored cycle were applied before the snapshot was taken)
        // and inside the calendar.
        if (s.id >= kStreamsPerDir || pos < 0 || pos >= kPositions ||
            when <= cycle_ || when - cycle_ >= kPendingHorizon) {
            releaseSlot(id);
            r.fail();
            return;
        }
        scheduleSlot(s, pos, id, when, "snapshot", tag,
                     /*encoded=*/false);
    }
    if (r.u64() != validCount_)
        r.fail();
    totalHops_ = r.u64();
    totalWrites_ = r.u64();
}

void
StreamFabric::clear()
{
    // Runs before every request (program load, replay entry), usually
    // on an already-empty fabric: only rings holding values and a
    // calendar holding writes are walked, as in advanceBy().
    for (auto &ring : rings_) {
        for (std::size_t idx = 0; ring.validInRing > 0; ++idx) {
            Entry &e = ring.entries[idx];
            if (e.slot != kNoSlot)
                dropEntry(ring, e);
        }
    }
    if (pendingCount_ > 0) {
        for (auto &b : pendingRing_) {
            for (const PendingWrite &w : b.writes)
                releaseSlot(w.slot);
            b.writes.clear();
        }
    }
    pendingCycles_ = {};
    pendingCount_ = 0;
}

} // namespace tsp
