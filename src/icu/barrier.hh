/**
 * @file
 * Chip-wide barrier synchronization (paper III.A.2).
 *
 * One ICU issues Notify; every other ICU parks on Sync. Receipt of the
 * Notify broadcast satisfies all pending Syncs. The broadcast takes
 * kBarrierLatency cycles from Notify issue to Sync retirement — the
 * paper reports 35 cycles for the full chip.
 */

#ifndef TSP_ICU_BARRIER_HH
#define TSP_ICU_BARRIER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/types.hh"
#include "common/snapshot_io.hh"

namespace tsp {

/** Notify-to-Sync-retirement latency in cycles. */
inline constexpr Cycle kBarrierLatency = 35;

/** Tracks Notify broadcasts and answers Sync release queries. */
class BarrierController
{
  public:
    /** Records a Notify issued at cycle @p now (non-decreasing). */
    void notify(Cycle now);

    /**
     * @return the cycle at which a Sync parked at @p parked_at
     * retires, if a broadcast (issued before or after parking) reaches
     * it; std::nullopt if no qualifying Notify has been issued yet.
     *
     * A broadcast that arrived strictly before the Sync parked is
     * missed — only pending Syncs are satisfied.
     */
    std::optional<Cycle> releaseTime(Cycle parked_at) const;

    /**
     * Drops broadcasts whose arrival precedes @p parked_floor — the
     * earliest park time any present or future Sync can still query
     * (the minimum parkedAt over currently parked queues, or the
     * current cycle when none are parked). Such broadcasts can never
     * satisfy another Sync, so retaining them only grows memory and
     * slows releaseTime() across long runs and session reuse.
     */
    void prune(Cycle parked_floor);

    /** Forgets all broadcasts (between program loads). */
    void clear() { notifies_.clear(); }

    /** @return total Notify instructions observed (survives prune). */
    std::size_t totalNotifies() const { return totalNotifies_; }

    /** @return Notify broadcasts currently retained. */
    std::size_t notifyCount() const { return notifies_.size(); }

    /** Serializes retained broadcasts and totals (snapshot). */
    void
    saveState(SnapshotWriter &w) const
    {
        w.u64(notifies_.size());
        for (const Cycle c : notifies_)
            w.u64(c);
        w.u64(totalNotifies_);
    }

    /** Restores retained broadcasts and totals (snapshot). */
    void
    loadState(SnapshotReader &r)
    {
        notifies_.clear();
        // No reserve(n): n comes from the blob, and the loop stops
        // when the reader runs dry.
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n && r.ok(); ++i)
            notifies_.push_back(r.u64());
        totalNotifies_ = static_cast<std::size_t>(r.u64());
    }

  private:
    /** Issue cycles in non-decreasing order (notify() asserts). */
    std::vector<Cycle> notifies_;
    std::size_t totalNotifies_ = 0;
};

} // namespace tsp

#endif // TSP_ICU_BARRIER_HH
