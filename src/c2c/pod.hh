/**
 * @file
 * A pod of TSPs — the paper's scale-out story (II item 6: the 3.84
 * Tb/s of pin bandwidth "can be flexibly partitioned to support
 * high-radix interconnection networks of TSPs for large-scale
 * systems").
 *
 * The pod wires chips into a ring (link 1 of chip i to link 0 of
 * chip i+1) on one core-clock domain. Because every chip is
 * deterministic and the links are deskewed once, multi-chip programs
 * need no handshakes: the compiler schedules Sends on one chip and
 * Receives on another to the exact arrival cycle.
 *
 * Two execution modes, bit-identical in cycles, stats, energy and
 * memory contents:
 *
 *  - stepAll()/runAll(): strict lock-step, one cycle per chip per
 *    call — the reference semantics.
 *  - runAllBounded(): conservative-lookahead scheduling. A chip may
 *    run ahead of an unretired ring neighbour by at most
 *    kC2cSerializationCycles + wireLatency cycles — the minimum
 *    flight time of any vector the neighbour could still send — so
 *    every arrival is delivered before the receiver simulates its
 *    cycle (Chandy–Misra lookahead with no null messages, valid
 *    because every Send/Receive is statically scheduled). Each chip
 *    advances through its window with the event-driven fast-forward
 *    core, which is what makes pod simulation fast.
 */

#ifndef TSP_C2C_POD_HH
#define TSP_C2C_POD_HH

#include <memory>
#include <vector>

#include "sim/chip.hh"

namespace tsp {

struct PodSnapshot;

/** A ring of TSP chips on one clock domain. */
class Pod
{
  public:
    /** Ring link assignments on every chip. */
    static constexpr int kRightLink = 1; ///< To chip (i+1) % n.
    static constexpr int kLeftLink = 0;  ///< From chip (i-1+n) % n.

    /**
     * @param chips number of chips (>= 1).
     * @param wire_latency link flight time in cycles.
     * @param cfg applied to every chip. In a ring of two or more,
     *        each chip's fault seed is derived from cfg.fault.seed
     *        and its ring index so members do not replay identical
     *        upset sequences. A pod of one wires no link and its chip
     *        keeps cfg.fault.seed: it is the bare chip, bit for bit.
     */
    Pod(int chips, Cycle wire_latency, ChipConfig cfg = {});

    /** @return chip @p i. */
    Chip &chip(int i);
    const Chip &chip(int i) const;

    /** @return the number of chips. */
    int size() const { return static_cast<int>(chips_.size()); }

    /** @return the ring wire latency. */
    Cycle wireLatency() const { return wireLatency_; }

    /** Advances every chip one cycle (lock-step). */
    void stepAll();

    /**
     * Lock-step run until every chip retires, or the shared clock
     * reaches @p max_cycles — an *absolute* cycle limit with the
     * same semantics as Chip::runBounded(cycle_limit), so resuming
     * an already-advanced pod bounds the total clock, not the number
     * of additional iterations. Calls fatal() on exhaustion.
     *
     * @return the final cycle count.
     */
    Cycle runAll(Cycle max_cycles = 10'000'000);

    /**
     * Runs every chip to retirement with conservative lookahead and
     * then equalizes all member clocks to the retirement cycle of
     * the last chip — exactly the state lock-step stepping leaves
     * behind, but reached via the event-driven fast-forward core.
     *
     * @param cycle_limit absolute clock bound (Chip::runBounded
     *        semantics).
     * @return true when every chip retired; false when the limit hit
     *         first or any member raised a machine check (distinguish
     *         with machineCheck()). On false the pod is mid-program
     *         and member clocks may differ by up to the lookahead;
     *         discard or rebuild before trusting further runs.
     */
    bool runAllBounded(Cycle cycle_limit = 10'000'000);

    /** @return true once every chip is done. */
    bool allDone() const;

    /** @return true when any member chip raised a machine check. */
    bool machineCheck() const;

    /**
     * @return index of the first machine-checked member, or -1 when
     * none (scan order; ties across members are not distinguished).
     */
    int machineCheckChip() const;

    /** @return the highest member clock (== every member's clock
     *  after a successful runAll/runAllBounded). */
    Cycle now() const;

    /**
     * Serializes every member chip (in ring order) into @p out,
     * including in-flight C2C link traffic. Take snapshots at
     * equalized clocks (after stepAll() or a successful bounded run)
     * so a restored pod resumes from a lock-step-consistent cut.
     * Refusal semantics per chip as Chip::snapshot().
     */
    bool snapshot(PodSnapshot &out, std::string *err = nullptr) const;

    /** Restores a PodSnapshot onto this pod (same size/topology). */
    bool restore(const PodSnapshot &snap, std::string *err = nullptr);

  private:
    std::vector<std::unique_ptr<Chip>> chips_;
    Cycle wireLatency_;
};

} // namespace tsp

#endif // TSP_C2C_POD_HH
