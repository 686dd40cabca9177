/**
 * @file
 * Chip-to-chip communication (paper II, item 6): sixteen x4 links at
 * 30 Gb/s per lane — 3.84 Tb/s of off-chip pin bandwidth — exchanging
 * 320-byte vectors between pairs of chips with Send/Receive, after a
 * Deskew aligns each plesiochronous link.
 *
 * Links are point-to-point: connect() wires a local link to a peer
 * module's link with a fixed wire latency. Serialization occupies a
 * link for kC2cSerializationCycles per vector; overlapping Sends are a
 * scheduling bug and panic, preserving determinism.
 */

#ifndef TSP_C2C_C2C_MODULE_HH
#define TSP_C2C_C2C_MODULE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "arch/config.hh"
#include "stream/stream_io.hh"

namespace tsp {

/** Cycles to serialize one 320-byte vector onto a x4 30 Gb/s link. */
inline constexpr Cycle kC2cSerializationCycles = 22;

/** All sixteen C2C links of one chip. */
class C2cModule
{
  public:
    C2cModule(const ChipConfig &cfg, StreamFabric &fabric);

    /**
     * Wires local link @p link to @p peer_link on @p peer with
     * @p wire_latency cycles of flight time. Both directions are
     * established. Clocks are assumed aligned (same core clock), as
     * in a synchronously-deployed TSP pod.
     */
    void connect(int link, C2cModule &peer, int peer_link,
                 Cycle wire_latency);

    /** Executes Deskew/Send/Receive on @p link at cycle @p now. */
    void execute(const Instruction &inst, int link, Cycle now);

    /** Peer-side delivery (internal wiring; do not call directly). */
    void deliver(int link, const Vec320 &vec, Cycle arrival);

    /**
     * @return the earliest cycle > @p now at which this module's
     * state changes on its own: a pending rx vector's arrival or a
     * link's serializer going idle (txBusyUntil). kNoEventCycle when
     * nothing is in flight. Folded into Chip::nextEventCycle() so
     * the event-driven core never fast-forwards across a link event.
     */
    Cycle earliestEventCycle(Cycle now) const;

    /** @return vectors sent. */
    std::uint64_t sent() const { return sent_; }

    /** @return vectors received (consumed by Receive). */
    std::uint64_t received() const { return received_; }

    /**
     * @return non-strict Receives that found no arrived vector on
     * @p link — each one is a scheduling bug that silently skipped a
     * stream produce; see droppedReceives().
     */
    std::uint64_t droppedReceives(int link) const;

    /** @return dropped receives summed over all links. */
    std::uint64_t droppedReceives() const { return dropped_; }

    /** @return vectors waiting in link @p link's elastic buffer. */
    std::size_t pendingRx(int link) const;

    /** @return the stream access point (CSR counters). */
    const StreamIo &io() const { return io_; }

    /**
     * Serializes per-link flight state (deskew, serializer busy-until,
     * the elastic rx buffer with arrival cycles) and counters. Peer
     * wiring (peer/peerLink/wireLatency) is topology, re-established
     * by pod construction, not state.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores link flight state onto the existing wiring. Marks @p r
     * failed when the payload's link count differs.
     */
    void loadState(SnapshotReader &r);

  private:
    struct Link
    {
        C2cModule *peer = nullptr;
        int peerLink = -1;
        Cycle wireLatency = 0;
        bool deskewed = false;
        Cycle txBusyUntil = 0;
        std::deque<std::pair<Cycle, Vec320>> rx;
        std::uint64_t droppedReceives = 0;
    };

    Link &linkAt(int link);

    const ChipConfig &cfg_;
    StreamFabric &fabric_;
    StreamIo io_;
    /**
     * Where the stepped tier's port copies and checks a Send's operand
     * when its code does not hold or a fault injector is attached.
     */
    alignas(64) Vec320 scratch_;
    std::vector<Link> links_;

    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace tsp

#endif // TSP_C2C_C2C_MODULE_HH
