#include "c2c/c2c_module.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/fault.hh"

namespace tsp {

C2cModule::C2cModule(const ChipConfig &cfg, StreamFabric &fabric)
    : cfg_(cfg), fabric_(fabric), io_(cfg, fabric, "C2C"),
      links_(kC2cLinks)
{
}

C2cModule::Link &
C2cModule::linkAt(int link)
{
    TSP_ASSERT(link >= 0 && link < kC2cLinks);
    return links_[static_cast<std::size_t>(link)];
}

void
C2cModule::connect(int link, C2cModule &peer, int peer_link,
                   Cycle wire_latency)
{
    Link &l = linkAt(link);
    Link &p = peer.linkAt(peer_link);
    TSP_ASSERT(!l.peer && !p.peer);
    l.peer = &peer;
    l.peerLink = peer_link;
    l.wireLatency = wire_latency;
    p.peer = this;
    p.peerLink = link;
    p.wireLatency = wire_latency;
}

void
C2cModule::deliver(int link, const Vec320 &vec, Cycle arrival)
{
    Link &l = linkAt(link);
    // Arrivals are inherently ordered on a point-to-point link.
    TSP_ASSERT(l.rx.empty() || l.rx.back().first <= arrival);
    l.rx.emplace_back(arrival, vec);
    if (FaultInjector *fi = fabric_.faultInjector()) {
        // Link-flight upset on the landed copy. The vector keeps the
        // ECC generated by the original producer (Receive forwards it
        // raw), so the flip surfaces at the downstream consumer-side
        // SECDED check — corrected if single-bit, machine check if
        // double-bit — exactly like an SRAM or stream-hop upset.
        fi->onC2cDeliver(l.rx.back().second, link);
    }
}

std::size_t
C2cModule::pendingRx(int link) const
{
    return links_[static_cast<std::size_t>(link)].rx.size();
}

bool
C2cModule::idle(Cycle now) const
{
    return std::all_of(links_.begin(), links_.end(), [now](const Link &l) {
        return l.rx.empty() && l.txBusyUntil <= now;
    });
}

std::uint64_t
C2cModule::droppedReceives(int link) const
{
    TSP_ASSERT(link >= 0 && link < kC2cLinks);
    return links_[static_cast<std::size_t>(link)].droppedReceives;
}

void
C2cModule::saveState(SnapshotWriter &w) const
{
    io_.saveState(w);
    w.u32(static_cast<std::uint32_t>(links_.size()));
    for (const auto &l : links_) {
        w.b(l.deskewed);
        w.u64(l.txBusyUntil);
        w.u64(l.droppedReceives);
        w.u32(static_cast<std::uint32_t>(l.rx.size()));
        for (const auto &[arrival, vec] : l.rx) {
            w.u64(arrival);
            w.bytes(vec.bytes.data(), vec.bytes.size());
            for (const auto e : vec.ecc)
                w.u16(e);
        }
    }
    w.u64(sent_);
    w.u64(received_);
    w.u64(dropped_);
}

void
C2cModule::loadState(SnapshotReader &r)
{
    io_.loadState(r);
    if (r.u32() != links_.size()) {
        r.fail();
        return;
    }
    for (auto &l : links_) {
        l.deskewed = r.b();
        l.txBusyUntil = r.u64();
        l.droppedReceives = r.u64();
        l.rx.clear();
        const std::uint32_t pending = r.u32();
        for (std::uint32_t i = 0; i < pending && r.ok(); ++i) {
            const Cycle arrival = r.u64();
            Vec320 vec;
            r.bytes(vec.bytes.data(), vec.bytes.size());
            for (auto &e : vec.ecc)
                e = r.u16();
            l.rx.emplace_back(arrival, vec);
        }
    }
    sent_ = r.u64();
    received_ = r.u64();
    dropped_ = r.u64();
}

Cycle
C2cModule::earliestEventCycle(Cycle now) const
{
    Cycle ev = kNoEventCycle;
    for (const auto &l : links_) {
        if (l.txBusyUntil > now && l.txBusyUntil < ev)
            ev = l.txBusyUntil;
        if (!l.rx.empty()) {
            const Cycle arrival = l.rx.front().first;
            if (arrival > now && arrival < ev)
                ev = arrival;
        }
    }
    return ev;
}

void
C2cModule::execute(const Instruction &inst, int link, Cycle now)
{
    Link &l = linkAt(link);
    const SlicePos p = IcuId::c2c(link).pos();

    switch (inst.op) {
      case Opcode::Deskew:
        l.deskewed = true;
        return;

      case Opcode::Send: {
        if (!l.peer)
            panic("C2C%d: send on an unconnected link", link);
        if (!l.deskewed)
            panic("C2C%d: send before deskew", link);
        if (now < l.txBusyUntil) {
            panic("C2C%d: send while serializing previous vector "
                  "(busy until %llu, now %llu) — scheduler bug",
                  link, static_cast<unsigned long long>(l.txBusyUntil),
                  static_cast<unsigned long long>(now));
        }
        // deliver() copies the vector into the peer's receive queue
        // before this dispatch ends, so a tape slot is read in place.
        const Vec320 &v = *io_.consumeRef(inst.srcA, p, scratch_);
        l.txBusyUntil = now + kC2cSerializationCycles;
        l.peer->deliver(l.peerLink, v,
                        now + kC2cSerializationCycles + l.wireLatency);
        ++sent_;
        return;
      }

      case Opcode::Receive: {
        if (!l.deskewed)
            panic("C2C%d: receive before deskew", link);
        if (l.rx.empty() || l.rx.front().first > now) {
            if (cfg_.strictStreams) {
                panic("C2C%d: receive at cycle %llu with no arrived "
                      "vector (scheduler bug)",
                      link, static_cast<unsigned long long>(now));
            }
            // The scheduled stream produce never happens: downstream
            // consumers will read whatever stale value still flows.
            // Count it per link and say so — silence here once hid
            // real multi-chip schedule bugs.
            ++l.droppedReceives;
            ++dropped_;
            warn("C2C%d: receive at cycle %llu dropped — no arrived "
                 "vector (%llu pending, dropped %llu on this link)",
                 link, static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(l.rx.size()),
                 static_cast<unsigned long long>(l.droppedReceives));
            return;
        }
        // Raw: the ECC generated by the original producer travelled
        // the link with the data, so link-flight upsets stay
        // detectable at the consumer-side check (II.D) instead of
        // being laundered under a freshly generated code.
        io_.produceRaw(inst.dst, p, l.rx.front().second,
                       now + opTiming(Opcode::Receive).dFunc);
        l.rx.pop_front();
        ++received_;
        return;
      }

      default:
        panic("C2C%d: bad opcode %s", link, opcodeName(inst.op));
    }
}

} // namespace tsp
