#include "c2c/pod.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/seed.hh"

namespace tsp {

Pod::Pod(int chips, Cycle wire_latency, ChipConfig cfg)
    : wireLatency_(wire_latency)
{
    TSP_ASSERT(chips >= 1);
    if (chips == 1) {
        chips_.push_back(std::make_unique<Chip>(cfg));
        return;
    }
    chips_.reserve(static_cast<std::size_t>(chips));
    const std::uint64_t base_seed = cfg.fault.seed;
    for (int i = 0; i < chips; ++i) {
        // Distinct upset sequences per member: identical seeds would
        // strike every chip at the same access index, which no real
        // pod exhibits.
        cfg.fault.seed = deriveSeed(base_seed, SeedDomain::PodChip,
                                    static_cast<std::uint64_t>(i));
        chips_.push_back(std::make_unique<Chip>(cfg));
    }
    for (int i = 0; i < chips; ++i) {
        Chip &a = *chips_[static_cast<std::size_t>(i)];
        Chip &b = *chips_[static_cast<std::size_t>((i + 1) % chips)];
        a.c2c().connect(kRightLink, b.c2c(), kLeftLink,
                        wire_latency);
    }
}

Chip &
Pod::chip(int i)
{
    TSP_ASSERT(i >= 0 && i < size());
    return *chips_[static_cast<std::size_t>(i)];
}

const Chip &
Pod::chip(int i) const
{
    TSP_ASSERT(i >= 0 && i < size());
    return *chips_[static_cast<std::size_t>(i)];
}

void
Pod::stepAll()
{
    for (auto &c : chips_)
        c->step();
}

bool
Pod::allDone() const
{
    for (const auto &c : chips_) {
        if (!c->done())
            return false;
    }
    return true;
}

bool
Pod::machineCheck() const
{
    return machineCheckChip() >= 0;
}

int
Pod::machineCheckChip() const
{
    for (int i = 0; i < size(); ++i) {
        if (chips_[static_cast<std::size_t>(i)]->machineCheck())
            return i;
    }
    return -1;
}

Cycle
Pod::now() const
{
    Cycle n = 0;
    for (const auto &c : chips_)
        n = std::max(n, c->now());
    return n;
}

Cycle
Pod::runAll(Cycle max_cycles)
{
    // Lock-step keeps every member clock equal, so one chip's clock
    // is the pod clock.
    while (!allDone()) {
        if (chips_.front()->now() >= max_cycles) {
            fatal("Pod::runAll: cycle limit %llu reached",
                  static_cast<unsigned long long>(max_cycles));
        }
        stepAll();
    }
    return chips_.front()->now();
}

bool
Pod::runAllBounded(Cycle cycle_limit)
{
    const int n = size();
    // A member may outrun an unretired ring neighbour by the minimum
    // flight time of any vector that neighbour could still send: a
    // Send issued at the neighbour's current cycle s lands no earlier
    // than s + serialization + wire. Running chip i only through
    // cycles < neighbour.now() + lookahead therefore guarantees every
    // arrival is in its rx queue before the receiving cycle executes.
    // Retired neighbours can never Send again, so they impose no
    // bound — treating them otherwise would freeze the pod once the
    // first member finished.
    const Cycle lookahead = kC2cSerializationCycles + wireLatency_;

    while (!allDone()) {
        bool progressed = false;
        for (int i = 0; i < n; ++i) {
            Chip &c = *chips_[static_cast<std::size_t>(i)];
            if (c.done())
                continue;
            Cycle horizon = cycle_limit;
            for (int d : {n - 1, 1}) {
                const Chip &peer =
                    *chips_[static_cast<std::size_t>((i + d) % n)];
                if (&peer == &c || peer.done())
                    continue;
                horizon = std::min(horizon, peer.now() + lookahead);
            }
            if (c.now() >= horizon)
                continue;
            const Cycle before = c.now();
            c.runBounded(horizon);
            if (c.machineCheck())
                return false;
            progressed = progressed || c.now() > before;
        }
        // The unretired member with the lowest clock always has
        // headroom under every neighbour's horizon, so a sweep with
        // no progress means every unretired member sits at
        // cycle_limit: the pod timed out.
        if (!progressed && !allDone())
            return false;
    }

    // Lock-step steps *every* member until the whole pod retires, so
    // early finishers idle-tick (and integrate power) up to the last
    // retirement cycle. Reproduce that tail for bit-identical stats.
    const Cycle end = now();
    for (auto &c : chips_) {
        c->runTo(end);
        if (c->machineCheck())
            return false;
    }
    return true;
}

} // namespace tsp
