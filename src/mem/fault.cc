#include "mem/fault.hh"

#include <algorithm>

#include "arch/layout.hh"
#include "common/logging.hh"
#include "common/seed.hh"
#include "mem/mem_slice.hh"

namespace tsp {

void
MachineCheckSink::raise(Cycle cycle, const std::string &unit,
                        std::string detail)
{
    if (raises_ == 0) {
        info_.cycle = cycle;
        info_.unit = unit;
        info_.detail = std::move(detail);
    }
    ++raises_;
}

FaultInjector::FaultInjector(const FaultConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed), events_(cfg.events)
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
}

Cycle
FaultInjector::nextScheduledCycle() const
{
    return hasScheduled() ? events_[nextEvent_].cycle : kNoEventCycle;
}

void
FaultInjector::applyScheduled(Cycle now, std::vector<MemSlice> &slices)
{
    while (hasScheduled() && events_[nextEvent_].cycle <= now) {
        const FaultEvent &e = events_[nextEvent_];
        slices[e.slice].injectCodewordFlip(e.addr, e.chunk, e.bit);
        ++scheduledFlips_;
        ++nextEvent_;
    }
}

void
FaultInjector::saveState(SnapshotWriter &w) const
{
    for (const auto word : rng_.state())
        w.u64(word);
    w.u32(static_cast<std::uint32_t>(linkRngs_.size()));
    for (const auto &rng : linkRngs_) {
        for (const auto word : rng.state())
            w.u64(word);
    }
    w.u64(nextEvent_);
    w.u64(memFlips_);
    w.u64(streamFlips_);
    w.u64(c2cFlips_);
    w.u64(scheduledFlips_);
}

void
FaultInjector::loadState(SnapshotReader &r, bool restore_rng)
{
    std::array<std::uint64_t, Rng::kStateWords> state;
    for (auto &word : state)
        word = r.u64();
    if (restore_rng)
        rng_.setState(state);
    // Link streams exist for every link or none (onC2cDeliver).
    const std::uint32_t n_links = r.u32();
    if (n_links != 0 && n_links != kC2cLinks) {
        r.fail();
        return;
    }
    for (std::uint32_t i = 0; i < n_links && r.ok(); ++i) {
        for (auto &word : state)
            word = r.u64();
        if (!restore_rng)
            continue;
        // Lazily built on the source; mirror that here so link
        // strike streams resume mid-sequence.
        if (linkRngs_.size() <= i)
            linkRngs_.emplace_back(0);
        linkRngs_[i].setState(state);
    }
    nextEvent_ = static_cast<std::size_t>(r.u64());
    memFlips_ = r.u64();
    streamFlips_ = r.u64();
    c2cFlips_ = r.u64();
    scheduledFlips_ = r.u64();
}

void
FaultInjector::onC2cDeliver(Vec320 &vec, int link)
{
    if (cfg_.c2cRate <= 0.0)
        return;
    if (linkRngs_.empty()) {
        // One stream per link, derived from the chip seed. Built on
        // first use so fault configs without C2C rates pay nothing.
        linkRngs_.reserve(static_cast<std::size_t>(kC2cLinks));
        for (int l = 0; l < kC2cLinks; ++l) {
            linkRngs_.emplace_back(
                deriveSeed(cfg_.seed, SeedDomain::C2cLink,
                           static_cast<std::uint64_t>(l)));
        }
    }
    TSP_ASSERT(link >= 0 && link < kC2cLinks);
    maybeStrikeWith(linkRngs_[static_cast<std::size_t>(link)], vec,
                    cfg_.c2cRate, c2cFlips_);
}

void
FaultInjector::maybeStrikeWith(Rng &rng, Vec320 &vec, double rate,
                               std::uint64_t &counter)
{
    if (rate <= 0.0 || rng.nextDouble() >= rate)
        return;

    constexpr int kCodewordBits = kWordBytes * 8 + kEccBits;
    int chunk = static_cast<int>(rng.nextBelow(kSuperlanes));
    int bit = static_cast<int>(rng.nextBelow(kCodewordBits));
    flipCodewordBit(vec, chunk, bit);
    ++counter;

    if (cfg_.doubleBitFraction > 0.0 &&
        rng.nextDouble() < cfg_.doubleBitFraction) {
        // A second distinct bit in the same chunk: uncorrectable by
        // SECDED construction.
        int second =
            static_cast<int>(rng.nextBelow(kCodewordBits - 1));
        if (second >= bit)
            ++second;
        flipCodewordBit(vec, chunk, second);
        ++counter;
    }
}

void
FaultInjector::flipCodewordBit(Vec320 &vec, int chunk, int bit)
{
    if (bit < kWordBytes * 8) {
        vec.bytes[chunk * kWordBytes + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
    } else {
        vec.ecc[chunk] ^=
            static_cast<std::uint16_t>(1u << (bit - kWordBytes * 8));
    }
}

} // namespace tsp
