#include "mem/mem_slice.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "mem/fault.hh"

namespace tsp {

namespace {
constexpr int kWordsPerBank = kMemWordsPerSlice / kMemBanks;
} // namespace

std::string
GlobalAddr::toString() const
{
    return strformat("%c%d:0x%04x", hem == Hemisphere::East ? 'E' : 'W',
                     slice, addr);
}

MemSlice::MemSlice(Hemisphere hem, int index, bool ecc_enabled,
                   FaultInjector *faults, MachineCheckSink *mc)
    : hem_(hem), index_(index), eccEnabled_(ecc_enabled),
      faults_(faults), mc_(mc)
{
    TSP_ASSERT(index >= 0 && index < kMemSlicesPerHem);
}

std::string
MemSlice::name() const
{
    return strformat("MEM_%c%d", hem_ == Hemisphere::East ? 'E' : 'W',
                     index_);
}

void
MemSlice::reportUncorrectable(Cycle now, const char *what, MemAddr addr)
{
    ++uncorrectable_;
    if (mc_) {
        mc_->raise(now, name(),
                   strformat("uncorrectable error %s at 0x%x", what,
                             addr));
    } else {
        warn("%s: uncorrectable error %s at 0x%x", name().c_str(),
             what, addr);
    }
}

MemSlice::Word &
MemSlice::wordAt(MemAddr addr)
{
    TSP_ASSERT(addr < static_cast<MemAddr>(kMemWordsPerSlice));
    auto &page = pages_[addr / kPageWords];
    if (!page)
        page = std::make_unique<Word[]>(kPageWords);
    return page[addr % kPageWords];
}

const MemSlice::Word *
MemSlice::wordAtConst(MemAddr addr) const
{
    TSP_ASSERT(addr < static_cast<MemAddr>(kMemWordsPerSlice));
    const auto &page = pages_[addr / kPageWords];
    return page ? &page[addr % kPageWords] : nullptr;
}

void
MemSlice::checkPort(MemAddr addr, bool is_write, Cycle now)
{
    if (now != lastCycle_) {
        lastCycle_ = now;
        readBank_ = -1;
        writeBank_ = -1;
    }
    const int bank = bankOf(addr);
    if (is_write) {
        if (writeBank_ != -1) {
            panic("MEM_%s%d: second write in cycle %llu (scheduler bug)",
                  hem_ == Hemisphere::East ? "E" : "W", index_,
                  static_cast<unsigned long long>(now));
        }
        if (readBank_ == bank) {
            panic("MEM_%s%d: read/write bank conflict on bank %d at "
                  "cycle %llu (scheduler bug)",
                  hem_ == Hemisphere::East ? "E" : "W", index_, bank,
                  static_cast<unsigned long long>(now));
        }
        writeBank_ = bank;
    } else {
        if (readBank_ != -1) {
            panic("MEM_%s%d: second read in cycle %llu (scheduler bug)",
                  hem_ == Hemisphere::East ? "E" : "W", index_,
                  static_cast<unsigned long long>(now));
        }
        if (writeBank_ == bank) {
            panic("MEM_%s%d: read/write bank conflict on bank %d at "
                  "cycle %llu (scheduler bug)",
                  hem_ == Hemisphere::East ? "E" : "W", index_, bank,
                  static_cast<unsigned long long>(now));
        }
        readBank_ = bank;
    }
}

void
MemSlice::readInto(MemAddr addr, Cycle now, Vec320 &out)
{
    checkPort(addr, /*is_write=*/false, now);
    ++reads_;

    const Word *w = wordAtConst(addr);
    if (w) {
        out.bytes = w->bytes;
        out.ecc = w->ecc;
    } else {
        // Untouched SRAM reads as zero with valid (zero) ECC; @p out
        // may be a reused arena slot, so assign it explicitly.
        out = Vec320{};
    }
    if (faults_) {
        // Transient read-path upset: corrupts the read-out copy, not
        // the stored word. The downstream consumer's check catches it.
        faults_->onMemRead(out);
    }
}

void
MemSlice::write(MemAddr addr, const Vec320 &vec, Cycle now)
{
    checkPort(addr, /*is_write=*/true, now);
    ++writes_;

    Vec320 v = vec;
    if (faults_)
        faults_->onMemWrite(v);
    if (eccEnabled_) {
        if (replay_) {
            // Replay producers skip the encode; regenerate here so
            // the committed word matches a live run byte-for-byte.
            eccComputeVec(v);
        } else {
            // Consumer-side check before commit (paper II.D).
            switch (eccCheckVec(v)) {
              case EccStatus::Ok:
                break;
              case EccStatus::Corrected:
                ++corrected_;
                break;
              case EccStatus::Uncorrectable:
                reportUncorrectable(now, "on write", addr);
                break;
            }
        }
    }
    Word &w = wordAt(addr);
    w.bytes = v.bytes;
    w.ecc = v.ecc;
}

void
MemSlice::gatherInto(const std::array<MemAddr, kSuperlanes> &addrs,
                     Cycle now, Vec320 &out)
{
    checkPort(addrs[0], /*is_write=*/false, now);
    ++reads_;

    out = Vec320{}; // May be a reused arena slot.
    bool any_missing = false;
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        const Word *w = wordAtConst(addrs[static_cast<std::size_t>(sl)]);
        if (!w) {
            any_missing = true;
            continue;
        }
        for (int b = 0; b < kWordBytes; ++b) {
            out.bytes[static_cast<std::size_t>(sl * kWordBytes + b)] =
                w->bytes[static_cast<std::size_t>(sl * kWordBytes + b)];
        }
        out.ecc[static_cast<std::size_t>(sl)] =
            w->ecc[static_cast<std::size_t>(sl)];
    }
    if (any_missing && eccEnabled_) {
        // Zero-filled tiles need valid codes for their zero words.
        Vec320 codes = out;
        eccComputeVec(codes);
        for (int sl = 0; sl < kSuperlanes; ++sl) {
            const Word *w =
                wordAtConst(addrs[static_cast<std::size_t>(sl)]);
            if (!w) {
                out.ecc[static_cast<std::size_t>(sl)] =
                    codes.ecc[static_cast<std::size_t>(sl)];
            }
        }
    }
    if (faults_)
        faults_->onMemRead(out);
}

void
MemSlice::scatter(const std::array<MemAddr, kSuperlanes> &addrs,
                  const Vec320 &vec, Cycle now)
{
    checkPort(addrs[0], /*is_write=*/true, now);
    ++writes_;

    Vec320 v = vec;
    if (faults_)
        faults_->onMemWrite(v);
    if (eccEnabled_) {
        if (replay_) {
            eccComputeVec(v);
        } else {
            switch (eccCheckVec(v)) {
              case EccStatus::Ok:
                break;
              case EccStatus::Corrected:
                ++corrected_;
                break;
              case EccStatus::Uncorrectable:
                reportUncorrectable(now, "on scatter", addrs[0]);
                break;
            }
        }
    }
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        Word &w = wordAt(addrs[static_cast<std::size_t>(sl)]);
        for (int b = 0; b < kWordBytes; ++b) {
            w.bytes[static_cast<std::size_t>(sl * kWordBytes + b)] =
                v.bytes[static_cast<std::size_t>(sl * kWordBytes + b)];
        }
        w.ecc[static_cast<std::size_t>(sl)] =
            v.ecc[static_cast<std::size_t>(sl)];
    }
}

void
MemSlice::backdoorWrite(MemAddr addr, const Vec320 &vec)
{
    Word &w = wordAt(addr);
    w.bytes = vec.bytes;
    if (eccEnabled_) {
        Vec320 tmp;
        tmp.bytes = vec.bytes;
        eccComputeVec(tmp);
        w.ecc = tmp.ecc;
    } else {
        w.ecc = vec.ecc;
    }
}

void
MemSlice::backdoorWriteEncoded(MemAddr addr, const Vec320 &vec)
{
    Word &w = wordAt(addr);
    w.bytes = vec.bytes;
    if (eccEnabled_)
        w.ecc = vec.ecc;
    else
        w.ecc.fill(0);
}

Vec320
MemSlice::backdoorRead(MemAddr addr) const
{
    Vec320 out;
    const Word *w = wordAtConst(addr);
    if (w) {
        out.bytes = w->bytes;
        out.ecc = w->ecc;
    } else if (eccEnabled_) {
        eccComputeVec(out);
    }
    return out;
}

void
MemSlice::saveState(SnapshotWriter &w) const
{
    // Per bank: the count of nonzero words, then each one's index in
    // the bank, bytes and ECC. Untouched pages read as zero.
    const auto stored = [this](int bank, int i) -> const Word * {
        const Word *word = wordAtConst(
            static_cast<MemAddr>(bank * kWordsPerBank + i));
        if (!word)
            return nullptr;
        bool nonzero = false;
        for (const auto b : word->bytes)
            nonzero |= b != 0;
        for (const auto e : word->ecc)
            nonzero |= e != 0;
        return nonzero ? word : nullptr;
    };
    for (int bank = 0; bank < kMemBanks; ++bank) {
        std::uint32_t count = 0;
        for (int i = 0; i < kWordsPerBank; ++i)
            count += stored(bank, i) ? 1 : 0;
        w.u32(count);
        for (int i = 0; i < kWordsPerBank; ++i) {
            const Word *word = stored(bank, i);
            if (!word)
                continue;
            w.u32(static_cast<std::uint32_t>(i));
            w.bytes(word->bytes.data(), word->bytes.size());
            for (const auto e : word->ecc)
                w.u16(e);
        }
    }
    w.u64(reads_);
    w.u64(writes_);
    w.u64(corrected_);
    w.u64(uncorrectable_);
    w.u64(lastCycle_);
    w.i32(readBank_);
    w.i32(writeBank_);
}

void
MemSlice::loadState(SnapshotReader &r)
{
    for (auto &page : pages_)
        page.reset();
    for (int bank = 0; bank < kMemBanks; ++bank) {
        const std::uint32_t count = r.u32();
        for (std::uint32_t n = 0; n < count && r.ok(); ++n) {
            const std::uint32_t i = r.u32();
            if (i >= static_cast<std::uint32_t>(kWordsPerBank)) {
                r.fail();
                return;
            }
            Word &word = wordAt(static_cast<MemAddr>(
                static_cast<std::uint32_t>(bank * kWordsPerBank) + i));
            r.bytes(word.bytes.data(), word.bytes.size());
            for (auto &e : word.ecc)
                e = r.u16();
        }
    }
    reads_ = r.u64();
    writes_ = r.u64();
    corrected_ = r.u64();
    uncorrectable_ = r.u64();
    lastCycle_ = r.u64();
    readBank_ = r.i32();
    writeBank_ = r.i32();
}

void
MemSlice::injectBitFlip(MemAddr addr, int byte, int bit)
{
    TSP_ASSERT(byte >= 0 && byte < kLanes && bit >= 0 && bit < 8);
    Word &w = wordAt(addr);
    w.bytes[static_cast<std::size_t>(byte)] =
        static_cast<std::uint8_t>(
            w.bytes[static_cast<std::size_t>(byte)] ^ (1u << bit));
}

void
MemSlice::injectCodewordFlip(MemAddr addr, int chunk, int bit)
{
    TSP_ASSERT(chunk >= 0 && chunk < kSuperlanes && bit >= 0 &&
               bit < kWordBytes * 8 + kEccBits);
    if (bit < kWordBytes * 8) {
        injectBitFlip(addr, chunk * kWordBytes + bit / 8, bit % 8);
    } else {
        Word &w = wordAt(addr);
        w.ecc[static_cast<std::size_t>(chunk)] ^=
            static_cast<std::uint16_t>(1u << (bit - kWordBytes * 8));
    }
}

} // namespace tsp
