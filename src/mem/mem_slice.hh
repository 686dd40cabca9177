/**
 * @file
 * Model of one MEM slice: 20 vertically stacked SRAM tiles providing
 * 8192 x 320-byte words in two pseudo-dual-port banks.
 *
 * The hardware has no arbiters: a bank conflict is a compiler bug, not
 * a runtime stall, so this model *panics* on any access pattern the
 * silicon could not service — one read and one write per cycle, in
 * opposite banks (paper III.B, IV.A).
 */

#ifndef TSP_MEM_MEM_SLICE_HH
#define TSP_MEM_MEM_SLICE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "arch/config.hh"
#include "arch/types.hh"
#include "common/snapshot_io.hh"
#include "mem/addr.hh"
#include "mem/ecc.hh"

namespace tsp {

class FaultInjector;
class MachineCheckSink;

/** One of the 88 on-chip MEM slices. */
class MemSlice
{
  public:
    /**
     * @param hem hemisphere this slice belongs to.
     * @param index slice number 0..43 within the hemisphere.
     * @param faults optional fault injector striking timed accesses.
     * @param mc optional machine-check sink; with one attached, an
     *   uncorrectable error raises a chip-level machine check instead
     *   of a warn-and-continue.
     */
    MemSlice(Hemisphere hem, int index,
             FaultInjector *faults = nullptr,
             MachineCheckSink *mc = nullptr);

    /** @return bank (0/1) of a word address: address bit 12. */
    static int
    bankOf(MemAddr addr)
    {
        return (addr >> 12) & 1;
    }

    /**
     * Timed read of one 320-byte word at cycle @p now into @p out
     * (fully assigned: data and stored codes), which may be the
     * produced vector's tape slot on replay.
     *
     * Panics on a same-cycle port violation (second read, or a
     * read+write conflict in the same bank).
     */
    void readInto(MemAddr addr, Cycle now, Vec320 &out);

    /**
     * Timed write of one 320-byte word at cycle @p now.
     *
     * The vector's ECC is checked (consumer side) before commit; a
     * corrected error increments the CSR counters. Panics on a port
     * violation.
     */
    void write(MemAddr addr, const Vec320 &vec, Cycle now);

    /**
     * Indirect read into @p out (fully assigned): each superlane tile
     * reads its own word address (stream-indirect Gather). Counts as
     * one read-port use; per-tile SRAM arrays make mixed addresses
     * conflict-free within the port.
     */
    void gatherInto(const std::array<MemAddr, kSuperlanes> &addrs,
                    Cycle now, Vec320 &out);

    /**
     * Indirect write: each superlane tile stores its 16-byte word at
     * its own address (stream-indirect Scatter). The vector's ECC is
     * checked before commit.
     */
    void scatter(const std::array<MemAddr, kSuperlanes> &addrs,
                 const Vec320 &vec, Cycle now);

    /**
     * Trace-replay mode (Chip::beginReplay/finishReplay). Replay-path
     * producers skip the SECDED encode — no replay consumer checks —
     * so arriving vectors carry stale codes; while set, write() and
     * scatter() regenerate codes at commit instead of checking them,
     * keeping the stored image bit-identical to a live run. Sound
     * because replay is only taken for fault-free runs, whose checks
     * all come back Ok (zero CSR deltas either way).
     */
    void setReplayMode(bool on) { replay_ = on; }

    /** Untimed backdoor write used by host DMA; regenerates ECC. */
    void backdoorWrite(MemAddr addr, const Vec320 &vec);

    /**
     * backdoorWrite() of a word whose SECDED codes the caller already
     * computed (a pre-encoded HostImage word): stores the bytes and
     * @p vec's codes without re-encoding.
     */
    void backdoorWriteEncoded(MemAddr addr, const Vec320 &vec);

    /** Untimed backdoor read used by host DMA and tests. */
    Vec320 backdoorRead(MemAddr addr) const;

    /** Flips one stored bit — soft-error injection for ECC tests. */
    void injectBitFlip(MemAddr addr, int byte, int bit);

    /**
     * Flips one stored bit addressed in SECDED-codeword space:
     * @p bit 0..127 hits the data word of @p chunk, 128..136 its
     * check bits. Used by scheduled FaultEvents.
     */
    void injectCodewordFlip(MemAddr addr, int chunk, int bit);

    /** @return unit name for diagnostics, e.g. "MEM_W3". */
    std::string name() const;

    /** @return total timed reads serviced. */
    std::uint64_t reads() const { return reads_; }

    /** @return total timed writes serviced. */
    std::uint64_t writes() const { return writes_; }

    /** @return single-bit errors corrected at this slice (CSR). */
    std::uint64_t correctedErrors() const { return corrected_; }

    /** @return uncorrectable errors observed at this slice (CSR). */
    std::uint64_t uncorrectableErrors() const { return uncorrectable_; }

    /** @return this slice's hemisphere. */
    Hemisphere hemisphere() const { return hem_; }

    /** @return this slice's index within the hemisphere. */
    int index() const { return index_; }

    /** @return X position on the superlane. */
    SlicePos pos() const { return Layout::memPos(hem_, index_); }

    /**
     * Serializes the SRAM image (data + SECDED check bits), CSR
     * counters and port-conflict tracking. Sparse: unallocated banks
     * and all-zero words are skipped — an all-zero stored word is
     * behaviorally identical to untouched SRAM (zero data carries a
     * zero code).
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restores the SRAM image and counters, replacing all content.
     * Marks @p r failed on a word index outside its bank.
     */
    void loadState(SnapshotReader &r);

  private:
    struct Word
    {
        std::array<std::uint8_t, kLanes> bytes{};
        std::array<std::uint16_t, kSuperlanes> ecc{};
    };

    /** @return the word at @p addr, materializing its page. */
    Word &wordAt(MemAddr addr);
    /** @return the word at @p addr, or null while its page is untouched. */
    const Word *wordAtConst(MemAddr addr) const;

    void checkPort(MemAddr addr, bool is_write, Cycle now);

    /** Raises a machine check (or warns without a sink). */
    void reportUncorrectable(Cycle now, const char *what, MemAddr addr);

    /**
     * The timed write path shared by write() and scatter(): claims
     * the write port at @p addr, applies the write-path fault, then
     * checks @p v's codes before commit (paper II.D), or regenerates
     * them in replay mode.
     */
    void checkBeforeCommit(Vec320 &v, Cycle now, const char *what,
                           MemAddr addr);

    Hemisphere hem_;
    int index_;
    bool replay_ = false; ///< Regenerate (not check) ECC on commit.
    FaultInjector *faults_;
    MachineCheckSink *mc_;

    /**
     * The two banks of 4096 words, stored in pages of kPageWords
     * words, each allocated (zeroed) on first touch. A program that
     * touches a few words of a bank, like the all-reduce's inputs and
     * results, then builds one 88 KB page rather than the whole
     * 1.4 MB bank, so a pod rebuilt after a machine check is cheap.
     */
    static constexpr int kPageWords = 256;
    std::array<std::unique_ptr<Word[]>, kMemWordsPerSlice / kPageWords>
        pages_{};

    // Port-conflict tracking for the current cycle.
    Cycle lastCycle_ = ~Cycle{0};
    int readBank_ = -1;
    int writeBank_ = -1;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t corrected_ = 0;
    std::uint64_t uncorrectable_ = 0;
};

} // namespace tsp

#endif // TSP_MEM_MEM_SLICE_HH
