/**
 * @file
 * Partitioned global address space (PGAS) addressing.
 *
 * The MEM system presents a flat, globally shared address space laid
 * out uniformly across the 88 slices (paper III.B / IV). A global
 * address identifies (hemisphere, slice, word); each word is a full
 * 320-byte vector row (16 bytes per superlane tile).
 */

#ifndef TSP_MEM_ADDR_HH
#define TSP_MEM_ADDR_HH

#include <string>

#include "arch/layout.hh"
#include "arch/types.hh"

namespace tsp {

/** A global vector address: one 320-byte word in one MEM slice. */
struct GlobalAddr
{
    Hemisphere hem = Hemisphere::East;
    int slice = 0;   ///< 0..43 within the hemisphere.
    MemAddr addr = 0; ///< 13-bit word address within the slice.

    /** @return the bank (0/1) this word lives in: address bit 12. */
    int
    bank() const
    {
        return (addr >> 12) & 1;
    }

    /** @return X position of the owning slice. */
    SlicePos
    pos() const
    {
        return Layout::memPos(hem, slice);
    }

    /** @return the ICU driving the owning slice. */
    IcuId
    icu() const
    {
        return IcuId::mem(hem, slice);
    }

    /** @return flat linear index over all words on chip. */
    std::size_t
    linear() const
    {
        const std::size_t s =
            static_cast<std::size_t>(
                hem == Hemisphere::East ? kMemSlicesPerHem + slice
                                        : slice);
        return s * kMemWordsPerSlice + addr;
    }

    /** @return e.g. "E12:0x01a0". */
    std::string toString() const;

    bool operator==(const GlobalAddr &other) const = default;
};

} // namespace tsp

#endif // TSP_MEM_ADDR_HH
