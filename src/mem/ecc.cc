#include "mem/ecc.hh"

#include <array>

#include "common/cpu.hh"

namespace tsp {

namespace {

// Codeword positions run 1..136. Positions that are powers of two hold
// the 8 Hamming parity bits; the remaining 128 positions hold data
// bits in order. The overall parity bit sits outside this numbering.

/** Codeword position of each of the 128 data bits. */
struct PosTables
{
    std::array<std::uint8_t, 128> dataPos{};  // data bit -> position
    // Position -> data bit, over every 8-bit syndrome: an odd number
    // of three or more flips can point past position 136, and those
    // entries stay -1 (uncorrectable).
    std::array<std::int16_t, 256> posData{};

    PosTables()
    {
        posData.fill(-1);
        int k = 0;
        for (int pos = 1; pos <= 136 && k < 128; ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue; // Parity position.
            dataPos[static_cast<std::size_t>(k)] =
                static_cast<std::uint8_t>(pos);
            posData[static_cast<std::size_t>(pos)] =
                static_cast<std::int16_t>(k);
            ++k;
        }
    }
};

const PosTables kPos;

/**
 * Per-(byte index, byte value) precomputed contribution: low 8 bits =
 * syndrome XOR, bit 8 = data-bit parity.
 */
struct ContribTable
{
    std::array<std::array<std::uint16_t, 256>, 16> t{};

    ContribTable()
    {
        for (int byte_idx = 0; byte_idx < 16; ++byte_idx) {
            for (int value = 0; value < 256; ++value) {
                std::uint16_t syn = 0;
                int ones = 0;
                for (int bit = 0; bit < 8; ++bit) {
                    if (!(value & (1 << bit)))
                        continue;
                    const int data_bit = byte_idx * 8 + bit;
                    syn = static_cast<std::uint16_t>(
                        syn ^ kPos.dataPos[static_cast<std::size_t>(
                                  data_bit)]);
                    ++ones;
                }
                t[static_cast<std::size_t>(byte_idx)]
                 [static_cast<std::size_t>(value)] =
                     static_cast<std::uint16_t>(syn |
                                                ((ones & 1) << 8));
            }
        }
    }
};

const ContribTable kContrib;

/**
 * The GFNI tier's matrix operands (mem/ecc.hh). Byte j of a word
 * maps its 8 data bits onto the 8 Hamming bits linearly: output bit
 * i takes input bit b when bit i of data bit 8j+b's codeword
 * position is set. vgf2p8affineqb reads output bit i's row from
 * matrix byte 7-i, and each operand's qwords alternate the matrices
 * of bytes p and 8+p, as a 512-bit load of four words alternates
 * their low and high halves.
 */
struct GfniOperands
{
    alignas(64) std::array<std::uint64_t, 64> ops{};

    GfniOperands()
    {
        for (int j = 0; j < 16; ++j) {
            std::uint64_t m = 0;
            for (int i = 0; i < 8; ++i) {
                for (int b = 0; b < 8; ++b) {
                    const int pos = kPos.dataPos[static_cast<std::size_t>(
                        j * 8 + b)];
                    if ((pos >> i) & 1)
                        m |= std::uint64_t{1} << ((7 - i) * 8 + b);
                }
            }
            for (int q = j / 8; q < 8; q += 2)
                ops[static_cast<std::size_t>((j % 8) * 8 + q)] = m;
        }
    }
};

const GfniOperands kGfni;

/** @return true when the vector helpers run the GFNI tier. */
inline bool
gfniTier()
{
    return simdKernelsEnabled() && cpuHasGfniAvx512();
}

/** @return (hamming syndrome, data parity) of the 16 data bytes. */
inline std::pair<std::uint8_t, int>
dataSyndrome(const std::uint8_t *word16)
{
    std::uint16_t acc = 0;
    int parity = 0;
    for (int i = 0; i < 16; ++i) {
        const std::uint16_t c =
            kContrib.t[static_cast<std::size_t>(i)][word16[i]];
        acc = static_cast<std::uint16_t>(acc ^ (c & 0xff));
        parity ^= (c >> 8) & 1;
    }
    return {static_cast<std::uint8_t>(acc), parity};
}

inline int
popcount8(std::uint8_t v)
{
    return __builtin_popcount(v);
}

} // namespace

std::uint16_t
eccCompute(const std::uint8_t *word16)
{
    const auto [syn, data_parity] = dataSyndrome(word16);
    // Hamming parity bits equal the syndrome of the data alone (so
    // that data syndrome XOR parity bits == 0 for a clean word).
    const std::uint8_t hamming = syn;
    // Overall parity covers data bits and Hamming bits.
    const int overall = data_parity ^ (popcount8(hamming) & 1);
    return static_cast<std::uint16_t>(hamming | (overall << 8));
}

EccStatus
eccCheckCorrect(std::uint8_t *word16, std::uint16_t &ecc)
{
    const std::uint8_t stored_hamming =
        static_cast<std::uint8_t>(ecc & 0xff);
    const int stored_overall = (ecc >> 8) & 1;

    const auto [syn_data, data_parity] = dataSyndrome(word16);
    const std::uint8_t syndrome =
        static_cast<std::uint8_t>(syn_data ^ stored_hamming);
    const int parity_ok =
        (data_parity ^ (popcount8(stored_hamming) & 1) ^
         stored_overall) == 0;

    if (syndrome == 0 && parity_ok)
        return EccStatus::Ok;

    if (!parity_ok) {
        // Odd number of flipped bits: assume single, correctable.
        if (syndrome == 0) {
            // The overall parity bit itself flipped.
            ecc = static_cast<std::uint16_t>(ecc ^ 0x100);
            return EccStatus::Corrected;
        }
        if ((syndrome & (syndrome - 1)) == 0) {
            // A Hamming parity bit flipped.
            ecc = static_cast<std::uint16_t>(ecc ^ syndrome);
            return EccStatus::Corrected;
        }
        // A data bit flipped: locate it via the position table.
        const std::int16_t data_bit =
            kPos.posData[static_cast<std::size_t>(syndrome)];
        if (data_bit < 0)
            return EccStatus::Uncorrectable; // Position out of range.
        word16[data_bit / 8] = static_cast<std::uint8_t>(
            word16[data_bit / 8] ^ (1u << (data_bit % 8)));
        return EccStatus::Corrected;
    }

    // Syndrome nonzero but parity consistent: double-bit error.
    return EccStatus::Uncorrectable;
}

void
eccComputeVec(Vec320 &vec)
{
    if (gfniTier() && simd::eccComputeGfni(vec.bytes.data(),
                                           vec.ecc.data(),
                                           kGfni.ops.data()))
        return;
    for (int sl = 0; sl < kSuperlanes; ++sl) {
        vec.ecc[static_cast<std::size_t>(sl)] =
            eccCompute(vec.bytes.data() + sl * kWordBytes);
    }
}

EccStatus
eccCheckVec(Vec320 &vec)
{
    // The GFNI tier narrows the check to the words whose recomputed
    // code differs from the stored one. A matching word has syndrome
    // 0 and good parity, which eccCheckCorrect reports Ok without a
    // write, so corrections, miscorrections and stray bits 9-15 all
    // still go through the one scalar check.
    std::uint32_t words = 0;
    if (!gfniTier() ||
        !simd::eccDiffersGfni(vec.bytes.data(), vec.ecc.data(),
                              kGfni.ops.data(), &words))
        words = (1u << kSuperlanes) - 1;
    EccStatus worst = EccStatus::Ok;
    for (; words != 0; words &= words - 1) {
        const int sl = __builtin_ctz(words);
        const EccStatus s = eccCheckCorrect(
            vec.bytes.data() + sl * kWordBytes,
            vec.ecc[static_cast<std::size_t>(sl)]);
        if (static_cast<int>(s) > static_cast<int>(worst))
            worst = s;
    }
    return worst;
}

} // namespace tsp
