/**
 * @file
 * Scalar tier of the MXM int8 ABC, row-sum and ACC drain kernels
 * (mxm_kernels.hh): the reference the vector tiers reproduce, and the
 * path taken on hosts without them or under TSP_FORCE_SCALAR.
 */

#include "mxm/mxm_kernels.hh"

#include <cstddef>
#include <cstring>

namespace tsp::simd {

void
mxmAbcInt8Scalar(const std::int8_t *w, int stride,
                 const std::uint8_t *act, std::int32_t *acc, int n,
                 int rows, int cols, bool accumulate)
{
    for (int r = 0; r < rows; ++r) {
        const std::int8_t *wrow =
            w + static_cast<std::size_t>(r) * stride;
        std::int32_t sum = 0;
        for (int c = 0; c < cols; ++c) {
            sum += static_cast<std::int32_t>(wrow[c]) *
                   static_cast<std::int8_t>(act[c]);
        }
        if (accumulate)
            acc[r] += sum;
        else
            acc[r] = sum;
    }
    // Rows past the block have all-zero weights: their dot product is
    // 0, so accumulating leaves them as they are.
    if (!accumulate) {
        for (int r = rows; r < n; ++r)
            acc[r] = 0;
    }
}

void
mxmRowSumsScalar(const std::int8_t *w, int stride,
                 const std::uint8_t *ext, int block, int n, int rows,
                 std::int32_t *sums)
{
    for (int r = 0; r < rows; ++r) {
        const std::int8_t *wrow =
            w + static_cast<std::size_t>(r) * stride;
        const int ecols = ext[r] * block;
        const int cols = ecols < n ? ecols : n;
        std::int32_t sum = 0;
        for (int c = 0; c < cols; ++c)
            sum += wrow[c];
        sums[r] = sum;
    }
}

void
accBytePlanesScalar(const void *row, int n, int width,
                    std::uint8_t *const *planes)
{
    const auto *src = static_cast<const unsigned char *>(row);
    for (int l = 0; l < n; ++l) {
        std::uint32_t u;
        std::memcpy(&u, src + 4 * static_cast<std::size_t>(l), sizeof(u));
        for (int k = 0; k < 4; ++k)
            planes[k][l] = static_cast<std::uint8_t>(u >> (8 * k));
    }
    for (int k = 0; k < 4; ++k) {
        for (int l = n; l < width; ++l)
            planes[k][l] = 0;
    }
}

} // namespace tsp::simd
