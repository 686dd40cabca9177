/**
 * @file
 * Scalar tier of the MXM int8 ABC kernels (mxm_kernels.hh): the
 * reference the vector tiers reproduce, and the path taken on hosts
 * without them or under TSP_FORCE_SCALAR.
 */

#include "mxm/mxm_kernels.hh"

#include <cstddef>

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

} // namespace tsp::simd
