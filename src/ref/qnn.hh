/**
 * @file
 * Golden CPU reference for the quantized NN operators the TSP
 * pipeline implements. Bit-exact with the chip model by construction:
 * the requantization step reuses the VXM's own aluConvert semantics
 * (fp32 multiply, round-to-nearest-even, int8 saturation), and the
 * integer accumulation matches the MXM's int8 x int8 -> int32 MACCs.
 * Tensors are dense row-major [h][w][c] int8.
 */

#ifndef TSP_REF_QNN_HH
#define TSP_REF_QNN_HH

#include <cstdint>
#include <vector>

namespace tsp::ref {

/** Dense int8 activation tensor, row-major [h][w][c]. */
struct QTensor
{
    int h = 1;
    int w = 1;
    int c = 0;
    std::vector<std::int8_t> data;

    QTensor() = default;
    QTensor(int h_, int w_, int c_)
        : h(h_), w(w_), c(c_),
          data(static_cast<std::size_t>(h_) * w_ * c_, 0)
    {
    }

    std::int8_t
    at(int y, int x, int ch) const
    {
        return data[(static_cast<std::size_t>(y) * w + x) * c + ch];
    }

    std::int8_t &
    at(int y, int x, int ch)
    {
        return data[(static_cast<std::size_t>(y) * w + x) * c + ch];
    }
};

/**
 * Requantizes an int32 accumulator: sat_int32(acc + bias), widen to
 * fp32, multiply by scale, convert to int8 with round-to-nearest-even
 * and saturation, optional ReLU — exactly the VXM chain.
 */
std::int8_t requantize(std::int32_t acc, std::int32_t bias,
                       float scale, bool relu);

/**
 * Quantized conv2d: int8 x int8 -> int32 accumulate, then
 * requantize(). Weights are [outC][inC][kh][kw]; symmetric padding.
 */
QTensor conv2d(const QTensor &in, const std::int8_t *w, int out_c,
               int kh, int kw, int stride, int pad,
               const std::int32_t *bias, const float *scale,
               bool relu);

/** k x k max pooling with -128 padding semantics. */
QTensor maxPool(const QTensor &in, int k, int stride, int pad);

/**
 * Global average pooling via saturating int32 sum then a single
 * fp32 scale -> int8 conversion (matches the chip's add chain).
 */
QTensor globalAvgPool(const QTensor &in, float scale);

/** out = relu?(sat_int8(rne(a*sa + b*sb))) per element. */
QTensor residualAdd(const QTensor &a, const QTensor &b, float sa,
                    float sb, bool relu);

/**
 * Floating-point reference conv (for quantization-loss experiments):
 * plain fp32 convolution with bias, optional ReLU.
 */
std::vector<float> conv2dF32(const std::vector<float> &in, int h,
                             int w, int c, const float *wgt, int out_c,
                             int kh, int kw, int stride, int pad,
                             const float *bias, bool relu);

} // namespace tsp::ref

#endif // TSP_REF_QNN_HH
