#include "ref/qnn.hh"

#include <algorithm>

#include "common/logging.hh"
#include "vxm/alu_ops.hh"

namespace tsp::ref {

std::int8_t
requantize(std::int32_t acc, std::int32_t bias, float scale, bool relu)
{
    // Stage 1: saturating int32 add (VXM AddSat).
    LaneValue v;
    v.i = acc;
    LaneValue b;
    b.i = bias;
    v = aluBinary(Opcode::AddSat, DType::Int32, v, b);
    // Stage 2: int32 -> fp32.
    v = aluConvert(DType::Int32, DType::Fp32, v);
    // Stage 3: x scale.
    LaneValue s;
    s.f = scale;
    v = aluBinary(Opcode::Mul, DType::Fp32, v, s);
    // Stage 4: fp32 -> int8 (RNE + saturate).
    v = aluConvert(DType::Fp32, DType::Int8, v);
    if (relu)
        v = aluUnary(Opcode::Relu, DType::Int8, v, 0);
    return static_cast<std::int8_t>(v.i);
}

QTensor
conv2d(const QTensor &in, const std::int8_t *w, int out_c, int kh,
       int kw, int stride, int pad, const std::int32_t *bias,
       const float *scale, bool relu)
{
    const int oh = (in.h + 2 * pad - kh) / stride + 1;
    const int ow = (in.w + 2 * pad - kw) / stride + 1;
    TSP_ASSERT(oh >= 1 && ow >= 1);
    QTensor out(oh, ow, out_c);

    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            for (int oc = 0; oc < out_c; ++oc) {
                std::int32_t acc = 0;
                for (int ky = 0; ky < kh; ++ky) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= in.h)
                        continue;
                    for (int kx = 0; kx < kw; ++kx) {
                        const int ix = ox * stride - pad + kx;
                        if (ix < 0 || ix >= in.w)
                            continue;
                        for (int ic = 0; ic < in.c; ++ic) {
                            const std::int8_t wv =
                                w[((static_cast<std::size_t>(oc) *
                                        in.c +
                                    ic) *
                                       kh +
                                   ky) *
                                      kw +
                                  kx];
                            acc += static_cast<std::int32_t>(wv) *
                                   in.at(iy, ix, ic);
                        }
                    }
                }
                out.at(oy, ox, oc) =
                    requantize(acc, bias[oc], scale[oc], relu);
            }
        }
    }
    return out;
}

QTensor
maxPool(const QTensor &in, int k, int stride, int pad)
{
    const int oh = (in.h + 2 * pad - k) / stride + 1;
    const int ow = (in.w + 2 * pad - k) / stride + 1;
    QTensor out(oh, ow, in.c);
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            for (int ch = 0; ch < in.c; ++ch) {
                std::int8_t m = -128;
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= in.h)
                        continue;
                    for (int kx = 0; kx < k; ++kx) {
                        const int ix = ox * stride - pad + kx;
                        if (ix < 0 || ix >= in.w)
                            continue;
                        m = std::max(m, in.at(iy, ix, ch));
                    }
                }
                out.at(oy, ox, ch) = m;
            }
        }
    }
    return out;
}

QTensor
globalAvgPool(const QTensor &in, float scale)
{
    QTensor out(1, 1, in.c);
    for (int ch = 0; ch < in.c; ++ch) {
        // Saturating int32 accumulation, matching the VXM AddSat
        // chain (saturation is unreachable for realistic sizes but
        // kept for bit-exactness).
        LaneValue acc;
        acc.i = 0;
        for (int y = 0; y < in.h; ++y) {
            for (int x = 0; x < in.w; ++x) {
                LaneValue v;
                v.i = in.at(y, x, ch);
                acc = aluBinary(Opcode::AddSat, DType::Int32, acc, v);
            }
        }
        acc = aluConvert(DType::Int32, DType::Fp32, acc);
        LaneValue s;
        s.f = scale;
        acc = aluBinary(Opcode::Mul, DType::Fp32, acc, s);
        acc = aluConvert(DType::Fp32, DType::Int8, acc);
        out.at(0, 0, ch) = static_cast<std::int8_t>(acc.i);
    }
    return out;
}

QTensor
residualAdd(const QTensor &a, const QTensor &b, float sa, float sb,
            bool relu)
{
    TSP_ASSERT(a.h == b.h && a.w == b.w && a.c == b.c);
    QTensor out(a.h, a.w, a.c);
    for (std::size_t i = 0; i < a.data.size(); ++i) {
        // Matches the eltwise VXM pipeline: widen both to fp32,
        // scale, add, convert to int8 (RNE + saturate), ReLU.
        LaneValue va;
        va.i = a.data[i];
        va = aluConvert(DType::Int8, DType::Fp32, va);
        LaneValue vsa;
        vsa.f = sa;
        va = aluBinary(Opcode::Mul, DType::Fp32, va, vsa);
        LaneValue vb;
        vb.i = b.data[i];
        vb = aluConvert(DType::Int8, DType::Fp32, vb);
        LaneValue vsb;
        vsb.f = sb;
        vb = aluBinary(Opcode::Mul, DType::Fp32, vb, vsb);
        LaneValue sum = aluBinary(Opcode::Add, DType::Fp32, va, vb);
        sum = aluConvert(DType::Fp32, DType::Int8, sum);
        if (relu)
            sum = aluUnary(Opcode::Relu, DType::Int8, sum, 0);
        out.data[i] = static_cast<std::int8_t>(sum.i);
    }
    return out;
}

std::vector<float>
conv2dF32(const std::vector<float> &in, int h, int w, int c,
          const float *wgt, int out_c, int kh, int kw, int stride,
          int pad, const float *bias, bool relu)
{
    const int oh = (h + 2 * pad - kh) / stride + 1;
    const int ow = (w + 2 * pad - kw) / stride + 1;
    std::vector<float> out(
        static_cast<std::size_t>(oh) * ow * out_c, 0.0f);
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            for (int oc = 0; oc < out_c; ++oc) {
                float acc = bias ? bias[oc] : 0.0f;
                for (int ky = 0; ky < kh; ++ky) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= h)
                        continue;
                    for (int kx = 0; kx < kw; ++kx) {
                        const int ix = ox * stride - pad + kx;
                        if (ix < 0 || ix >= w)
                            continue;
                        for (int ic = 0; ic < c; ++ic) {
                            acc += wgt[((static_cast<std::size_t>(
                                             oc) *
                                             c +
                                         ic) *
                                            kh +
                                        ky) *
                                           kw +
                                       kx] *
                                   in[(static_cast<std::size_t>(iy) *
                                           w +
                                       ix) *
                                          c +
                                      ic];
                        }
                    }
                }
                if (relu)
                    acc = std::max(acc, 0.0f);
                out[(static_cast<std::size_t>(oy) * ow + ox) * out_c +
                    oc] = acc;
            }
        }
    }
    return out;
}

} // namespace tsp::ref
