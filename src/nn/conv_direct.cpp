#include "nn/conv_direct.hpp"

#include <algorithm>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HSDL_CONV_DIRECT_AVX2 1
#endif

#include "common/cpuinfo.hpp"

#define HSDL_RESTRICT __restrict__

namespace hsdl::nn {
namespace {

constexpr std::size_t kLanes = 8;     ///< output channels per ymm vector
constexpr std::size_t kMaxGroup = 4;  ///< ymm vectors of channels per tile

/// Ymm vectors in the channel group that starts at lane block `ob` of
/// `nb`: groups of four blocks (32 channels), then the remainder.
inline std::size_t group_vectors(std::size_t nb, std::size_t ob) {
  return std::min(kMaxGroup, nb - ob);
}

/// Output index range [*o0, *o1) for kernel offset `k_off` whose input
/// index o*stride + k_off - padding lands inside [0, in_extent). Outputs
/// outside this range would read padding (exact zeros), whose
/// contribution is a bitwise no-op — see the header.
inline void valid_out_range(std::size_t out_extent, std::size_t in_extent,
                            std::size_t k_off, std::size_t stride,
                            std::size_t padding, std::size_t* o0,
                            std::size_t* o1) {
  std::size_t lo = 0;
  if (k_off < padding) lo = (padding - k_off + stride - 1) / stride;
  const long long top = static_cast<long long>(in_extent) - 1 +
                        static_cast<long long>(padding) -
                        static_cast<long long>(k_off);
  if (top < 0) {
    *o0 = *o1 = 0;
    return;
  }
  const std::size_t hi =
      std::min(out_extent, static_cast<std::size_t>(top) / stride + 1);
  *o0 = std::min(lo, hi);
  *o1 = hi;
}

/// Bias + optional ReLU epilogue over one output channel plane. Same
/// arithmetic as the unfused path (bias pass, then Relu::infer's
/// `v > 0 ? v : 0`), just without materializing the intermediate.
inline void bias_relu_epilogue(float* HSDL_RESTRICT plane, std::size_t n,
                               float bias, bool fuse_relu) {
  if (fuse_relu) {
    for (std::size_t j = 0; j < n; ++j) {
      const float v = plane[j] + bias;
      plane[j] = v > 0.0f ? v : 0.0f;
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) plane[j] += bias;
  }
}

// ---------------------------------------------------------------------------
// Padded input copy (both paths) and the scalar stride-1 plane path.
//
// The generic scalar body below updates each output row tap by tap, but
// serving feature maps are narrow (12 wide): every row update is one
// partial vector plus a scalar tail plus the valid-range bookkeeping, and
// that overhead dominates the arithmetic. The stride-1 path instead copies
// the input into an explicitly padded buffer and gives the accumulator
// plane the SAME row stride pw as the padded input. Then one weight tap
// updates the whole plane with a single contiguous axpy of oh*pw elements.
// The k-1 lanes per row beyond ow accumulate values no one reads (the
// epilogue copies only the first ow of each row) and the axpy may read up
// to kernel-1 floats past the last input channel, which the scratch
// buffer's slack absorbs.
//
// Bitwise: each real output element still accumulates taps in ascending
// p = (c, ky, kx) order with one multiply + one add per tap, now including
// the padded positions' w * (+0.0) terms — exactly the products the
// im2col + gemm_naive reference adds (its im2col buffer holds +0.0 for
// padding, and it too skips zero weights).

constexpr std::size_t kPadSlack = 16;  // >= kernel; covers the over-read

struct ConvScratch {
  std::vector<float> pad;    ///< in_c x ph x pw (+ slack), borders +0.0
  std::vector<float> plane;  ///< oh x pw accumulator, tail lanes garbage
};

ConvScratch& conv_scratch() {
  thread_local ConvScratch s;
  return s;
}

/// Fills the padded copy; returns the padded row width pw. Every element
/// is written each call — borders and slack zeroed explicitly, interior
/// rows copied — so the reused scratch never needs a full clear.
std::size_t fill_padded(const float* in, const ConvDirectShape& s,
                        std::vector<float>* pad) {
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t p = s.padding;
  const std::size_t total = s.in_channels * ph * pw;
  pad->resize(total + kPadSlack);
  float* base = pad->data();
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    float* img = base + c * ph * pw;
    std::fill(img, img + p * pw, 0.0f);  // top border rows
    for (std::size_t y = 0; y < s.height; ++y) {
      float* dst = img + (y + p) * pw;
      std::fill(dst, dst + p, 0.0f);
      std::copy_n(in + (c * s.height + y) * s.width, s.width, dst + p);
      std::fill(dst + p + s.width, dst + pw, 0.0f);
    }
    std::fill(img + (p + s.height) * pw, img + ph * pw, 0.0f);  // bottom
  }
  std::fill(base + total, base + total + kPadSlack, 0.0f);
  return pw;
}

void conv_plane_scalar(const float* HSDL_RESTRICT pad,
                       const float* HSDL_RESTRICT weight,
                       const float* HSDL_RESTRICT bias,
                       const ConvDirectShape& s, bool fuse_relu,
                       float* HSDL_RESTRICT plane,
                       float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t k = s.kernel;
  const std::size_t kk = s.in_channels * k * k;
  const std::size_t n = oh * pw;
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < n; ++j) plane[j] = 0.0f;
    const float* wrow = weight + oc * kk;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float w = wrow[(c * k + ky) * k + kx];
          if (w == 0.0f) continue;
          const float* HSDL_RESTRICT src = pad + (c * ph + ky) * pw + kx;
          for (std::size_t j = 0; j < n; ++j) plane[j] += w * src[j];
        }
      }
    }
    const float b = bias[oc];
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* pr = plane + oy * pw;
      float* orow = out + (oc * oh + oy) * ow;
      if (fuse_relu) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float v = pr[ox] + b;
          orow[ox] = v > 0.0f ? v : 0.0f;
        }
      } else {
        for (std::size_t ox = 0; ox < ow; ++ox) orow[ox] = pr[ox] + b;
      }
    }
  }
}

#ifdef HSDL_CONV_DIRECT_AVX2
// ---------------------------------------------------------------------------
// AVX2 path, every stride.
//
// Vector lanes are output channels: a tile holds PX output pixels x OCV
// ymm vectors of kLanes channels, PX * OCV <= 12 accumulators. Each tap
// (c, ky, kx), in ascending order, loads the OCV packed weight vectors
// once and broadcasts one padded-input value per pixel; the pixel's base
// offset carries the stride. Every lane is one output, so each output
// still accumulates its taps from +0.0 in im2col order with a separate
// multiply and add (target "avx2" without "fma" cannot contract them).
// Pad positions and the zero-padded tail lanes add w * (+0.0) or 0 * x,
// both +-0.0, and a +0.0-seeded running sum never becomes -0.0, so those
// terms are exact no-ops; tail lanes are never stored. A short last tile
// clamps its pixels to the last one and stores only the real ones.
// `oc_left` counts the output channels from the group's first one on;
// lanes at or past it are tail lanes.
template <std::size_t PX, std::size_t OCV>
__attribute__((target("avx2"))) void conv_group_avx2(
    const float* HSDL_RESTRICT pad, const float* HSDL_RESTRICT wgroup,
    const float* HSDL_RESTRICT bgroup, const ConvDirectShape& s,
    std::size_t oc_left, bool fuse_relu, float* HSDL_RESTRICT out) {
  const std::size_t ow = s.out_width(), n = s.out_height() * ow;
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t k = s.kernel;
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t j0 = 0; j0 < n; j0 += PX) {
    const float* src[PX];
    __m256 acc[PX][OCV];
    for (std::size_t p = 0; p < PX; ++p) {
      const std::size_t j = std::min(j0 + p, n - 1);
      src[p] = pad + (j / ow) * s.stride * pw + (j % ow) * s.stride;
      for (std::size_t v = 0; v < OCV; ++v) acc[p][v] = zero;
    }
    const float* HSDL_RESTRICT w = wgroup;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        const std::size_t row = (c * ph + ky) * pw;
        for (std::size_t kx = 0; kx < k; ++kx, w += OCV * kLanes) {
          __m256 wv[OCV];
          for (std::size_t v = 0; v < OCV; ++v)
            wv[v] = _mm256_loadu_ps(w + v * kLanes);
          for (std::size_t p = 0; p < PX; ++p) {
            const __m256 x = _mm256_broadcast_ss(src[p] + row + kx);
            for (std::size_t v = 0; v < OCV; ++v)
              acc[p][v] = _mm256_add_ps(acc[p][v], _mm256_mul_ps(wv[v], x));
          }
        }
      }
    }
    // Bias, then ReLU as max(v, +0.0) == `v > 0 ? v : 0`. Spilling every
    // accumulator with constant indices keeps them in registers above;
    // the scatter to [oc][oy][ox] then reads the spilled lanes.
    alignas(32) float res[PX][OCV][kLanes];
    for (std::size_t p = 0; p < PX; ++p) {
      for (std::size_t v = 0; v < OCV; ++v) {
        __m256 r = _mm256_add_ps(acc[p][v],
                                 _mm256_loadu_ps(bgroup + v * kLanes));
        if (fuse_relu) r = _mm256_max_ps(r, zero);
        _mm256_store_ps(res[p][v], r);
      }
    }
    for (std::size_t p = 0; p < PX && j0 + p < n; ++p)
      for (std::size_t v = 0; v < OCV; ++v)
        for (std::size_t l = 0; l < std::min(kLanes, oc_left - v * kLanes);
             ++l)
          out[(v * kLanes + l) * n + j0 + p] = res[p][v][l];
  }
}
#endif

void conv_body_scalar(const float* HSDL_RESTRICT in,
                      const float* HSDL_RESTRICT weight,
                      const float* HSDL_RESTRICT bias,
                      const ConvDirectShape& s, bool fuse_relu,
                      float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t kk = s.in_channels * s.kernel * s.kernel;
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    float* plane = out + oc * oh * ow;
    for (std::size_t j = 0; j < oh * ow; ++j) plane[j] = 0.0f;
    const float* wrow = weight + oc * kk;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      const float* img = in + c * s.height * s.width;
      for (std::size_t ky = 0; ky < s.kernel; ++ky) {
        std::size_t oy0, oy1;
        valid_out_range(oh, s.height, ky, s.stride, s.padding, &oy0, &oy1);
        for (std::size_t kx = 0; kx < s.kernel; ++kx) {
          const float w = wrow[(c * s.kernel + ky) * s.kernel + kx];
          if (w == 0.0f) continue;
          std::size_t ox0, ox1;
          valid_out_range(ow, s.width, kx, s.stride, s.padding, &ox0, &ox1);
          if (ox0 >= ox1) continue;
          const std::size_t len = ox1 - ox0;
          for (std::size_t oy = oy0; oy < oy1; ++oy) {
            const std::size_t iy = oy * s.stride + ky - s.padding;
            const float* HSDL_RESTRICT ip =
                img + iy * s.width + ox0 * s.stride + kx - s.padding;
            float* HSDL_RESTRICT op = plane + oy * ow + ox0;
            for (std::size_t j = 0; j < len; ++j)
              op[j] += w * ip[j * s.stride];
          }
        }
      }
    }
    bias_relu_epilogue(plane, oh * ow, bias[oc], fuse_relu);
  }
}

}  // namespace

void conv2d_direct_scalar(const float* in, const float* weight,
                          const float* bias, const ConvDirectShape& shape,
                          bool fuse_relu, float* out) {
  if (shape.stride == 1) {
    ConvScratch& scratch = conv_scratch();
    const std::size_t pw = fill_padded(in, shape, &scratch.pad);
    scratch.plane.resize(shape.out_height() * pw);
    conv_plane_scalar(scratch.pad.data(), weight, bias, shape, fuse_relu,
                      scratch.plane.data(), out);
    return;
  }
  conv_body_scalar(in, weight, bias, shape, fuse_relu, out);
}

PackedConvWeights pack_conv_weights(const float* weight, const float* bias,
                                    const ConvDirectShape& shape) {
  const std::size_t oc = shape.out_channels;
  const std::size_t kk = shape.in_channels * shape.kernel * shape.kernel;
  const std::size_t nb = (oc + kLanes - 1) / kLanes;
  PackedConvWeights pk{weight, bias, std::vector<float>(nb * kLanes * kk),
                       std::vector<float>(nb * kLanes)};
  for (std::size_t ob = 0; ob < nb; ob += group_vectors(nb, ob)) {
    const std::size_t width = group_vectors(nb, ob) * kLanes;
    float* group = pk.lanes.data() + ob * kLanes * kk;
    for (std::size_t o = ob * kLanes; o < std::min(oc, ob * kLanes + width);
         ++o)
      for (std::size_t t = 0; t < kk; ++t)
        group[t * width + o - ob * kLanes] = weight[o * kk + t];
  }
  std::copy_n(bias, oc, pk.lane_bias.begin());
  return pk;
}

void conv2d_direct(const float* in, const PackedConvWeights& packed,
                   const ConvDirectShape& shape, bool fuse_relu, float* out) {
#ifdef HSDL_CONV_DIRECT_AVX2
  if (cpu::has_avx2_fma()) {
    ConvScratch& scratch = conv_scratch();
    fill_padded(in, shape, &scratch.pad);
    const float* pad = scratch.pad.data();
    const std::size_t oc = shape.out_channels;
    const std::size_t kk = shape.in_channels * shape.kernel * shape.kernel;
    const std::size_t n = shape.out_height() * shape.out_width();
    const std::size_t nb = (oc + kLanes - 1) / kLanes;
    for (std::size_t ob = 0; ob < nb; ob += group_vectors(nb, ob)) {
      const float* w = packed.lanes.data() + ob * kLanes * kk;
      const float* b = packed.lane_bias.data() + ob * kLanes;
      const std::size_t m = oc - ob * kLanes;
      float* o = out + ob * kLanes * n;
      switch (group_vectors(nb, ob)) {
        case 4:
          conv_group_avx2<3, 4>(pad, w, b, shape, m, fuse_relu, o);
          break;
        case 3:
          conv_group_avx2<4, 3>(pad, w, b, shape, m, fuse_relu, o);
          break;
        case 2:
          conv_group_avx2<6, 2>(pad, w, b, shape, m, fuse_relu, o);
          break;
        default:
          conv_group_avx2<12, 1>(pad, w, b, shape, m, fuse_relu, o);
      }
    }
    return;
  }
#endif
  conv2d_direct_scalar(in, packed.weight, packed.bias, shape, fuse_relu, out);
}

}  // namespace hsdl::nn
