#include "nn/conv_direct.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpuinfo.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// The reference arithmetic the direct kernel promises to reproduce
/// bitwise: im2col, then per output element a +0.0-seeded accumulation
/// over ascending p (skipping zero weights, like gemm_naive), then bias
/// and the optional ReLU predicate.
std::vector<float> ref_conv(const std::vector<float>& in,
                            const std::vector<float>& weight,
                            const std::vector<float>& bias,
                            const ConvDirectShape& s, bool fuse_relu) {
  const std::size_t rows = s.in_channels * s.kernel * s.kernel;
  const std::size_t cols = s.out_height() * s.out_width();
  std::vector<float> col(rows * cols);
  im2col(in.data(), s.in_channels, s.height, s.width, s.kernel, s.stride,
         s.padding, col.data());
  std::vector<float> out(s.out_channels * cols);
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < rows; ++p) {
        const float w = weight[oc * rows + p];
        if (w == 0.0f) continue;
        acc += w * col[p * cols + j];
      }
      float v = acc + bias[oc];
      if (fuse_relu) v = v > 0.0f ? v : 0.0f;
      out[oc * cols + j] = v;
    }
  }
  return out;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

std::vector<float> run_direct(const std::vector<float>& in,
                              const std::vector<float>& weight,
                              const std::vector<float>& bias,
                              const ConvDirectShape& s, bool fuse_relu) {
  const PackedConvWeights packed =
      pack_conv_weights(weight.data(), bias.data(), s);
  std::vector<float> out(s.out_channels * s.out_height() * s.out_width(),
                         -1.0f);
  conv2d_direct(in.data(), packed, s, fuse_relu, out.data());
  return out;
}

/// The dispatched kernel, the scalar twin and the dispatcher under a
/// forced-scalar override all reproduce ref_conv bit for bit.
void expect_all_paths_match_ref(const std::vector<float>& in,
                                const std::vector<float>& weight,
                                const std::vector<float>& bias,
                                const ConvDirectShape& s, bool fuse_relu) {
  const std::vector<float> want = ref_conv(in, weight, bias, s, fuse_relu);
  expect_bitwise_equal(want, run_direct(in, weight, bias, s, fuse_relu));
  std::vector<float> scalar(want.size(), -1.0f);
  conv2d_direct_scalar(in.data(), weight.data(), bias.data(), s, fuse_relu,
                       scalar.data());
  expect_bitwise_equal(want, scalar);
  const bool prev = cpu::force_scalar();
  cpu::set_force_scalar(true);
  const std::vector<float> forced = run_direct(in, weight, bias, s, fuse_relu);
  cpu::set_force_scalar(prev);
  expect_bitwise_equal(want, forced);
}

/// Weights with every `every`-th entry an exact zero.
std::vector<float> weights_with_zeros(std::size_t n, std::size_t every,
                                      Rng& rng) {
  std::vector<float> w = random_vec(n, rng);
  for (std::size_t i = 0; i < n; i += every) w[i] = 0.0f;
  return w;
}

/// Post-ReLU activations: about half are exact +0.0.
std::vector<float> relu_vec(std::size_t n, Rng& rng) {
  std::vector<float> v = random_vec(n, rng);
  for (float& x : v) x = x > 0.0f ? x : 0.0f;
  return v;
}

ConvDirectShape make_shape(std::size_t ic, std::size_t h, std::size_t w,
                           std::size_t oc, std::size_t k, std::size_t stride,
                           std::size_t pad) {
  ConvDirectShape s;
  s.in_channels = ic;
  s.height = h;
  s.width = w;
  s.out_channels = oc;
  s.kernel = k;
  s.stride = stride;
  s.padding = pad;
  return s;
}

TEST(ConvDirectTest, BitwiseMatchesIm2colAcrossShapes) {
  Rng rng(7);
  for (std::size_t ic : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
          ConvDirectShape s;
          s.in_channels = ic;
          s.height = 9;  // odd dims exercise the AVX2 tail loops
          s.width = 7;
          s.out_channels = 4;
          s.kernel = k;
          s.stride = stride;
          s.padding = pad;
          const std::vector<float> in = random_vec(ic * 9 * 7, rng);
          const std::vector<float> w =
              random_vec(s.out_channels * ic * k * k, rng);
          const std::vector<float> b = random_vec(s.out_channels, rng);
          SCOPED_TRACE(::testing::Message()
                       << "ic=" << ic << " k=" << k << " stride=" << stride
                       << " pad=" << pad);
          expect_all_paths_match_ref(in, w, b, s, false);
        }
      }
    }
  }
}

TEST(ConvDirectTest, FusedReluMatchesSeparatePass) {
  Rng rng(11);
  ConvDirectShape s;
  s.in_channels = 3;
  s.height = 11;
  s.width = 11;
  s.out_channels = 6;
  s.kernel = 3;
  s.padding = 1;
  const std::vector<float> in = random_vec(3 * 11 * 11, rng);
  const std::vector<float> w = random_vec(6 * 3 * 3 * 3, rng);
  const std::vector<float> b = random_vec(6, rng);
  std::vector<float> plain = run_direct(in, w, b, s, false);
  const std::vector<float> fused = run_direct(in, w, b, s, true);
  for (float& v : plain) v = v > 0.0f ? v : 0.0f;
  expect_bitwise_equal(plain, fused);
}

TEST(ConvDirectTest, ScalarMatchesDispatchedKernel) {
  Rng rng(13);
  ConvDirectShape s;
  s.in_channels = 2;
  s.height = 13;
  s.width = 9;
  s.out_channels = 5;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  const std::vector<float> in = random_vec(2 * 13 * 9, rng);
  const std::vector<float> w = random_vec(5 * 2 * 3 * 3, rng);
  const std::vector<float> b = random_vec(5, rng);
  std::vector<float> scalar(5 * s.out_height() * s.out_width());
  conv2d_direct_scalar(in.data(), w.data(), b.data(), s, true, scalar.data());
  expect_bitwise_equal(scalar, run_direct(in, w, b, s, true));
  // Forcing the scalar path through the shared dispatcher gives the same
  // bits again.
  const bool prev = cpu::force_scalar();
  cpu::set_force_scalar(true);
  const std::vector<float> forced = run_direct(in, w, b, s, true);
  cpu::set_force_scalar(prev);
  expect_bitwise_equal(scalar, forced);
}

// The serving net's four convs (Table 1: 3x3, pad 1, stride 1) at the
// paper's 12x12 feature grid, 16 and 32 maps: the 16- and 32-channel
// register tiles, with exact-zero weights and post-ReLU inputs. Compared
// against ref_conv rather than the training path's im2col GEMM: above the
// GEMM cutoff that runs the blocked FMA GEMM, which rounds differently.
TEST(ConvDirectTest, Table1ShapesMatchReferenceBitwise) {
  Rng rng(23);
  struct Layer {
    std::size_t ic, oc, hw;
  };
  for (const Layer& l : {Layer{32, 16, 12}, Layer{16, 16, 12},
                         Layer{16, 32, 6}, Layer{32, 32, 6}}) {
    const ConvDirectShape s = make_shape(l.ic, l.hw, l.hw, l.oc, 3, 1, 1);
    const std::vector<float> in = relu_vec(l.ic * l.hw * l.hw, rng);
    const std::vector<float> w = weights_with_zeros(l.oc * l.ic * 9, 7, rng);
    const std::vector<float> b = random_vec(l.oc, rng);
    for (bool relu : {false, true}) {
      SCOPED_TRACE(::testing::Message() << l.ic << "->" << l.oc << " at "
                                        << l.hw << " relu=" << relu);
      expect_all_paths_match_ref(in, w, b, s, relu);
    }
  }
}

// Channel counts around the 8-lane vectors and 32-channel groups (one
// partial vector, full + partial, four full + one partial) at strides
// 1-3, so the tail lanes and the stride-carrying pixel offsets are hit.
TEST(ConvDirectTest, ChannelTailsMatchReferenceAcrossStrides) {
  Rng rng(29);
  for (std::size_t oc : {std::size_t{1}, std::size_t{7}, std::size_t{9},
                         std::size_t{17}, std::size_t{33}}) {
    for (std::size_t stride : {std::size_t{1}, std::size_t{2},
                               std::size_t{3}}) {
      const ConvDirectShape s = make_shape(3, 11, 10, oc, 3, stride, 1);
      const std::vector<float> in = relu_vec(3 * 11 * 10, rng);
      const std::vector<float> w = weights_with_zeros(oc * 27, 5, rng);
      const std::vector<float> b = random_vec(oc, rng);
      SCOPED_TRACE(::testing::Message() << "oc=" << oc
                                        << " stride=" << stride);
      expect_all_paths_match_ref(in, w, b, s, true);
    }
  }
}

// Direct conv == im2col reference on generated shapes: channel counts,
// extents, kernel, stride, padding, zero density and fusion drawn from a
// seeded generator.
TEST(ConvDirectTest, GeneratedShapesMatchReferenceBitwise) {
  Rng rng(31);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  for (int trial = 0; trial < 120; ++trial) {
    // One draw per statement: argument evaluation order is unspecified.
    const std::size_t k = draw(1, 5);
    const std::size_t pad = draw(0, 2);
    const std::size_t min_extent = k > 2 * pad ? k - 2 * pad : 1;
    const std::size_t ic = draw(1, 6);
    const std::size_t h = draw(min_extent, 14);
    const std::size_t wd = draw(min_extent, 14);
    const std::size_t oc = draw(1, 40);
    const std::size_t stride = draw(1, 3);
    const ConvDirectShape s = make_shape(ic, h, wd, oc, k, stride, pad);
    const bool relu_input = draw(0, 1) == 1;
    const std::vector<float> in = relu_input ? relu_vec(ic * h * wd, rng)
                                             : random_vec(ic * h * wd, rng);
    const std::size_t zero_every = draw(2, 9);
    const std::vector<float> w =
        weights_with_zeros(oc * ic * k * k, zero_every, rng);
    const std::vector<float> b = random_vec(oc, rng);
    const bool fuse_relu = draw(0, 1) == 1;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": " << ic << "x" << h << "x" << wd
                 << " -> " << oc << " k=" << k << " stride=" << stride
                 << " pad=" << pad);
    expect_all_paths_match_ref(in, w, b, s, fuse_relu);
  }
}

// Conv2d's serving entry points (allocating and arena-backed, plain and
// fused ReLU) against ref_conv one sample at a time, at batch 3. The
// Table-1 conv1_1 shape (32 -> 16 maps at 12x12) is above the GEMM
// cutoff, where the training path's blocked FMA GEMM rounds differently
// and cannot stand in for the oracle.
TEST(ConvDirectTest, Conv2dInferMatchesRefConvPerSample) {
  Rng rng(17);
  struct Shape {
    std::size_t ic, oc, hw;
  };
  for (const Shape& sh : {Shape{3, 8, 12}, Shape{32, 16, 12}}) {
    SCOPED_TRACE(::testing::Message() << sh.ic << "->" << sh.oc);
    Conv2dConfig cfg;
    cfg.in_channels = sh.ic;
    cfg.out_channels = sh.oc;
    Conv2d conv(cfg, rng);
    Tensor& weight = conv.weight().value;
    for (std::size_t i = 0; i < weight.numel(); i += 7) weight[i] = 0.0f;
    const std::vector<float> w(weight.data(), weight.data() + weight.numel());
    const Tensor& bias = conv.bias().value;
    const std::vector<float> b(bias.data(), bias.data() + bias.numel());
    const std::size_t batch = 3;
    Tensor x({batch, sh.ic, sh.hw, sh.hw});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.normal());

    WorkspaceArena ws;
    const Tensor plain[] = {conv.infer(x), conv.infer(x, ws)};
    const Tensor relu[] = {conv.infer_relu(x), conv.infer_relu(x, ws)};
    const ConvDirectShape s = make_shape(sh.ic, sh.hw, sh.hw, sh.oc, 3, 1, 1);
    const std::size_t in_size = sh.ic * sh.hw * sh.hw;
    const std::size_t out_size = sh.oc * sh.hw * sh.hw;
    for (std::size_t i = 0; i < batch; ++i) {
      SCOPED_TRACE(::testing::Message() << "sample " << i);
      const std::vector<float> in(x.data() + i * in_size,
                                  x.data() + (i + 1) * in_size);
      const auto sample = [&](const Tensor& t) {
        return std::vector<float>(t.data() + i * out_size,
                                  t.data() + (i + 1) * out_size);
      };
      const std::vector<float> want = ref_conv(in, w, b, s, false);
      const std::vector<float> want_relu = ref_conv(in, w, b, s, true);
      for (const Tensor& t : plain) expect_bitwise_equal(want, sample(t));
      for (const Tensor& t : relu) expect_bitwise_equal(want_relu, sample(t));
    }
  }
}

TEST(ConvDirectTest, Conv2dInferReluMatchesInferThenRelu) {
  Rng rng(19);
  Conv2dConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  Conv2d conv(cfg, rng);
  Tensor x({3, 4, 10, 10});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal());
  Tensor fused = conv.infer_relu(x);
  Tensor plain = conv.infer(x);
  for (std::size_t i = 0; i < plain.numel(); ++i)
    plain[i] = plain[i] > 0.0f ? plain[i] : 0.0f;
  ASSERT_EQ(fused.shape(), plain.shape());
  ASSERT_EQ(0, std::memcmp(fused.data(), plain.data(),
                           fused.numel() * sizeof(float)));
}

}  // namespace
}  // namespace hsdl::nn
