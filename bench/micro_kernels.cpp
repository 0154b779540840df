// Micro-benchmarks (google-benchmark) for the computational kernels under
// the paper's pipeline: GEMM, DCT (full vs partial), zig-zag, clip
// rasterization, feature tensor extraction, aerial-image simulation,
// hotspot labeling, CNN forward/backward and the fp32 direct conv at the
// Table-1 layer shapes.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fte/feature_tensor.hpp"
#include "hotspot/cnn.hpp"
#include "layout/generator.hpp"
#include "layout/raster.hpp"
#include "litho/labeler.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"

namespace {

using namespace hsdl;

layout::Clip demo_clip(std::uint64_t seed = 9) {
  layout::GeneratorConfig cfg;
  cfg.stress = 0.45;
  layout::ClipGenerator gen(cfg, seed);
  return gen.generate();
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::matmul(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::gemm_naive(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                   0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

// Arg pair (size, threads); threads = 0 uses the hardware default.
void BM_GemmThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_num_threads(static_cast<std::size_t>(state.range(1)));
  std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
  for (auto _ : state) {
    nn::matmul(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmThreaded)->Args({256, 1})->Args({256, 0});

void BM_DctFull(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  fte::DctPlan plan(b);
  std::vector<float> in(b * b, 0.5f), out(b * b);
  for (auto _ : state) {
    plan.forward(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DctFull)->Arg(50)->Arg(100);

void BM_DctPartial(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  fte::DctPlan plan(b);
  std::vector<float> in(b * b, 0.5f), out(8 * 8);
  for (auto _ : state) {
    plan.partial(in.data(), 8, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DctPartial)->Arg(50)->Arg(100);

void BM_Rasterize(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  for (auto _ : state) {
    auto img = layout::rasterize(clip, 2.0);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_Rasterize);

void BM_FeatureTensorExtract(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  fte::FeatureTensorConfig cfg;
  cfg.coeffs = static_cast<std::size_t>(state.range(0));
  fte::FeatureTensorExtractor ex(cfg);
  for (auto _ : state) {
    auto ft = ex.extract(clip);
    benchmark::DoNotOptimize(ft.data.data());
  }
}
BENCHMARK(BM_FeatureTensorExtract)->Arg(16)->Arg(32)->Arg(64);

// Extraction stage per window at the paper configuration (600x600 px,
// n=12, k=32), split by front-end so one run compares them: the clip
// overload builds column runs from the shapes, the raster path fills a
// reused raster first and then finds the runs by comparing columns.
// RasterizeOnly isolates the fill. Items are windows.
std::vector<layout::Clip> stage_clips() {
  std::vector<layout::Clip> clips;
  for (std::uint64_t i = 0; i < 32; ++i) clips.push_back(demo_clip(200 + i));
  return clips;
}

void BM_ExtractStageClipPath(benchmark::State& state) {
  const std::vector<layout::Clip> clips = stage_clips();
  fte::FeatureTensorExtractor ex;
  std::vector<float> out(32 * 12 * 12);
  std::size_t i = 0;
  for (auto _ : state) {
    ex.extract_into(clips[i++ % clips.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtractStageClipPath);

void BM_ExtractStageRasterizeOnly(benchmark::State& state) {
  const std::vector<layout::Clip> clips = stage_clips();
  layout::MaskImage raster;
  std::size_t i = 0;
  for (auto _ : state) {
    layout::rasterize_into(clips[i++ % clips.size()], 2.0, raster);
    benchmark::DoNotOptimize(raster.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtractStageRasterizeOnly);

void BM_ExtractStageRasterPath(benchmark::State& state) {
  const std::vector<layout::Clip> clips = stage_clips();
  fte::FeatureTensorExtractor ex;
  layout::MaskImage raster;
  std::vector<float> out(32 * 12 * 12);
  std::size_t i = 0;
  for (auto _ : state) {
    layout::rasterize_into(clips[i++ % clips.size()], 2.0, raster);
    ex.extract_into(raster, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtractStageRasterPath);

// Arg pair (clips, threads); threads = 0 uses the hardware default.
void BM_FeatureTensorBatch(benchmark::State& state) {
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i)
    clips.push_back(demo_clip(100 + i));
  set_num_threads(static_cast<std::size_t>(state.range(1)));
  fte::FeatureTensorExtractor ex;
  for (auto _ : state) {
    auto fts = ex.extract_batch(clips);
    benchmark::DoNotOptimize(fts.data());
  }
  set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FeatureTensorBatch)->Args({16, 1})->Args({16, 0});

void BM_AerialImage(benchmark::State& state) {
  const layout::Clip clip = demo_clip();
  litho::LithoSimulator sim;
  const layout::MaskImage mask = sim.rasterize(clip);
  for (auto _ : state) {
    auto img = sim.aerial(mask, sim.config().nominal);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_AerialImage);

void BM_HotspotLabel(benchmark::State& state) {
  litho::HotspotLabeler labeler;
  const layout::Clip clip = demo_clip();
  for (auto _ : state) {
    auto label = labeler.label(clip);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_HotspotLabel);

void BM_CnnForward(benchmark::State& state) {
  hotspot::HotspotCnn model;
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::Tensor x({batch, 32, 12, 12}, 0.5f);
  for (auto _ : state) {
    auto p = model.probabilities(x);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(32);

// One Table-1 conv (3x3, pad 1, + ReLU) through the served entry point,
// Conv2d::infer_relu, on a batch of 64 post-ReLU maps: weight packing
// plus the direct kernel, on one thread so GFLOP/s is per core.
void BM_ConvTable1(benchmark::State& state, std::size_t in_c,
                   std::size_t out_c, std::size_t side) {
  constexpr std::size_t kBatch = 64;
  Rng rng(5);
  nn::Conv2dConfig cfg;
  cfg.in_channels = in_c;
  cfg.out_channels = out_c;
  nn::Conv2d conv(cfg, rng);
  nn::Tensor x({kBatch, in_c, side, side});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = std::max(0.0f, static_cast<float>(rng.normal()));
  set_num_threads(1);
  for (auto _ : state) {
    nn::Tensor y = conv.infer_relu(x);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_num_threads(0);
  const double flops =
      2.0 * static_cast<double>(kBatch * out_c * in_c * 9 * side * side);
  // A rate counter: printed as GFLOP=<n>/s.
  state.counters["GFLOP"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ConvTable1, conv1_1, 32, 16, 12);
BENCHMARK_CAPTURE(BM_ConvTable1, conv1_2, 16, 16, 12);
BENCHMARK_CAPTURE(BM_ConvTable1, conv2_1, 16, 32, 6);
BENCHMARK_CAPTURE(BM_ConvTable1, conv2_2, 32, 32, 6);

void BM_CnnTrainStep(benchmark::State& state) {
  hotspot::HotspotCnn model;
  nn::Tensor x({32, 32, 12, 12}, 0.5f);
  nn::Tensor t({32, 2});
  for (std::size_t i = 0; i < 32; ++i) t.at(i, i % 2) = 1.0f;
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    model.net().zero_grad();
    auto logits = model.net().forward(x, true);
    benchmark::DoNotOptimize(loss.forward(logits, t));
    model.net().backward(loss.backward());
  }
}
BENCHMARK(BM_CnnTrainStep);

void BM_ClipGenerate(benchmark::State& state) {
  layout::GeneratorConfig cfg;
  layout::ClipGenerator gen(cfg, 4);
  for (auto _ : state) {
    auto clip = gen.generate();
    benchmark::DoNotOptimize(clip.shapes.data());
  }
}
BENCHMARK(BM_ClipGenerate);

}  // namespace
