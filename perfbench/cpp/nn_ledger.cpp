// Per-layer ledger of the model: forward time per window through the
// served entry point (CnnDetector::score_batch, fp32 and int8), each
// Table-1 layer through Layer::infer on real feature tensors with its
// GFLOP/s, and the GEMM peak of the machine measured in the same run.
#include <algorithm>
#include <span>

#include "bench.hpp"
#include "common/check.hpp"
#include "layout/raster.hpp"
#include "nn/gemm.hpp"
#include "nn/workspace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 64;

/// Median seconds of `reps` calls of `fn`.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

/// Table-1 layers as the serving path fuses them: each conv/FC with the
/// ReLU after it; fc1 also carries Flatten before and Dropout after.
struct LayerGroup {
  const char* name;
  std::size_t first, last;  // inclusive Sequential indices
};
constexpr LayerGroup kGroups[] = {
    {"conv1_1", 0, 1}, {"conv1_2", 2, 3}, {"pool1", 4, 4},
    {"conv2_1", 5, 6}, {"conv2_2", 7, 8}, {"pool2", 9, 9},
    {"fc1", 10, 13},   {"fc2", 14, 14},
};

/// Multiply-add FLOPs per window of each group (0 for pooling).
double group_flops(const hotspot::HotspotCnnConfig& c, const std::string& g) {
  const double n = static_cast<double>(c.input_side);
  const double k = static_cast<double>(c.input_channels);
  const double s1 = static_cast<double>(c.stage1_maps);
  const double s2 = static_cast<double>(c.stage2_maps);
  const double fc = static_cast<double>(c.fc_nodes);
  if (g == "conv1_1") return 2 * s1 * k * 9 * n * n;
  if (g == "conv1_2") return 2 * s1 * s1 * 9 * n * n;
  if (g == "conv2_1") return 2 * s2 * s1 * 9 * (n / 2) * (n / 2);
  if (g == "conv2_2") return 2 * s2 * s2 * 9 * (n / 2) * (n / 2);
  if (g == "fc1") return 2 * s2 * (n / 4) * (n / 4) * fc;
  if (g == "fc2") return 2 * fc * 2;
  return 0.0;
}

}  // namespace

void measure_extraction(const hotspot::CnnDetector& detector,
                        const std::vector<layout::Clip>& clips,
                        double& rasterize_us, double& dct_zigzag_us) {
  const std::vector<std::size_t> shape = detector.model().input_shape();
  std::vector<float> out(shape[0] * shape[1] * shape[2]);
  const double nm_per_px = detector.extractor().config().nm_per_px;
  layout::MaskImage raster;
  double ras = 0.0, dct = 0.0;
  for (const layout::Clip& clip : clips) {
    const Clock::time_point t0 = Clock::now();
    layout::rasterize_into(clip, nm_per_px, raster);
    const Clock::time_point t1 = Clock::now();
    detector.extractor().extract_into(raster, out);
    const Clock::time_point t2 = Clock::now();
    ras += std::chrono::duration<double>(t1 - t0).count();
    dct += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, clips.size()));
  rasterize_us = ras * 1e6 / n;
  dct_zigzag_us = dct * 1e6 / n;
}

void run_nn_ledger(const hotspot::CnnDetector& detector,
                   const std::vector<layout::Clip>& clips, Results& out) {
  HSDL_CHECK(!clips.empty());
  HSDL_CHECK_MSG(detector.quantized_net() != nullptr,
                 "the nn ledger needs an int8-calibrated detector");
  const std::vector<std::size_t> shape = detector.model().input_shape();
  const std::size_t feat = shape[0] * shape[1] * shape[2];
  nn::Tensor x64({kBatch, shape[0], shape[1], shape[2]});
  for (std::size_t i = 0; i < kBatch; ++i)
    detector.extractor().extract_into(
        clips[i % clips.size()], std::span<float>(x64.data() + i * feat, feat));
  nn::Tensor x1({1, shape[0], shape[1], shape[2]});
  std::copy(x64.data(), x64.data() + feat, x1.data());

  nn::WorkspaceArena arena;
  const auto forward = [&](const nn::Tensor& x, bool int8) {
    nn::Tensor p = detector.score_batch(x, arena, int8);
    arena.recycle(std::move(p));
  };
  for (int i = 0; i < 3; ++i) {  // warm the arena and caches
    forward(x64, false);
    forward(x64, true);
  }
  out.set("nn.forward_us_per_window.fp32_b1",
          median_seconds(200, [&] { forward(x1, false); }) * 1e6, "us");
  out.set("nn.forward_us_per_window.fp32_b64",
          median_seconds(30, [&] { forward(x64, false); }) * 1e6 / kBatch,
          "us");
  out.set("nn.forward_us_per_window.int8_b64",
          median_seconds(30, [&] { forward(x64, true); }) * 1e6 / kBatch,
          "us");

  const nn::Sequential& net = detector.model().net();
  HSDL_CHECK_MSG(net.size() == 15, "unexpected Table-1 layer stack");
  const hotspot::HotspotCnnConfig& cfg = detector.model().config();
  nn::Tensor act = x64;
  for (const LayerGroup& g : kGroups) {
    double seconds = 0.0;
    for (std::size_t i = g.first; i <= g.last; ++i) {
      const nn::Layer& layer = net.layer(i);
      nn::Tensor next;
      seconds += median_seconds(7, [&] { next = layer.infer(act); });
      act = std::move(next);
    }
    const double us = seconds * 1e6 / kBatch;
    out.set(std::string("nn.layer.") + g.name + ".us", us, "us");
    const double flops = group_flops(cfg, g.name);
    if (flops > 0.0)
      out.set(std::string("nn.layer.") + g.name + ".gflops",
              flops / (us * 1e-6) / 1e9, "GFLOP/s");
  }

  constexpr std::size_t kDim = 384;
  std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 17) * 0.01f;
    b[i] = static_cast<float>(i % 13) * 0.02f;
  }
  const auto gemm = [&] {
    nn::gemm(false, false, kDim, kDim, kDim, 1.0f, a.data(), kDim, b.data(),
             kDim, 0.0f, c.data(), kDim);
  };
  gemm();
  const double gemm_s = median_seconds(15, gemm);
  out.set("nn.gemm_peak_gflops",
          2.0 * kDim * kDim * kDim / gemm_s / 1e9, "GFLOP/s");
}

}  // namespace perfbench
