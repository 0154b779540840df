// Fused serving walk == layer-wise walk, bit for bit.
//
// Sequential::fused_infer folds conv+ReLU and FC+ReLU into one epilogue,
// skips Dropout and steals the Flatten input buffer; HotspotCnn's
// probabilities end in Linear::infer_softmax. None of that may move a
// bit: every inference entry point must equal a plain Layer::infer loop
// (plus nn::softmax) on the Table-1 network.
#include "hotspot/cnn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {
namespace {

/// The oracle: each layer's own infer(), one at a time, nothing fused.
nn::Tensor layerwise(const nn::Sequential& net, const nn::Tensor& x) {
  nn::Tensor y = x;
  for (std::size_t i = 0; i < net.size(); ++i) y = net.layer(i).infer(y);
  return y;
}

void expect_bitwise(const nn::Tensor& want, const nn::Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.numel() * sizeof(float)));
}

template <class L>
bool has_layer(const nn::Sequential& net) {
  for (std::size_t i = 0; i < net.size(); ++i)
    if (dynamic_cast<const L*>(&net.layer(i)) != nullptr) return true;
  return false;
}

TEST(FusedWalkTest, MatchesLayerwiseInferLoop) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    HotspotCnnConfig cfg;  // Table 1: k=32, n=12, maps 16/32, FC 250
    cfg.seed = seed;
    const HotspotCnn model(cfg);
    const nn::Sequential& net = model.net();
    // The walk this pins must include the layers it special-cases.
    ASSERT_TRUE(has_layer<nn::Dropout>(net));
    ASSERT_TRUE(has_layer<nn::Flatten>(net));

    Rng rng(seed + 100);
    nn::WorkspaceArena ws;  // shared across batches: recycled buffers too
    for (const std::size_t batch : {1u, 3u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " batch "
                                        << batch);
      std::vector<std::size_t> shape = model.input_shape();
      shape.insert(shape.begin(), batch);
      nn::Tensor x(shape);
      for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.normal());

      const nn::Tensor logits = layerwise(net, x);
      const nn::Tensor probs = nn::softmax(logits);
      expect_bitwise(logits, net.infer(x));
      nn::Tensor arena_logits = net.infer(x, ws);
      expect_bitwise(logits, arena_logits);
      ws.recycle(std::move(arena_logits));
      expect_bitwise(probs, model.probabilities(x));
      nn::Tensor arena_probs = model.probabilities(x, ws);
      expect_bitwise(probs, arena_probs);
      ws.recycle(std::move(arena_probs));
    }
  }
}

}  // namespace
}  // namespace hsdl::hotspot
