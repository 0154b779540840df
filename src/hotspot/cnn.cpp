#include "hotspot/cnn.hpp"

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {

HotspotCnn::HotspotCnn(const HotspotCnnConfig& config)
    : config_(config), rng_(std::make_unique<Rng>(config.seed)) {
  HSDL_CHECK(config.input_channels > 0);
  HSDL_CHECK_MSG(config.input_side % 4 == 0,
                 "two 2x2 poolings need the input side divisible by 4");
  Rng& rng = *rng_;

  auto conv = [&](std::size_t in, std::size_t out) {
    nn::Conv2dConfig c;
    c.in_channels = in;
    c.out_channels = out;
    c.kernel = 3;
    c.stride = 1;
    c.padding = 1;  // same padding: Table 1 keeps 12x12 / 6x6 through convs
    return c;
  };

  // Stage 1
  net_.emplace<nn::Conv2d>(conv(config.input_channels, config.stage1_maps),
                           rng);
  net_.emplace<nn::Relu>();
  net_.emplace<nn::Conv2d>(conv(config.stage1_maps, config.stage1_maps), rng);
  net_.emplace<nn::Relu>();
  net_.emplace<nn::MaxPool2d>(2);
  // Stage 2
  net_.emplace<nn::Conv2d>(conv(config.stage1_maps, config.stage2_maps), rng);
  net_.emplace<nn::Relu>();
  net_.emplace<nn::Conv2d>(conv(config.stage2_maps, config.stage2_maps), rng);
  net_.emplace<nn::Relu>();
  net_.emplace<nn::MaxPool2d>(2);
  // Classifier
  net_.emplace<nn::Flatten>();
  const std::size_t side_after = config.input_side / 4;
  const std::size_t flat = config.stage2_maps * side_after * side_after;
  net_.emplace<nn::Linear>(flat, config.fc_nodes, rng);
  net_.emplace<nn::Relu>();
  net_.emplace<nn::Dropout>(config.dropout, rng);
  net_.emplace<nn::Linear>(config.fc_nodes, std::size_t{2}, rng);
}

std::vector<std::size_t> HotspotCnn::input_shape() const {
  return {config_.input_channels, config_.input_side, config_.input_side};
}

nn::Tensor HotspotCnn::logits(const nn::Tensor& input, bool train) {
  return net_.forward(input, train);
}

nn::Tensor HotspotCnn::probabilities(const nn::Tensor& input) const {
  return nn::softmax(net_.infer(input));
}

nn::Tensor HotspotCnn::probabilities(const nn::Tensor& input,
                                     nn::WorkspaceArena& ws) const {
  // Run the fused walk up to (but not including) the final Linear, then
  // apply FC + softmax in one pass so the logits never round-trip through
  // the arena. Bitwise identical to softmax(net_.infer(input)) (shared
  // softmax_row kernel). The constructor always ends the net in a Linear.
  const std::size_t head = net_.size() - 1;
  const auto& fc = dynamic_cast<const nn::Linear&>(net_.layer(head));
  nn::Tensor feat = net_.infer_prefix(input, head, ws);
  nn::Tensor probs = fc.infer_softmax(feat, ws);
  ws.recycle(std::move(feat));
  return probs;
}

}  // namespace hsdl::hotspot
