#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace hsdl::nn {

void softmax_row(const float* logits, std::size_t c, float* out) {
  float m = logits[0];
  for (std::size_t j = 1; j < c; ++j) m = std::max(m, logits[j]);
  double denom = 0.0;
  for (std::size_t j = 0; j < c; ++j)
    denom += std::exp(static_cast<double>(logits[j] - m));
  // Each element reads logits[j] before writing out[j], so out == logits
  // (in-place, used by the fused FC+softmax path) is well defined.
  for (std::size_t j = 0; j < c; ++j)
    out[j] = static_cast<float>(std::exp(static_cast<double>(logits[j] - m)) /
                                denom);
}

Tensor softmax(const Tensor& logits) {
  HSDL_CHECK(logits.dim() == 2);
  Tensor out(logits.shape());
  const std::size_t n = logits.extent(0), c = logits.extent(1);
  for (std::size_t i = 0; i < n; ++i)
    softmax_row(logits.data() + i * c, c, out.data() + i * c);
  return out;
}

double SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    const Tensor& targets) {
  HSDL_CHECK(logits.dim() == 2);
  HSDL_CHECK_MSG(same_shape(logits, targets),
                 "logits " << logits.shape_str() << " vs targets "
                           << targets.shape_str());
  probs_ = softmax(logits);
  targets_ = targets;
  const std::size_t n = logits.extent(0), c = logits.extent(1);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const double t = targets.at(i, j);
      if (t == 0.0) continue;  // paper Eq. (8): lim x->0 of x log x = 0
      const double p =
          std::max(static_cast<double>(probs_.at(i, j)), 1e-12);
      loss -= t * std::log(p);
    }
  }
  return loss / static_cast<double>(n);
}

Tensor SoftmaxCrossEntropy::backward() const {
  HSDL_CHECK_MSG(!probs_.empty(), "backward before forward");
  const std::size_t n = probs_.extent(0);
  Tensor grad(probs_.shape());
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < probs_.numel(); ++i)
    grad[i] = (probs_[i] - targets_[i]) * inv_n;
  return grad;
}

}  // namespace hsdl::nn
