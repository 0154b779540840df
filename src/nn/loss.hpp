// Softmax cross-entropy with arbitrary target distributions.
//
// The paper's biased learning (Section 4.3) trains the non-hotspot class
// toward the soft target [1-eps, eps] instead of the one-hot [1, 0], so the
// loss must accept full target distributions, not class indices.
// forward() computes Equations (6)-(7); backward() returns the well-known
// (softmax - target) / N gradient.
#pragma once

#include "nn/tensor.hpp"

namespace hsdl::nn {

class SoftmaxCrossEntropy {
 public:
  /// logits: [N, C]; targets: [N, C] rows summing to 1. Returns mean loss.
  double forward(const Tensor& logits, const Tensor& targets);

  /// dLoss/dLogits for the last forward() call.
  Tensor backward() const;

  /// Softmax probabilities of the last forward() call ([N, C]).
  const Tensor& probabilities() const { return probs_; }

 private:
  Tensor probs_;
  Tensor targets_;
};

/// One row of the stabilized softmax: out[j] = exp(x[j]-max)/sum. This is
/// the single arithmetic definition every softmax in the repo routes
/// through (loss, standalone, and the fused FC+softmax serving path), so
/// they cannot drift numerically. Safe to call in place (out == logits).
void softmax_row(const float* logits, std::size_t c, float* out);

/// Standalone row-wise softmax (numerically stabilized).
Tensor softmax(const Tensor& logits);

}  // namespace hsdl::nn
