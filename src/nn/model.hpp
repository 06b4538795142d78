// Multi-layer GraphSAGE model over sampled minibatches (the §6.2 propagation
// step; paper architecture in Table 4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sampler.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sage_layer.hpp"

namespace dms {

struct ModelConfig {
  index_t in_dim = 32;
  index_t hidden = 32;    ///< paper: 256
  index_t num_classes = 16;
  index_t num_layers = 3; ///< must match the sampler's layer count
  std::uint64_t seed = 11;
};

class SageModel {
 public:
  explicit SageModel(const ModelConfig& config);

  /// Forward over a sampled minibatch. h_input holds the input features of
  /// sample.input_vertices() (last frontier × in_dim). Returns batch logits.
  /// caches (optional) retains activations for backward().
  DenseF forward(const MinibatchSample& sample, const DenseF& h_input,
                 std::vector<SageLayerCache>* caches) const;

  /// Backpropagates dlogits through the cached activations, accumulating
  /// parameter gradients.
  void backward(const MinibatchSample& sample, const DenseF& dlogits,
                const std::vector<SageLayerCache>& caches);

  /// Convenience: forward + loss + backward. Gradients accumulate; call
  /// zero_grads() between steps.
  LossResult train_step(const MinibatchSample& sample, const DenseF& h_input,
                        const std::vector<int>& batch_labels);

  void zero_grads();

  /// Scales all gradients by 1/d (data-parallel averaging across d ranks).
  void scale_grads(float inv_d);

  std::vector<ParamGrad> params();
  std::size_t param_bytes() const;

  const ModelConfig& config() const { return config_; }
  std::vector<SageLayer>& layers() { return layers_; }

 private:
  ModelConfig config_;
  std::vector<SageLayer> layers_;
};

}  // namespace dms
