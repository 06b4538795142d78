#include "nn/model.hpp"

#include "common/rng.hpp"

namespace dms {

SageModel::SageModel(const ModelConfig& config) : config_(config) {
  check(config.num_layers >= 1, "SageModel: need at least one layer");
  for (index_t l = 0; l < config.num_layers; ++l) {
    const index_t in = l == 0 ? config.in_dim : config.hidden;
    const index_t out = l == config.num_layers - 1 ? config.num_classes : config.hidden;
    layers_.emplace_back(in, out, derive_seed(config.seed, static_cast<std::uint64_t>(l)));
  }
}

DenseF SageModel::forward(const MinibatchSample& sample, const DenseF& h_input,
                          std::vector<SageLayerCache>* caches) const {
  check(sample.num_layers() == config_.num_layers,
        "SageModel::forward: sample depth != model depth");
  check(h_input.rows() ==
            static_cast<index_t>(sample.input_vertices().size()),
        "SageModel::forward: input feature row mismatch");
  if (caches != nullptr) caches->resize(layers_.size());

  // Model layer m consumes sampled adjacency layers[L-1-m]: the deepest
  // sampled layer feeds the first weight layer.
  DenseF h = h_input;
  for (std::size_t m = 0; m < layers_.size(); ++m) {
    const LayerSample& ls = sample.layers[layers_.size() - 1 - m];
    const bool is_last = m + 1 == layers_.size();
    SageLayerCache* cache = caches != nullptr ? &(*caches)[m] : nullptr;
    SageLayerCache local;
    h = layers_[m].forward(ls.adj, h, /*relu=*/!is_last,
                           cache != nullptr ? cache : &local);
  }
  return h;
}

void SageModel::backward(const MinibatchSample& sample, const DenseF& dlogits,
                         const std::vector<SageLayerCache>& caches) {
  check(caches.size() == layers_.size(), "SageModel::backward: cache mismatch");
  (void)sample;
  DenseF d = dlogits;
  for (std::size_t m = layers_.size(); m-- > 0;) {
    d = layers_[m].backward(d, caches[m]);
  }
}

LossResult SageModel::train_step(const MinibatchSample& sample, const DenseF& h_input,
                                 const std::vector<int>& batch_labels) {
  std::vector<SageLayerCache> caches;
  const DenseF logits = forward(sample, h_input, &caches);
  LossResult res = softmax_cross_entropy(logits, batch_labels);
  backward(sample, res.dlogits, caches);
  return res;
}

void SageModel::zero_grads() {
  for (auto& l : layers_) l.zero_grads();
}

void SageModel::scale_grads(float inv_d) {
  for (auto& l : layers_) {
    for (DenseF* g : {&l.grad_w_self(), &l.grad_w_neigh(), &l.grad_bias()}) {
      float* d = g->data();
      for (std::size_t i = 0; i < g->size(); ++i) d[i] *= inv_d;
    }
  }
}

std::vector<ParamGrad> SageModel::params() {
  std::vector<ParamGrad> out;
  for (auto& l : layers_) {
    out.push_back({&l.w_self(), &l.grad_w_self()});
    out.push_back({&l.w_neigh(), &l.grad_w_neigh()});
    out.push_back({&l.bias(), &l.grad_bias()});
  }
  return out;
}

std::size_t SageModel::param_bytes() const {
  std::size_t b = 0;
  for (const auto& l : layers_) b += l.param_bytes();
  return b;
}

}  // namespace dms
