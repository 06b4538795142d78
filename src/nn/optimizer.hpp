// The training optimizer, Adam, operating on flat lists of (param, grad)
// tensor pairs; its state serializes through common/binio into
// checkpoints.
#pragma once

#include <vector>

#include "sparse/dense.hpp"

namespace dms {

class BinReader;
class BinWriter;

struct ParamGrad {
  DenseF* param = nullptr;
  DenseF* grad = nullptr;
};

/// Adam (Kingma & Ba 2015) — the optimizer used by the OGB GraphSAGE
/// reference configurations, and the one every trainer here steps.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void step(const std::vector<ParamGrad>& params);
  /// Serializes the mutable state (step counter, moment tensors) so a
  /// restored optimizer continues bit-identically. Hyperparameters are NOT
  /// saved — they come from the pipeline config the restore validates.
  void save_state(BinWriter& out) const;
  /// Restores save_state's output for `params`, the parameters the next
  /// step() updates: each saved moment tensor must match its parameter's
  /// shape (or the state must be empty, before the first step). Throws
  /// DmsError on any mismatch — a restored state is always steppable.
  void load_state(BinReader& in, const std::vector<ParamGrad>& params);

 private:
  float lr_, beta1_, beta2_, eps_;
  int t_ = 0;
  std::vector<DenseF> m_, v_;
};

}  // namespace dms
