// Optimizers operating on flat lists of (param, grad) tensor pairs; their
// state serializes through common/binio into checkpoints.
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

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step(const std::vector<ParamGrad>& params) = 0;
  /// Stable identifier of the concrete optimizer, recorded in checkpoints so
  /// a restore into a differently-configured pipeline is rejected.
  virtual const char* kind() const = 0;
  /// Serializes the mutable state (moment tensors, step counter) so a
  /// restored optimizer continues bit-identically. Hyperparameters are NOT
  /// saved — they come from the pipeline config the restore validates.
  virtual void save_state(BinWriter& out) const = 0;
  /// Restores save_state's output for `params`, the parameters the next
  /// step() updates: each saved moment tensor must match its parameter's
  /// shape (or the state must be empty, before the first step). Throws
  /// DmsError on any mismatch — a restored state is always steppable.
  virtual void load_state(BinReader& in, const std::vector<ParamGrad>& params) = 0;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0f) : lr_(lr), momentum_(momentum) {}
  void step(const std::vector<ParamGrad>& params) override;
  const char* kind() const override { return "sgd"; }
  void save_state(BinWriter& out) const override;
  void load_state(BinReader& in, const std::vector<ParamGrad>& params) override;

 private:
  float lr_;
  float momentum_;
  std::vector<DenseF> velocity_;
};

/// Adam (Kingma & Ba 2015) — the optimizer used by the OGB GraphSAGE
/// reference configurations.
class Adam : public Optimizer {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void step(const std::vector<ParamGrad>& params) override;
  const char* kind() const override { return "adam"; }
  void save_state(BinWriter& out) const override;
  void load_state(BinReader& in, const std::vector<ParamGrad>& params) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  int t_ = 0;
  std::vector<DenseF> m_, v_;
};

}  // namespace dms
