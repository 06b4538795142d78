#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/binio.hpp"

namespace dms {

namespace {

void write_moments(BinWriter& out, const std::vector<DenseF>& moments) {
  out.value(static_cast<std::int64_t>(moments.size()));
  for (const DenseF& m : moments) out.matrix(m);
}

/// One moment tensor per parameter, each of its parameter's shape, or none
/// (saved before the first step).
std::vector<DenseF> read_moments(BinReader& in, const std::vector<ParamGrad>& params) {
  const auto n = in.value<std::int64_t>();
  check(n == 0 || n == static_cast<std::int64_t>(params.size()),
        "optimizer state: moment count does not match the parameters");
  std::vector<DenseF> moments;
  for (std::int64_t i = 0; i < n; ++i) {
    const DenseF& param = *params[static_cast<std::size_t>(i)].param;
    moments.emplace_back(param.rows(), param.cols());
    in.matrix_into(moments.back());
  }
  return moments;
}

}  // namespace

void Adam::step(const std::vector<ParamGrad>& params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (const auto& pg : params) {
      m_.emplace_back(pg.param->rows(), pg.param->cols());
      v_.emplace_back(pg.param->rows(), pg.param->cols());
    }
    t_ = 0;
  }
  ++t_;
  const auto t = static_cast<float>(t_);
  const float bc1 = 1.0f - std::pow(beta1_, t);
  const float bc2 = 1.0f - std::pow(beta2_, t);
  for (std::size_t k = 0; k < params.size(); ++k) {
    DenseF& p = *params[k].param;
    const DenseF& g = *params[k].grad;
    float* pd = p.data();
    const float* gd = g.data();
    float* md = m_[k].data();
    float* vd = v_[k].data();
    for (std::size_t i = 0; i < p.size(); ++i) {
      md[i] = beta1_ * md[i] + (1.0f - beta1_) * gd[i];
      vd[i] = beta2_ * vd[i] + (1.0f - beta2_) * gd[i] * gd[i];
      const float mhat = md[i] / bc1;
      const float vhat = vd[i] / bc2;
      pd[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::save_state(BinWriter& out) const {
  out.value(static_cast<std::int64_t>(t_));
  write_moments(out, m_);
  write_moments(out, v_);
}

void Adam::load_state(BinReader& in, const std::vector<ParamGrad>& params) {
  const auto t = in.value<std::int64_t>();
  // Bounded well below INT_MAX so the resumed steps cannot overflow it.
  check(t >= 0 && t <= std::numeric_limits<int>::max() / 2,
        "optimizer state: adam step counter out of range");
  std::vector<DenseF> m = read_moments(in, params);
  std::vector<DenseF> v = read_moments(in, params);
  check(m.size() == v.size(), "optimizer state: adam moment count mismatch");
  t_ = static_cast<int>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace dms
