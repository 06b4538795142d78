#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "common/types.hpp"

namespace dms {

namespace {

// Optimizer-state tensors serialize as [rows i64][cols i64][raw float bits],
// the same little-endian raw-bits idiom as graph/io.cpp; float bits round-trip
// exactly, which the bit-identical-resume guarantee depends on.
void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::int64_t read_i64(std::istream& is, const char* what) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(static_cast<bool>(is), std::string("optimizer state: truncated ") + what);
  return v;
}

void write_tensor(std::ostream& os, const DenseF& t) {
  write_i64(os, t.rows());
  write_i64(os, t.cols());
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(float)));
}

/// Reads one tensor whose shape must equal `like`'s (checked before the
/// allocation, so a corrupt shape cannot size it).
DenseF read_tensor(std::istream& is, const DenseF& like) {
  const std::int64_t rows = read_i64(is, "tensor rows");
  const std::int64_t cols = read_i64(is, "tensor cols");
  check(rows == like.rows() && cols == like.cols(),
        "optimizer state: moment shape does not match its parameter");
  DenseF t(static_cast<index_t>(rows), static_cast<index_t>(cols));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  check(static_cast<bool>(is), "optimizer state: truncated tensor data");
  return t;
}

void write_tensors(std::ostream& os, const std::vector<DenseF>& ts) {
  write_i64(os, static_cast<std::int64_t>(ts.size()));
  for (const DenseF& t : ts) write_tensor(os, t);
}

/// One moment tensor per parameter, or none (saved before the first step).
std::vector<DenseF> read_tensors(std::istream& is,
                                 const std::vector<ParamGrad>& params) {
  const std::int64_t n = read_i64(is, "tensor count");
  check(n == 0 || n == static_cast<std::int64_t>(params.size()),
        "optimizer state: moment count does not match the parameters");
  std::vector<DenseF> ts;
  for (std::int64_t i = 0; i < n; ++i) {
    ts.push_back(read_tensor(is, *params[static_cast<std::size_t>(i)].param));
  }
  return ts;
}

}  // namespace

void Sgd::step(const std::vector<ParamGrad>& params) {
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (const auto& pg : params) {
      velocity_.emplace_back(pg.param->rows(), pg.param->cols());
    }
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    DenseF& p = *params[k].param;
    const DenseF& g = *params[k].grad;
    DenseF& v = velocity_[k];
    float* pd = p.data();
    const float* gd = g.data();
    float* vd = v.data();
    for (std::size_t i = 0; i < p.size(); ++i) {
      vd[i] = momentum_ * vd[i] + gd[i];
      pd[i] -= lr_ * vd[i];
    }
  }
}

void Sgd::save_state(std::ostream& os) const { write_tensors(os, velocity_); }

void Sgd::load_state(std::istream& is, const std::vector<ParamGrad>& params) {
  velocity_ = read_tensors(is, params);
}

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

void Adam::save_state(std::ostream& os) const {
  write_i64(os, t_);
  write_tensors(os, m_);
  write_tensors(os, v_);
}

void Adam::load_state(std::istream& is, const std::vector<ParamGrad>& params) {
  const std::int64_t t = read_i64(is, "adam step counter");
  // Bounded well below INT_MAX so the resumed steps cannot overflow it.
  check(t >= 0 && t <= std::numeric_limits<int>::max() / 2,
        "optimizer state: adam step counter out of range");
  std::vector<DenseF> m = read_tensors(is, params);
  std::vector<DenseF> v = read_tensors(is, params);
  check(m.size() == v.size(), "optimizer state: adam moment count mismatch");
  t_ = static_cast<int>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace dms
