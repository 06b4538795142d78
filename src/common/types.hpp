// Fundamental scalar/index types and small helpers shared by every module.
#pragma once

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace dms {

/// Vertex / row / column index. Signed 64-bit so that Papers-scale graphs
/// (1.6B edges in the paper) index safely and differences are well-defined.
using index_t = std::int64_t;

/// Nonzero-count type (same width as index_t; kept distinct for readability).
using nnz_t = std::int64_t;

/// Value type used for probabilities and sparse values.
using value_t = double;

/// Error thrown on contract violations in public APIs.
class DmsError : public std::runtime_error {
 public:
  explicit DmsError(const std::string& what) : std::runtime_error(what) {}
};

/// Checks a precondition on a public API boundary; throws DmsError on failure.
/// The message is built before the test, so checks inside per-row or
/// per-entry loops whose message needs formatting are written as
/// `if (!cond) throw DmsError(...)` instead.
inline void check(bool cond, const std::string& msg) {
  if (!cond) throw DmsError(msg);
}

/// Literal-message form: no std::string is built unless the check fails.
inline void check(bool cond, const char* msg) {
  if (!cond) throw DmsError(msg);
}

/// Integer ceiling division for non-negative values.
constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

}  // namespace dms
