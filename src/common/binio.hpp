// The binary codec of every file this library writes: DMSD datasets
// (graph/io), DMSK checkpoints (train/checkpoint) and the optimizer state a
// checkpoint embeds. A file is a u32 magic, a u32 version, then raw
// native-endian values: a scalar as its bytes; an array or string as an i64
// length and its elements; a Dense matrix as i64 rows, i64 cols and its
// row-major elements. Floats travel as raw bits, so resume is bit-identical.
//
// BinReader treats the file as untrusted: it bounds every length and shape
// by the bytes left *before* allocating, and throws DmsError on that, on a
// short read, a bad magic or version, and trailing bytes. What the values
// mean is checked by each format's loader.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace dms {

// sparse/dense.hpp; common/ includes nothing from the layers above it.
template <typename T>
class Dense;

template <typename T>
concept BinScalar = std::is_arithmetic_v<T>;

class BinWriter {
 public:
  /// Creates (truncates) `path` and writes `magic` and `version`. `who`, a
  /// string literal, prefixes every error message (e.g. "save_dataset").
  BinWriter(const std::string& path, std::uint32_t magic, std::uint32_t version,
            const char* who);

  template <BinScalar T>
  void value(T v) {
    bytes(&v, sizeof(T));
  }

  template <BinScalar T>
  void array(const std::vector<T>& v) {
    value<std::int64_t>(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }

  void string(const std::string& s);

  template <BinScalar T>
  void matrix(const Dense<T>& m) {
    value<std::int64_t>(m.rows());
    value<std::int64_t>(m.cols());
    bytes(m.data(), m.size() * sizeof(T));
  }

  /// Flushes; throws DmsError unless every write reached the file.
  void finish();

 private:
  void bytes(const void* p, std::size_t n);

  std::ofstream os_;
  std::string path_;
  const char* who_;
};

class BinReader {
 public:
  /// Opens `path`; throws DmsError if it is missing or its magic or version
  /// differs. `who` as for BinWriter.
  BinReader(const std::string& path, std::uint32_t magic, std::uint32_t version,
            const char* who);

  template <BinScalar T>
  T value() {
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  template <BinScalar T>
  std::vector<T> array() {
    std::vector<T> v(length(sizeof(T)));
    bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  std::string string();

  /// Reads a matrix of any shape the bytes left can hold.
  template <BinScalar T>
  Dense<T> matrix() {
    const auto rows = value<std::int64_t>();
    const auto cols = value<std::int64_t>();
    const auto most = left_ / static_cast<std::int64_t>(sizeof(T));
    if (rows < 0 || cols < 0 || (rows > 0 && cols > most / rows)) {
      fail("matrix shape exceeds the bytes left in");
    }
    Dense<T> m(rows, cols);
    bytes(m.data(), m.size() * sizeof(T));
    return m;
  }

  /// Reads a matrix into `m`, whose shape the saved one must equal.
  template <BinScalar T>
  void matrix_into(Dense<T>& m) {
    const auto rows = value<std::int64_t>();
    const auto cols = value<std::int64_t>();
    if (rows != m.rows() || cols != m.cols()) fail("matrix shape mismatch in");
    bytes(m.data(), m.size() * sizeof(T));
  }

  /// Throws DmsError unless every byte of the file has been read.
  void finish();

 private:
  /// Reads an element count bounded by the bytes left at `elem` bytes each.
  std::size_t length(std::size_t elem);
  void bytes(void* p, std::size_t n);
  [[noreturn]] void fail(const char* what) const;

  std::ifstream is_;
  std::string path_;
  const char* who_;
  std::int64_t left_ = 0;
};

}  // namespace dms
