#include "graph/io.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

namespace dms {

namespace {

constexpr std::uint32_t kCsrMagic = 0x43534d44;   // "DMSC"
constexpr std::uint32_t kDataMagic = 0x44534d44;  // "DMSD"
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ofstream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_i64(std::ofstream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void write_vec(std::ofstream& os, const std::vector<T>& v) {
  write_i64(os, static_cast<std::int64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

std::uint32_t read_u32(std::ifstream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(is.good(), "io: truncated file");
  return v;
}

std::int64_t read_i64(std::ifstream& is) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(is.good(), "io: truncated file");
  return v;
}

/// Bytes between the read position and the end of the file: the most any
/// length or shape read from it may claim, so a corrupt field throws
/// instead of driving a huge allocation.
std::int64_t bytes_left(std::ifstream& is) {
  const auto pos = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  return static_cast<std::int64_t>(end - pos);
}

void check_no_trailing_bytes(std::ifstream& is, const std::string& what) {
  check(is.peek() == std::ifstream::traits_type::eof(),
        what + ": trailing bytes after the payload");
}

template <typename T>
std::vector<T> read_vec(std::ifstream& is) {
  const std::int64_t n = read_i64(is);
  check(n >= 0, "io: negative array length");
  check(n <= bytes_left(is) / static_cast<std::int64_t>(sizeof(T)),
        "io: array length exceeds the file");
  std::vector<T> v(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  check(is.good() || n == 0, "io: truncated array");
  return v;
}

void save_csr_body(std::ofstream& os, const CsrMatrix& m) {
  write_i64(os, m.rows());
  write_i64(os, m.cols());
  write_vec(os, m.rowptr());
  write_vec(os, m.colidx());
  write_vec(os, m.vals());
}

CsrMatrix load_csr_body(std::ifstream& is) {
  const index_t rows = read_i64(is);
  const index_t cols = read_i64(is);
  auto rowptr = read_vec<nnz_t>(is);
  auto colidx = read_vec<index_t>(is);
  auto vals = read_vec<value_t>(is);
  CsrMatrix m(rows, cols, std::move(rowptr), std::move(colidx), std::move(vals));
  m.validate();
  return m;
}

}  // namespace

void save_csr(const CsrMatrix& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  check(os.good(), "save_csr: cannot open " + path);
  write_u32(os, kCsrMagic);
  write_u32(os, kVersion);
  save_csr_body(os, m);
  check(os.good(), "save_csr: write failed for " + path);
}

CsrMatrix load_csr(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  check(is.good(), "load_csr: cannot open " + path);
  check(read_u32(is) == kCsrMagic, "load_csr: bad magic in " + path);
  check(read_u32(is) == kVersion, "load_csr: unsupported version in " + path);
  CsrMatrix m = load_csr_body(is);
  check_no_trailing_bytes(is, "load_csr: " + path);
  return m;
}

void save_dataset(const Dataset& ds, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  check(os.good(), "save_dataset: cannot open " + path);
  write_u32(os, kDataMagic);
  write_u32(os, kVersion);
  write_i64(os, static_cast<std::int64_t>(ds.name.size()));
  os.write(ds.name.data(), static_cast<std::streamsize>(ds.name.size()));
  save_csr_body(os, ds.graph.adjacency());
  write_i64(os, ds.features.rows());
  write_i64(os, ds.features.cols());
  os.write(reinterpret_cast<const char*>(ds.features.data()),
           static_cast<std::streamsize>(ds.features.size() * sizeof(float)));
  write_vec(os, ds.labels);
  write_u32(os, static_cast<std::uint32_t>(ds.num_classes));
  write_vec(os, ds.train_idx);
  write_vec(os, ds.val_idx);
  write_vec(os, ds.test_idx);
  check(os.good(), "save_dataset: write failed for " + path);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  check(is.good(), "load_dataset: cannot open " + path);
  check(read_u32(is) == kDataMagic, "load_dataset: bad magic in " + path);
  check(read_u32(is) == kVersion, "load_dataset: unsupported version in " + path);
  Dataset ds;
  const std::int64_t name_len = read_i64(is);
  check(name_len >= 0 && name_len < (1 << 20) && name_len <= bytes_left(is),
        "load_dataset: bad name length");
  ds.name.resize(static_cast<std::size_t>(name_len));
  is.read(ds.name.data(), name_len);
  ds.graph = Graph(load_csr_body(is));
  const index_t frows = read_i64(is);
  const index_t fcols = read_i64(is);
  check(frows == ds.graph.num_vertices(), "load_dataset: feature row mismatch");
  check(fcols >= 0 && (frows == 0 || fcols <= bytes_left(is) / frows /
                                                   static_cast<index_t>(sizeof(float))),
        "load_dataset: feature width exceeds the file");
  ds.features = DenseF(frows, fcols);
  is.read(reinterpret_cast<char*>(ds.features.data()),
          static_cast<std::streamsize>(ds.features.size() * sizeof(float)));
  ds.labels = read_vec<int>(is);
  const std::uint32_t classes = read_u32(is);
  check(classes <= static_cast<std::uint32_t>(std::numeric_limits<int>::max()),
        "load_dataset: bad class count");
  ds.num_classes = static_cast<int>(classes);
  ds.train_idx = read_vec<index_t>(is);
  ds.val_idx = read_vec<index_t>(is);
  ds.test_idx = read_vec<index_t>(is);
  check(is.good(), "load_dataset: truncated file " + path);
  check_no_trailing_bytes(is, "load_dataset: " + path);
  check(ds.labels.size() == static_cast<std::size_t>(ds.num_vertices()),
        "load_dataset: label count mismatch");
  for (const int label : ds.labels) {
    check(label >= -1 && label < ds.num_classes,
          "load_dataset: label out of range");  // -1 = unlabeled
  }
  for (const auto* split : {&ds.train_idx, &ds.val_idx, &ds.test_idx}) {
    for (const index_t v : *split) {
      check(v >= 0 && v < ds.num_vertices(),
            "load_dataset: split vertex out of range");
    }
  }
  return ds;
}

void write_matrix_market(const CsrMatrix& m, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  check(os.good(), "write_matrix_market: cannot open " + path);
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  for (index_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.row_cols(r);
    const auto vals = m.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      os << (r + 1) << " " << (cols[i] + 1) << " " << vals[i] << "\n";
    }
  }
  check(os.good(), "write_matrix_market: write failed for " + path);
}

}  // namespace dms
