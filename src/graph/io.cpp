#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <utility>

#include "common/binio.hpp"

namespace dms {

constexpr std::uint32_t kDataMagic = 0x44534d44;  // "DMSD"
constexpr std::uint32_t kVersion = 1;

void save_dataset(const Dataset& ds, const std::string& path) {
  BinWriter out(path, kDataMagic, kVersion, "save_dataset");
  out.string(ds.name);
  const CsrMatrix& adj = ds.graph.adjacency();
  out.value(adj.rows());
  out.value(adj.cols());
  out.array(adj.rowptr());
  out.array(adj.colidx());
  out.array(adj.vals());
  out.matrix(ds.features);
  out.array(ds.labels);
  out.value(static_cast<std::uint32_t>(ds.num_classes));
  out.array(ds.train_idx);
  out.array(ds.val_idx);
  out.array(ds.test_idx);
  out.finish();
}

Dataset load_dataset(const std::string& path) {
  BinReader in(path, kDataMagic, kVersion, "load_dataset");
  Dataset ds;
  ds.name = in.string();
  check(ds.name.size() < (1u << 20), "load_dataset: bad name length");
  const auto rows = in.value<index_t>();
  const auto cols = in.value<index_t>();
  auto rowptr = in.array<nnz_t>();
  auto colidx = in.array<index_t>();
  auto vals = in.array<value_t>();
  // Graph's constructor validates the CSR arrays and requires a square matrix.
  ds.graph = Graph(CsrMatrix(rows, cols, std::move(rowptr), std::move(colidx),
                             std::move(vals)));
  ds.features = in.matrix<float>();
  check(ds.features.rows() == ds.num_vertices(), "load_dataset: feature row mismatch");
  ds.labels = in.array<int>();
  const auto classes = in.value<std::uint32_t>();
  check(classes <= static_cast<std::uint32_t>(std::numeric_limits<int>::max()),
        "load_dataset: bad class count");
  ds.num_classes = static_cast<int>(classes);
  ds.train_idx = in.array<index_t>();
  ds.val_idx = in.array<index_t>();
  ds.test_idx = in.array<index_t>();
  in.finish();
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
