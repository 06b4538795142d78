// The bounded binary codec (common/binio), the DMSD dataset format written
// through it, and Matrix Market export.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/binio.hpp"
#include "graph/io.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

constexpr std::uint32_t kMagic = 0x54534554;  // "TEST"
constexpr std::uint32_t kVersion = 3;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("dms_test_" + name)).string();
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  /// Writes a codec file at `name` holding whatever `body` writes.
  template <typename Body>
  std::string write(const std::string& name, Body body) {
    const std::string path = track(temp_path(name));
    BinWriter out(path, kMagic, kVersion, "test");
    body(out);
    out.finish();
    return path;
  }
  std::vector<std::string> created_;
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

DenseF counting_matrix(index_t rows, index_t cols) {
  DenseF m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  return m;
}

/// A dataset built by hand, every value exact, so its file bytes depend on
/// the format alone (a generated dataset's features go through libm).
Dataset tiny_dataset() {
  Dataset ds;
  ds.name = "tiny";
  ds.graph = Graph(CsrMatrix::from_triplets(3, 3, {0, 1, 1, 2}, {1, 0, 2, 1},
                                            {1.0, 1.0, 0.5, 0.5}));
  ds.features = counting_matrix(3, 2);
  ds.labels = {0, 1, -1};
  ds.num_classes = 2;
  ds.train_idx = {0};
  ds.val_idx = {1};
  ds.test_idx = {2};
  return ds;
}

TEST_F(IoTest, CodecRoundTripsEveryPrimitive) {
  const DenseF m = counting_matrix(2, 3);
  const std::string path = write("codec.bin", [&](BinWriter& out) {
    out.value(std::uint32_t{0xdeadbeef});
    out.value(std::int64_t{-5});
    out.value(0.1);
    out.value(-2.5f);
    out.value(-1);
    out.array(std::vector<int>{});
    out.array(std::vector<index_t>{3, -4, 5});
    out.array(std::vector<double>{1.5, -0.25});
    out.string("");
    out.string("hello");
    out.matrix(m);
    out.matrix(DenseF(0, 4));
    out.matrix(m);
  });
  BinReader in(path, kMagic, kVersion, "test");
  EXPECT_EQ(in.value<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(in.value<std::int64_t>(), -5);
  EXPECT_EQ(in.value<double>(), 0.1);
  EXPECT_EQ(in.value<float>(), -2.5f);
  EXPECT_EQ(in.value<int>(), -1);
  EXPECT_TRUE(in.array<int>().empty());
  EXPECT_EQ(in.array<index_t>(), (std::vector<index_t>{3, -4, 5}));
  EXPECT_EQ(in.array<double>(), (std::vector<double>{1.5, -0.25}));
  EXPECT_EQ(in.string(), "");
  EXPECT_EQ(in.string(), "hello");
  EXPECT_TRUE(in.matrix<float>() == m);
  const DenseF empty = in.matrix<float>();
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), 4);
  DenseF into(2, 3);
  in.matrix_into(into);
  EXPECT_TRUE(into == m);
  EXPECT_NO_THROW(in.finish());
}

TEST_F(IoTest, CodecBoundsLengthsAndShapesByTheBytesLeft) {
  // Each length claims more than the file holds; reading must throw
  // DmsError before sizing anything by it (2^60 doubles would be
  // std::length_error, 2^60 chars std::bad_alloc or a sanitizer abort).
  const auto huge = std::int64_t{1} << 60;
  const std::string length = write("huge_length.bin", [&](BinWriter& out) {
    out.value(huge);
    out.value(std::int64_t{0});
  });
  EXPECT_THROW((void)BinReader(length, kMagic, kVersion, "test").array<double>(),
               DmsError);
  EXPECT_THROW((void)BinReader(length, kMagic, kVersion, "test").string(), DmsError);

  // One element more than the bytes left, and a negative length.
  const std::string one_over = write("one_over.bin", [](BinWriter& out) {
    out.value(std::int64_t{3});
    out.value(1.0);
    out.value(2.0);
  });
  EXPECT_THROW((void)BinReader(one_over, kMagic, kVersion, "test").array<double>(),
               DmsError);
  const std::string negative = write("negative.bin", [](BinWriter& out) {
    out.value(std::int64_t{-1});
  });
  EXPECT_THROW((void)BinReader(negative, kMagic, kVersion, "test").string(), DmsError);

  // A shape whose element count overflows, and one that merely exceeds.
  for (const auto& [rows, cols] : {std::pair<std::int64_t, std::int64_t>{huge, huge},
                                   {2, std::int64_t{1} << 62},
                                   {3, 3}}) {
    const std::string shape = write("huge_shape.bin", [&](BinWriter& out) {
      out.value(rows);
      out.value(cols);
      out.value(0.0f);
    });
    EXPECT_THROW((void)BinReader(shape, kMagic, kVersion, "test").matrix<float>(),
                 DmsError)
        << rows << " x " << cols;
  }
}

TEST_F(IoTest, CodecMatrixIntoRejectsAnotherShape) {
  const std::string path = write("shape.bin", [](BinWriter& out) {
    out.matrix(counting_matrix(2, 3));
  });
  DenseF transposed(3, 2);  // same element count, other shape
  BinReader in(path, kMagic, kVersion, "test");
  EXPECT_THROW(in.matrix_into(transposed), DmsError);
}

TEST_F(IoTest, CodecRejectsShortReadsTrailingBytesAndBadHeaders) {
  const std::string path = write("header.bin", [](BinWriter& out) {
    out.value(std::uint32_t{1});
  });
  EXPECT_THROW((void)BinReader(path, kMagic, kVersion, "test").value<std::int64_t>(),
               DmsError);
  {
    BinReader in(path, kMagic, kVersion, "test");
    EXPECT_THROW(in.finish(), DmsError);  // the u32 was never read
    EXPECT_EQ(in.value<std::uint32_t>(), 1u);
    EXPECT_NO_THROW(in.finish());
  }
  EXPECT_THROW((void)BinReader(path, kMagic + 1, kVersion, "test"), DmsError);
  EXPECT_THROW((void)BinReader(path, kMagic, kVersion + 1, "test"), DmsError);
  EXPECT_THROW(
      (void)BinReader(temp_path("does_not_exist.bin"), kMagic, kVersion, "test"),
      DmsError);
  const std::string empty = track(temp_path("empty.bin"));
  std::ofstream(empty, std::ios::binary).close();
  EXPECT_THROW((void)BinReader(empty, kMagic, kVersion, "test"), DmsError);
}

TEST_F(IoTest, DatasetBytesArePinned) {
  // The DMSD layout of a hand-built dataset, pinned by the FNV-1a of its
  // bytes: any change to the format (field order, widths, lengths) moves it.
  const std::string path = track(temp_path("tiny.dmsd"));
  save_dataset(tiny_dataset(), path);
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 268u);
  EXPECT_EQ(fnv1a(bytes), 0x2c905ac904a43e30ULL);
}

TEST_F(IoTest, DatasetRoundTrip) {
  const Dataset ds = make_planted_dataset(128, 4, 8, 6.0, 0.8, 5);
  const std::string path = track(temp_path("dataset.bin"));
  save_dataset(ds, path);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.name, ds.name);
  EXPECT_TRUE(loaded.graph.adjacency() == ds.graph.adjacency());
  EXPECT_TRUE(loaded.features == ds.features);
  EXPECT_EQ(loaded.labels, ds.labels);
  EXPECT_EQ(loaded.num_classes, ds.num_classes);
  EXPECT_EQ(loaded.train_idx, ds.train_idx);
  EXPECT_EQ(loaded.val_idx, ds.val_idx);
  EXPECT_EQ(loaded.test_idx, ds.test_idx);
}

TEST_F(IoTest, LoadRejectsBadMagic) {
  const std::string path = track(temp_path("bad_magic.bin"));
  std::ofstream os(path, std::ios::binary);
  os << "garbage data that is not a dms file";
  os.close();
  EXPECT_THROW(load_dataset(path), DmsError);
}

TEST_F(IoTest, LoadRejectsTruncatedFile) {
  const std::string path = track(temp_path("trunc.bin"));
  save_dataset(tiny_dataset(), path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(load_dataset(path), DmsError);
}

TEST_F(IoTest, LoadRejectsMissingFile) {
  EXPECT_THROW(load_dataset(temp_path("does_not_exist.bin")), DmsError);
}

TEST_F(IoTest, MatrixMarketExportIsParseable) {
  const CsrMatrix m = CsrMatrix::from_triplets(2, 3, {0, 1}, {2, 0}, {1.5, -2.0});
  const std::string path = track(temp_path("mm.mtx"));
  write_matrix_market(m, path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("MatrixMarket"), std::string::npos);
  index_t rows = 0, cols = 0;
  nnz_t nnz = 0;
  is >> rows >> cols >> nnz;
  EXPECT_EQ(rows, 2);
  EXPECT_EQ(cols, 3);
  EXPECT_EQ(nnz, 2);
  index_t r = 0, c = 0;
  double v = 0;
  is >> r >> c >> v;  // 1-indexed
  EXPECT_EQ(r, 1);
  EXPECT_EQ(c, 3);
  EXPECT_DOUBLE_EQ(v, 1.5);
}

}  // namespace
}  // namespace dms
