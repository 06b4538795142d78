// Graph wrapper, generators, datasets, partitioning.
#include <gtest/gtest.h>

#include <set>

#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

TEST(Graph, RejectsNonSquareAdjacency) {
  EXPECT_THROW(Graph(CsrMatrix(3, 4)), DmsError);
}

TEST(Graph, RejectsUnsortedAdjacency) {
  // Row 0 stores columns {50, 10}. Kernels that read rows as sorted lists
  // silently drop or misplace such edges (a masked product over {10, 50}
  // keeps one of the two), so the graph must refuse it where it enters.
  std::vector<nnz_t> rowptr(101, 2);  // row 0 holds both entries
  rowptr[0] = 0;
  EXPECT_THROW(Graph(CsrMatrix(100, 100, rowptr, {50, 10}, {1.0, 1.0})), DmsError);
  EXPECT_NO_THROW(Graph(CsrMatrix(100, 100, rowptr, {10, 50}, {1.0, 1.0})));
}

TEST(Graph, DegreeStatistics) {
  const Graph g(testutil::paper_example_adjacency());
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.out_degree(1), 3);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 2.0);
  EXPECT_NE(g.summary("x").find("|V|=6"), std::string::npos);
}

TEST(Rmat, ProducesRequestedScale) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8.0;
  const Graph g = generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1024);
  // Dedup removes some edges; expect 60-100% of requested.
  EXPECT_GT(g.num_edges(), 1024 * 8 * 6 / 10);
  EXPECT_LE(g.num_edges(), 1024 * 8);
  g.adjacency().validate();
}

TEST(Rmat, IsDeterministicPerSeed) {
  RmatParams p;
  p.scale = 8;
  p.seed = 9;
  EXPECT_TRUE(generate_rmat(p).adjacency() == generate_rmat(p).adjacency());
  p.seed = 10;
  EXPECT_FALSE(generate_rmat(p).adjacency() ==
               generate_rmat(RmatParams{8, 16.0, 0.57, 0.19, 0.19, 9}).adjacency());
}

TEST(Rmat, SkewedParamsGiveSkewedDegrees) {
  RmatParams skewed;
  skewed.scale = 12;
  skewed.a = 0.7;
  skewed.b = 0.1;
  skewed.c = 0.1;
  const Graph g = generate_rmat(skewed);
  // Power-lawish: max degree far above average.
  EXPECT_GT(g.max_degree(), static_cast<index_t>(10 * g.avg_degree()));
}

TEST(Rmat, NoSelfLoopsWhenRequested) {
  RmatParams p;
  p.scale = 9;
  const Graph g = generate_rmat(p);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(g.adjacency().at(v, v), 0.0);
  }
}

TEST(ErdosRenyi, HitsTargetDegree) {
  const Graph g = generate_erdos_renyi(2000, 10.0, 5);
  EXPECT_NEAR(g.avg_degree(), 10.0, 0.5);
}

TEST(PlantedPartition, IsSymmetric) {
  const Graph g = generate_planted_partition(400, 4, 6.0, 0.8, 3);
  const CsrMatrix& a = g.adjacency();
  for (index_t v = 0; v < g.num_vertices(); v += 7) {
    for (const index_t u : a.row_cols(v)) {
      EXPECT_DOUBLE_EQ(a.at(u, v), 1.0);
    }
  }
}

TEST(PlantedPartition, MostEdgesIntraClass) {
  const index_t n = 800;
  const int classes = 4;
  const Graph g = generate_planted_partition(n, classes, 8.0, 0.9, 4);
  const index_t block = ceil_div(n, classes);
  nnz_t intra = 0;
  for (index_t v = 0; v < n; ++v) {
    for (const index_t u : g.adjacency().row_cols(v)) {
      if (u / block == v / block) ++intra;
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(g.num_edges()), 0.8);
}

TEST(Datasets, StandInsMatchPaperDensityOrdering) {
  StandInConfig cfg;
  cfg.scale_shift = -3;  // tiny versions for test speed
  const Dataset protein = make_protein_sim(cfg);
  const Dataset products = make_products_sim(cfg);
  const Dataset papers = make_papers_sim(cfg);
  // §8.1.1: Protein (241) ≫ Products (53) ≫ Papers (29).
  EXPECT_GT(protein.graph.avg_degree(), products.graph.avg_degree());
  EXPECT_GT(products.graph.avg_degree(), papers.graph.avg_degree());
  // Papers has the most vertices.
  EXPECT_GT(papers.num_vertices(), products.num_vertices());
  EXPECT_GT(products.num_vertices(), protein.num_vertices());
}

TEST(Datasets, SplitsArePartition) {
  StandInConfig cfg;
  cfg.scale_shift = -5;
  const Dataset ds = make_products_sim(cfg);
  std::set<index_t> all;
  all.insert(ds.train_idx.begin(), ds.train_idx.end());
  all.insert(ds.val_idx.begin(), ds.val_idx.end());
  all.insert(ds.test_idx.begin(), ds.test_idx.end());
  EXPECT_EQ(all.size(),
            ds.train_idx.size() + ds.val_idx.size() + ds.test_idx.size());
  EXPECT_EQ(static_cast<index_t>(all.size()), ds.num_vertices());
  for (const int label : ds.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, ds.num_classes);
  }
}

TEST(Datasets, LookupByName) {
  StandInConfig cfg;
  cfg.scale_shift = -6;
  EXPECT_EQ(make_standin_by_name("products", cfg).name, "products-sim");
  EXPECT_EQ(make_standin_by_name("papers", cfg).name, "papers-sim");
  EXPECT_EQ(make_standin_by_name("protein", cfg).name, "protein-sim");
  EXPECT_THROW(make_standin_by_name("ogbn-mag", cfg), DmsError);
}

TEST(Datasets, PlantedFeaturesAreClassSeparable) {
  const Dataset ds = make_planted_dataset(200, 4, 16, 6.0, 0.8, 7);
  // Per-class centroid distances should exceed within-class spread.
  std::vector<std::vector<double>> centroid(4, std::vector<double>(16, 0.0));
  std::vector<int> count(4, 0);
  for (index_t v = 0; v < ds.num_vertices(); ++v) {
    const int c = ds.labels[static_cast<std::size_t>(v)];
    ++count[static_cast<std::size_t>(c)];
    for (int j = 0; j < 16; ++j) {
      centroid[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)] +=
          ds.features(v, j);
    }
  }
  double min_dist = 1e30;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double d = 0;
      for (int j = 0; j < 16; ++j) {
        const double da = centroid[a][j] / count[a] - centroid[b][j] / count[b];
        d += da * da;
      }
      min_dist = std::min(min_dist, std::sqrt(d));
    }
  }
  EXPECT_GT(min_dist, 1.0);
}

TEST(BlockPartition, BalancedSizes) {
  const BlockPartition p(10, 3);
  EXPECT_EQ(p.size(0), 4);
  EXPECT_EQ(p.size(1), 3);
  EXPECT_EQ(p.size(2), 3);
  EXPECT_EQ(p.begin(0), 0);
  EXPECT_EQ(p.end(2), 10);
}

TEST(BlockPartition, OwnerAndLocal) {
  const BlockPartition p(10, 3);
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(3), 0);
  EXPECT_EQ(p.owner(4), 1);
  EXPECT_EQ(p.owner(9), 2);
  EXPECT_EQ(p.local(5), 1);
  EXPECT_THROW(p.owner(10), DmsError);
}

TEST(BlockPartition, FromOffsets) {
  const auto p = BlockPartition::from_offsets({0, 2, 2, 7});
  EXPECT_EQ(p.parts(), 3);
  EXPECT_EQ(p.total(), 7);
  EXPECT_EQ(p.size(1), 0);
  EXPECT_EQ(p.owner(2), 2);
  EXPECT_THROW(BlockPartition::from_offsets({1, 2}), DmsError);
  EXPECT_THROW(BlockPartition::from_offsets({0, 3, 2}), DmsError);
}

}  // namespace
}  // namespace dms
