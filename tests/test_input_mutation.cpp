// Untrusted-input robustness (ROADMAP item 5): seeded byte flips and
// truncations of saved DMSD (dataset) and DMSK (checkpoint) files, both read
// through common/binio. Every load must either throw DmsError or return a
// usable value — never another exception, an allocation failure, or (under
// the sanitizer build) undefined behaviour — and a checkpoint that loads
// must resume its epoch to completion. Two historical defects are pinned as
// fixed cases.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/dataset.hpp"
#include "graph/io.hpp"
#include "train/checkpoint.hpp"
#include "train/pipeline.hpp"

namespace dms {
namespace {

using Bytes = std::vector<char>;

constexpr int kFlips = 200;
constexpr int kTruncations = 12;

/// PID-suffixed so a sanitizer build running alongside the plain one never
/// shares a file.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_mut_" + name;
}

Bytes read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `bytes` through `load`: true if it returned, false if it threw
/// DmsError; any other exception fails the test.
bool loads(const Bytes& bytes, const std::string& path,
           const std::function<void(const std::string&)>& load,
           const std::string& what) {
  write_bytes(path, bytes);
  try {
    load(path);
    return true;
  } catch (const DmsError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-DmsError exception: " << e.what();
    return false;
  }
}

/// kFlips seeded single-byte flips (each byte xor a nonzero mask) and
/// kTruncations seeded truncations of `clean`. Flipped files may load;
/// `on_load` then checks the loaded value is usable. A truncated file can
/// never parse completely, so it must throw.
void mutate(const Bytes& clean, const std::string& name, std::uint64_t seed,
            const std::function<void(const std::string&)>& load,
            const std::function<void()>& on_load = {}) {
  const std::string path = temp_path(name);
  Pcg32 rng(seed, 0x6d75);
  for (int i = 0; i < kFlips; ++i) {
    Bytes m = clean;
    const auto pos = static_cast<std::size_t>(
        rng.bounded64(static_cast<index_t>(m.size())));
    m[pos] = static_cast<char>(m[pos] ^ static_cast<char>(1 + rng.bounded64(255)));
    const std::string what = name + " flip at byte " + std::to_string(pos);
    if (loads(m, path, load, what) && on_load) {
      SCOPED_TRACE(what);
      on_load();
    }
  }
  for (int i = 0; i < kTruncations; ++i) {
    const Bytes m(clean.begin(),
                  clean.begin() + rng.bounded64(static_cast<index_t>(clean.size())));
    EXPECT_FALSE(loads(m, path, load, name + " truncated"))
        << name << " truncated to " << m.size() << " bytes loaded";
  }
  std::remove(path.c_str());
}

Dataset small_planted() {
  return make_planted_dataset(/*n=*/128, /*classes=*/3, /*f=*/4,
                              /*avg_degree=*/6.0, /*p_intra=*/0.85, /*seed=*/8);
}

TEST(InputMutation, DatasetFlipsAndTruncations) {
  const std::string path = temp_path("clean.dmsd");
  save_dataset(small_planted(), path);
  const Bytes clean = read_bytes(path);
  std::remove(path.c_str());
  mutate(clean, "dataset", 2, [](const std::string& p) { (void)load_dataset(p); });
}

PipelineConfig checkpoint_config() {
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kGraphSage;
  cfg.fanouts = {3, 3};
  cfg.batch_size = 8;
  cfg.hidden = 8;
  cfg.bulk_k = 2;  // several rounds per epoch: the checkpoint is mid-epoch
  return cfg;
}

TEST(InputMutation, CheckpointFlipsAndTruncations) {
  const Dataset ds = small_planted();
  const PipelineConfig cfg = checkpoint_config();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline saver(cluster, ds, cfg);
  (void)saver.run_epoch(0);  // Adam moments exist
  const TrainCursor cursor = saver.run_epoch_partial(1, 2);
  const std::string path = temp_path("clean.dmsk");
  save_checkpoint(saver, cursor, path);
  const Bytes clean = read_bytes(path);
  std::remove(path.c_str());

  std::unique_ptr<Pipeline> pipe;
  TrainCursor loaded;
  mutate(
      clean, "ckpt", 3,
      [&](const std::string& p) {
        pipe = std::make_unique<Pipeline>(cluster, ds, cfg);
        loaded = load_checkpoint(*pipe, p);
      },
      [&] { EXPECT_NO_THROW((void)pipe->run_epoch_resumed(loaded)); });
}

// --- the two defects that motivated this suite ------------------------------

TEST(InputMutation, HugeCsrLengthThrowsDmsError) {
  // One flipped high byte of the graph's rowptr length claims ~2^55
  // entries; the reader used to allocate it (std::bad_alloc, or an ASan
  // abort).
  const Dataset ds = small_planted();
  const std::string path = temp_path("huge.dmsd");
  save_dataset(ds, path);
  Bytes m = read_bytes(path);
  // magic, version, name length + name, graph dims
  const std::size_t rowptr_length = 4 + 4 + 8 + ds.name.size() + 8 + 8;
  std::int64_t length = 0;
  std::memcpy(&length, m.data() + rowptr_length, sizeof(length));
  ASSERT_EQ(length, ds.num_vertices() + 1);
  m[rowptr_length + 6] = static_cast<char>(m[rowptr_length + 6] ^ 0x80);
  write_bytes(path, m);
  EXPECT_THROW((void)load_dataset(path), DmsError);
  std::remove(path.c_str());
}

TEST(InputMutation, ShrunkAdamMomentShapeThrowsDmsError) {
  // Decrementing a shape field of the last Adam moment tensor used to load
  // cleanly and overflow the heap in the next Adam::step.
  const Dataset ds = small_planted();
  const PipelineConfig cfg = checkpoint_config();
  Cluster cluster(ProcessGrid(2, 1), CostModel(LinkParams{}));
  Pipeline saver(cluster, ds, cfg);
  const TrainCursor cursor = saver.run_epoch_partial(0, 2);
  const std::string path = temp_path("shrunk.dmsk");
  save_checkpoint(saver, cursor, path);
  Bytes m = read_bytes(path);
  const DenseF& last = *saver.model().params().back().param;
  const std::size_t cols_at = m.size() - last.size() * sizeof(float) - 8;
  std::int64_t cols = 0;
  std::memcpy(&cols, m.data() + cols_at, sizeof(cols));
  ASSERT_EQ(cols, last.cols());
  --cols;
  std::memcpy(m.data() + cols_at, &cols, sizeof(cols));
  write_bytes(path, m);
  Pipeline pipe(cluster, ds, cfg);
  EXPECT_THROW((void)load_checkpoint(pipe, path), DmsError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dms
