#include "train/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>

namespace dms {

namespace {

// "DMSK" little-endian, next to kCsrMagic "DMSC" / kDataMagic "DMSD".
constexpr std::uint32_t kCkptMagic = 0x4b534d44u;
constexpr std::uint32_t kCkptVersion = 1;

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is, const char* what) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(static_cast<bool>(is), std::string("checkpoint: truncated ") + what);
  return v;
}

std::int64_t read_i64(std::istream& is, const char* what) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(static_cast<bool>(is), std::string("checkpoint: truncated ") + what);
  return v;
}

double read_f64(std::istream& is, const char* what) {
  double v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  check(static_cast<bool>(is), std::string("checkpoint: truncated ") + what);
  return v;
}

/// The config fingerprint: every knob that shapes the epoch schedule or the
/// training arithmetic, flattened to i64 fields (floats as raw bits so the
/// comparison is exact). Restoring under a different fingerprint would
/// silently change the remainder of the run — reject instead.
std::vector<std::int64_t> fingerprint(const Pipeline& pipe) {
  const PipelineConfig& cfg = pipe.config();
  const ModelConfig& mc = const_cast<Pipeline&>(pipe).model().config();
  std::uint32_t lr_bits = 0;
  std::memcpy(&lr_bits, &cfg.lr, sizeof(lr_bits));
  std::vector<std::int64_t> fp = {
      static_cast<std::int64_t>(cfg.sampler),
      static_cast<std::int64_t>(cfg.mode),
      cfg.batch_size,
      cfg.bulk_k,
      cfg.hidden,
      static_cast<std::int64_t>(lr_bits),
      cfg.use_adam ? 1 : 0,
      static_cast<std::int64_t>(cfg.seed),
      cfg.overlap ? 1 : 0,
      cfg.prefetch_rounds,
      mc.in_dim,
      mc.hidden,
      mc.num_classes,
      mc.num_layers,
      static_cast<std::int64_t>(cfg.fanouts.size()),
  };
  for (const index_t f : cfg.fanouts) fp.push_back(f);
  return fp;
}

void write_tensor(std::ostream& os, const DenseF& t) {
  write_i64(os, t.rows());
  write_i64(os, t.cols());
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(float)));
}

/// Reads a tensor written by write_tensor into `t` in place; the shape must
/// match (the fingerprint already pinned the model dimensions, so a mismatch
/// means a corrupt file).
void read_tensor_into(std::istream& is, DenseF& t) {
  const std::int64_t rows = read_i64(is, "tensor rows");
  const std::int64_t cols = read_i64(is, "tensor cols");
  check(rows == t.rows() && cols == t.cols(),
        "checkpoint: tensor shape mismatch (corrupt file?)");
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  check(static_cast<bool>(is), "checkpoint: truncated tensor data");
}

}  // namespace

void save_checkpoint(Pipeline& pipe, const TrainCursor& cursor,
                     const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  check(os.is_open(), "save_checkpoint: cannot open " + path);

  write_u32(os, kCkptMagic);
  write_u32(os, kCkptVersion);

  const std::vector<std::int64_t> fp = fingerprint(pipe);
  write_i64(os, static_cast<std::int64_t>(fp.size()));
  for (const std::int64_t v : fp) write_i64(os, v);

  write_i64(os, cursor.epoch);
  write_i64(os, cursor.next_round);
  write_i64(os, cursor.total_rounds);
  write_f64(os, cursor.loss_sum);
  write_i64(os, cursor.correct);
  write_i64(os, cursor.seen);

  std::vector<SageLayer>& layers = pipe.model().layers();
  write_i64(os, static_cast<std::int64_t>(layers.size()));
  for (SageLayer& layer : layers) {
    write_tensor(os, layer.w_self());
    write_tensor(os, layer.w_neigh());
    write_tensor(os, layer.bias());
  }

  const std::string kind = pipe.optimizer().kind();
  write_i64(os, static_cast<std::int64_t>(kind.size()));
  os.write(kind.data(), static_cast<std::streamsize>(kind.size()));
  pipe.optimizer().save_state(os);

  check(static_cast<bool>(os), "save_checkpoint: write failed for " + path);
}

TrainCursor load_checkpoint(Pipeline& pipe, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  check(is.is_open(), "load_checkpoint: cannot open " + path);

  check(read_u32(is, "magic") == kCkptMagic,
        "load_checkpoint: " + path + " is not a DMSK checkpoint");
  check(read_u32(is, "version") == kCkptVersion,
        "load_checkpoint: unsupported checkpoint version in " + path);

  const std::vector<std::int64_t> expect = fingerprint(pipe);
  const std::int64_t fp_len = read_i64(is, "fingerprint length");
  check(fp_len == static_cast<std::int64_t>(expect.size()),
        "load_checkpoint: config fingerprint mismatch (different pipeline "
        "config)");
  for (const std::int64_t want : expect) {
    check(read_i64(is, "fingerprint field") == want,
          "load_checkpoint: config fingerprint mismatch (different pipeline "
          "config)");
  }

  TrainCursor cursor;
  const std::int64_t epoch = read_i64(is, "cursor epoch");
  cursor.next_round = read_i64(is, "cursor round");
  cursor.total_rounds = read_i64(is, "cursor total rounds");
  cursor.loss_sum = read_f64(is, "cursor loss sum");
  cursor.correct = read_i64(is, "cursor correct");
  cursor.seen = read_i64(is, "cursor seen");
  check(epoch >= 0 && epoch <= std::numeric_limits<int>::max() &&
            cursor.next_round >= 0 && cursor.total_rounds >= 0 &&
            cursor.next_round <= cursor.total_rounds && cursor.seen >= 0 &&
            cursor.correct >= 0,
        "load_checkpoint: corrupt cursor in " + path);
  cursor.epoch = static_cast<int>(epoch);

  std::vector<SageLayer>& layers = pipe.model().layers();
  const std::int64_t num_layers = read_i64(is, "layer count");
  check(num_layers == static_cast<std::int64_t>(layers.size()),
        "load_checkpoint: layer count mismatch");
  for (SageLayer& layer : layers) {
    read_tensor_into(is, layer.w_self());
    read_tensor_into(is, layer.w_neigh());
    read_tensor_into(is, layer.bias());
  }
  pipe.model().zero_grads();

  const std::int64_t kind_len = read_i64(is, "optimizer kind length");
  check(kind_len >= 0 && kind_len <= 64, "load_checkpoint: corrupt optimizer kind");
  std::string kind(static_cast<std::size_t>(kind_len), '\0');
  is.read(kind.data(), kind_len);
  check(static_cast<bool>(is), "checkpoint: truncated optimizer kind");
  check(kind == pipe.optimizer().kind(),
        "load_checkpoint: optimizer kind mismatch (saved '" + kind +
            "', pipeline has '" + pipe.optimizer().kind() + "')");
  pipe.optimizer().load_state(is, pipe.model().params());
  check(is.peek() == std::ifstream::traits_type::eof(),
        "load_checkpoint: trailing bytes in " + path);

  return cursor;
}

}  // namespace dms
