#include "train/checkpoint.hpp"

#include <bit>
#include <cstdint>
#include <limits>

#include "common/binio.hpp"

namespace dms {

namespace {

constexpr std::uint32_t kCkptMagic = 0x4b534d44u;  // "DMSK"
constexpr std::uint32_t kCkptVersion = 3;

/// The config fingerprint: every knob that shapes the epoch schedule or the
/// training arithmetic, flattened to i64 fields (floats as raw bits so the
/// comparison is exact). The grid belongs here: p and c decide which
/// batches share an optimizer step. Restoring under a different fingerprint
/// would silently change the remainder of the run — reject instead.
std::vector<std::int64_t> fingerprint(Pipeline& pipe) {
  const PipelineConfig& cfg = pipe.config();
  const ModelConfig& mc = pipe.model().config();
  std::vector<std::int64_t> fp = {
      static_cast<std::int64_t>(cfg.sampler),
      static_cast<std::int64_t>(cfg.mode),
      pipe.grid().size(),
      pipe.grid().replication(),
      cfg.batch_size,
      cfg.bulk_k,
      cfg.hidden,
      std::bit_cast<std::uint32_t>(cfg.lr),
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

}  // namespace

void save_checkpoint(Pipeline& pipe, const TrainCursor& cursor,
                     const std::string& path) {
  BinWriter out(path, kCkptMagic, kCkptVersion, "save_checkpoint");
  out.array(fingerprint(pipe));

  out.value<std::int64_t>(cursor.epoch);
  out.value(cursor.next_round);
  out.value(cursor.total_rounds);
  out.value(cursor.loss_sum);
  out.value(cursor.correct);
  out.value(cursor.seen);

  out.value(static_cast<std::int64_t>(pipe.model().layers().size()));
  for (const ParamGrad& pg : pipe.model().params()) out.matrix(*pg.param);

  pipe.optimizer().save_state(out);
  out.finish();
}

TrainCursor load_checkpoint(Pipeline& pipe, const std::string& path) {
  BinReader in(path, kCkptMagic, kCkptVersion, "load_checkpoint");
  check(in.array<std::int64_t>() == fingerprint(pipe),
        "load_checkpoint: config fingerprint mismatch (different pipeline "
        "config)");

  TrainCursor cursor;
  const auto epoch = in.value<std::int64_t>();
  cursor.next_round = in.value<index_t>();
  cursor.total_rounds = in.value<index_t>();
  cursor.loss_sum = in.value<double>();
  cursor.correct = in.value<index_t>();
  cursor.seen = in.value<index_t>();
  check(epoch >= 0 && epoch <= std::numeric_limits<int>::max() &&
            cursor.next_round >= 0 && cursor.total_rounds >= 0 &&
            cursor.next_round <= cursor.total_rounds && cursor.seen >= 0 &&
            cursor.correct >= 0,
        "load_checkpoint: corrupt cursor in " + path);
  cursor.epoch = static_cast<int>(epoch);

  // The fingerprint pinned the model dimensions, so a shape mismatch below
  // means a corrupt file.
  check(in.value<std::int64_t>() ==
            static_cast<std::int64_t>(pipe.model().layers().size()),
        "load_checkpoint: layer count mismatch");
  const std::vector<ParamGrad> params = pipe.model().params();
  for (const ParamGrad& pg : params) in.matrix_into(*pg.param);
  pipe.model().zero_grads();

  pipe.optimizer().load_state(in, params);
  in.finish();
  return cursor;
}

}  // namespace dms
