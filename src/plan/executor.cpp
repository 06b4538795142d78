#include "plan/executor.hpp"

#include <algorithm>
#include <span>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/frontier.hpp"
#include "core/graphsage.hpp"  // row_seed_fn, sage_extract_layer (§4.1.3)
#include "core/its.hpp"
#include "core/ladies.hpp"  // ladies_indicator_rows / ladies_norm / assemble
#include "plan/optimize.hpp"  // PlanCache
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "walk/walk_engine.hpp"

namespace dms {

namespace {

/// Concrete value bound to a symbolic slot during one run.
struct PlanValue {
  enum class Kind { kUnset, kMatrix, kLists, kMatrixList, kStack };
  Kind kind = Kind::kUnset;
  CsrMatrix m;
  std::vector<std::vector<index_t>> lists;  ///< frontiers or sampled sets
  std::vector<CsrMatrix> mats;              ///< per-batch extraction results
  FrontierStack stack;
};

/// Per-process-row execution state (replicated mode is the 1-row case).
struct RowState {
  std::vector<PlanValue> slots;
  std::vector<MinibatchSample> out;
  index_t first_batch = 0;  ///< global index of this row's first batch
  bool stopped = false;     ///< stop_on_empty_frontier tripped (walk plans)
};

struct RunCtx {
  RunCtx(const SamplePlan& p, const SamplerConfig& c) : plan(p), config(c) {}
  const SamplePlan& plan;
  const SamplerConfig& config;
  index_t n = 0;                             ///< vertex count / column space
  const CsrMatrix* adj = nullptr;            ///< replicated adjacency
  const DistBlockRowMatrix* dadj = nullptr;  ///< partitioned adjacency
  Cluster* cluster = nullptr;                ///< partitioned accounting
  const std::vector<index_t>* batch_ids = nullptr;
  std::uint64_t epoch_seed = 0;
  PlanRunState* state = nullptr;  ///< the caller's workspace, stats, engine
  const std::vector<value_t>* weights = nullptr;  ///< kGlobalWeights prefix
  bool sparsity_aware = true;
  std::vector<RowState> rows;
};

std::string op_where(const RunCtx& ctx, const PlanOp& op) {
  return "plan '" + ctx.plan.name + "' op '" + op.label + "'";
}

PlanValue& slot_ref(RunCtx& ctx, RowState& r, SlotId s, const PlanOp& op) {
  check(s != kNoSlot, op_where(ctx, op) + ": missing operand slot");
  return r.slots[static_cast<std::size_t>(s)];
}

CsrMatrix& as_matrix(RunCtx& ctx, RowState& r, SlotId s, const PlanOp& op) {
  PlanValue& v = slot_ref(ctx, r, s, op);
  check(v.kind == PlanValue::Kind::kMatrix,
        op_where(ctx, op) + ": type mismatch, slot " + std::to_string(s) +
            " does not hold a matrix");
  return v.m;
}

std::vector<std::vector<index_t>>& as_lists(RunCtx& ctx, RowState& r, SlotId s,
                                            const PlanOp& op) {
  PlanValue& v = slot_ref(ctx, r, s, op);
  check(v.kind == PlanValue::Kind::kLists,
        op_where(ctx, op) + ": type mismatch, slot " + std::to_string(s) +
            " does not hold per-batch vertex lists");
  return v.lists;
}

FrontierStack& as_stack(RunCtx& ctx, RowState& r, SlotId s, const PlanOp& op) {
  PlanValue& v = slot_ref(ctx, r, s, op);
  check(v.kind == PlanValue::Kind::kStack,
        op_where(ctx, op) + ": type mismatch, slot " + std::to_string(s) +
            " does not hold a frontier stack");
  return v.stack;
}

std::vector<CsrMatrix>& as_matrix_list(RunCtx& ctx, RowState& r, SlotId s,
                                       const PlanOp& op) {
  PlanValue& v = slot_ref(ctx, r, s, op);
  check(v.kind == PlanValue::Kind::kMatrixList,
        op_where(ctx, op) + ": type mismatch, slot " + std::to_string(s) +
            " does not hold a per-batch matrix list");
  return v.mats;
}

/// Runs body(row, i) for every non-stopped process row, recording the
/// max-over-rows wall-clock on the cluster under op.phase (partitioned
/// mode; replicas of a row do identical seeded work, so per-row time equals
/// per-rank time — the timed_rows convention of the pre-IR dist samplers).
template <typename Fn>
void rows_op(RunCtx& ctx, const PlanOp& op, Fn&& body) {
  double max_t = 0.0;
  for (std::size_t i = 0; i < ctx.rows.size(); ++i) {
    if (ctx.rows[i].stopped) continue;
    Timer t;
    body(ctx.rows[i], i);
    max_t = std::max(max_t, t.seconds());
  }
  if (ctx.cluster != nullptr) ctx.cluster->add_compute(op.phase, max_t);
}

/// The op's per-round sample count: its override or fanouts[round].
index_t round_s(const RunCtx& ctx, const PlanOp& op, index_t round) {
  if (op.fixed_s >= 0) return op.fixed_s;
  check(round < ctx.config.num_layers(),
        op_where(ctx, op) + ": round " + std::to_string(round) +
            " has no fanout (plan rounds exceed fanouts)");
  return ctx.config.fanouts[static_cast<std::size_t>(round)];
}

/// Uniform in [0, 1) from a derived seed (LABOR's shared per-vertex r_u).
double seed_uniform(std::uint64_t seed) {
  return static_cast<double>(seed >> 11) * (1.0 / 9007199254740992.0);
}

/// Adjacency row (columns) of global vertex g in either mode. Partitioned
/// execution reads the owner block directly — every process column stores
/// whole block rows, so the read models an intra-column fetch whose cost is
/// accounted separately (model_dist_row_fetch).
std::span<const index_t> adj_row_cols(const RunCtx& ctx, index_t g) {
  if (ctx.adj != nullptr) return ctx.adj->row_cols(g);
  const BlockPartition& part = ctx.dadj->partition();
  const index_t owner = part.owner(g);
  return ctx.dadj->block(owner).row_cols(g - part.begin(owner));
}

/// Models the remote-row fetches of a row-local op in partitioned mode:
/// process row i requests the adjacency rows of `verts` (sorted, deduped)
/// from their owner blocks within its own process column — the ids-up /
/// rows-back p2p shape of the 1.5D collective's sparsity-aware fetch, one
/// message pair per remote owner. Returns row i's modeled comm seconds;
/// volumes accumulate into bytes/msgs.
double model_dist_row_fetch(const RunCtx& ctx, std::size_t i,
                            const std::vector<index_t>& verts, bool with_vals,
                            std::size_t* bytes, std::size_t* msgs) {
  const BlockPartition& part = ctx.dadj->partition();
  const ProcessGrid& grid = ctx.dadj->grid();
  const CostModel& cm = ctx.cluster->cost_model();
  const std::size_t per_edge =
      sizeof(index_t) + (with_vals ? sizeof(value_t) : 0);
  double sec = 0.0;
  std::size_t k0 = 0;
  while (k0 < verts.size()) {
    const index_t owner = part.owner(verts[k0]);
    std::size_t k1 = k0;
    std::size_t row_edges = 0;
    while (k1 < verts.size() && part.owner(verts[k1]) == owner) {
      row_edges += adj_row_cols(ctx, verts[k1]).size();
      ++k1;
    }
    if (owner != static_cast<index_t>(i)) {
      const int dst = grid.rank_of(static_cast<int>(i), 0);
      const int src = grid.rank_of(static_cast<int>(owner), 0);
      const std::size_t id_bytes = (k1 - k0) * sizeof(index_t);
      const std::size_t row_bytes =
          row_edges * per_edge + (k1 - k0 + 1) * sizeof(nnz_t);
      sec += cm.p2p(dst, src, id_bytes) + cm.p2p(src, dst, row_bytes);
      *bytes += id_bytes + row_bytes;
      *msgs += 2;
    }
    k0 = k1;
  }
  return sec;
}

void exec_build_q(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const auto& fr = as_lists(ctx, r, op.in, op);
    if (op.qmode == QMode::kIndicator) {
      PlanValue& out = slot_ref(ctx, r, op.out, op);
      out.kind = PlanValue::Kind::kMatrix;
      out.m = ladies_indicator_rows(ctx.n, fr);
      return;
    }
    PlanValue& stk = slot_ref(ctx, r, op.out2, op);
    stk.kind = PlanValue::Kind::kStack;
    stk.stack = stack_frontiers(fr);
    if (ctx.plan.stop_on_empty_frontier && stk.stack.vertices.empty()) {
      r.stopped = true;  // every walk terminated — skip the rest
      return;
    }
    // No Q output: the in-place adjacency draw reads only the stack.
    if (op.out == kNoSlot) return;
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kMatrix;
    out.m = CsrMatrix::one_nonzero_per_row(ctx.n, stk.stack.vertices);
  });
}

void exec_spgemm(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const CsrMatrix& q = as_matrix(ctx, r, op.in, op);
    check(q.cols() == ctx.adj->rows(),
          op_where(ctx, op) + ": shape mismatch, Q cols " +
              std::to_string(q.cols()) + " vs adjacency rows " +
              std::to_string(ctx.adj->rows()));
    SpgemmOptions sopts;
    sopts.workspace = &ctx.state->ws;
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kMatrix;
    out.m = spgemm(q, *ctx.adj, sopts);
  });
}

/// The FrontierStack slot of the one-per-vertex kBuildQ that writes `q`, or
/// kNoSlot when Q has one row per batch (the indicator Q) or no kBuildQ
/// writes it.
SlotId q_stack_slot(const SamplePlan& plan, SlotId q) {
  for (const PlanOp& o : plan.body) {
    if (o.kind == PlanOpKind::kBuildQ && o.out == q) {
      return o.qmode == QMode::kOnePerVertex ? o.out2 : kNoSlot;
    }
  }
  return kNoSlot;
}

void exec_spgemm_15d(RunCtx& ctx, const PlanOp& op) {
  const auto rows = ctx.rows.size();
  const bool can_move = sole_reader_of_input(ctx.plan, op);
  // The collective sends each batch's rows of P to the replica that keeps
  // the batch, so a one-per-vertex Q says which rows are whose.
  const SlotId stack_slot = q_stack_slot(ctx.plan, op.in);
  std::vector<CsrMatrix> blocks(rows);
  std::vector<std::vector<index_t>> q_batches(stack_slot == kNoSlot ? 0 : rows);
  for (std::size_t i = 0; i < rows; ++i) {
    // A stopped process row (walk plans: every walk terminated) contributes
    // an empty Q — its input slot holds a stale or moved-out value.
    if (ctx.rows[i].stopped) {
      blocks[i] = CsrMatrix(0, ctx.n);
      continue;
    }
    if (stack_slot != kNoSlot) {
      q_batches[i] = as_stack(ctx, ctx.rows[i], stack_slot, op).offsets;
    }
    // Move when this op is the slot's only reader (the common case —
    // avoids an O(nnz) copy per process row per round on the hot path).
    CsrMatrix& q = as_matrix(ctx, ctx.rows[i], op.in, op);
    if (can_move) {
      blocks[i] = std::move(q);
    } else {
      blocks[i] = q;
    }
  }
  Spgemm15dOptions sopts;
  sopts.sparsity_aware = ctx.sparsity_aware;
  sopts.phase = op.phase;
  sopts.local.workspace = &ctx.state->ws;
  auto products = spgemm_15d(*ctx.cluster, blocks, *ctx.dadj, sopts, nullptr, q_batches);
  for (std::size_t i = 0; i < rows; ++i) {
    if (ctx.rows[i].stopped) continue;
    PlanValue& out = slot_ref(ctx, ctx.rows[i], op.out, op);
    out.kind = PlanValue::Kind::kMatrix;
    out.m = std::move(products[i]);
  }
}

void exec_normalize(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    CsrMatrix& m = as_matrix(ctx, r, op.in, op);
    if (op.norm == NormMode::kRow) {
      normalize_rows(m);
    } else {
      ladies_norm(m);
    }
  });
}

/// The run state's adjacency draw over the replicated adjacency, built on
/// first use (and again only if the bound graph changes).
const AdjacencyDraw& adjacency_draw(RunCtx& ctx, const PlanOp& op) {
  check(ctx.adj != nullptr,
        op_where(ctx, op) + ": drawing from the adjacency in place needs a "
                            "replicated adjacency");
  std::unique_ptr<const AdjacencyDraw>& draw = ctx.state->draw;
  if (draw == nullptr || &draw->adjacency() != ctx.adj) {
    draw = std::make_unique<const AdjacencyDraw>(*ctx.adj);
  }
  return *draw;
}

void exec_its_sample(RunCtx& ctx, const PlanOp& op, index_t round) {
  const index_t s = round_s(ctx, op, round);
  const std::uint64_t round_term =
      static_cast<std::uint64_t>(round) + op.seed.layer_salt;
  if (op.source == SampleSource::kAdjacencyRows) {
    // P = row-normalized Qˡ·A is never built: each stacked row draws from
    // its vertex's adjacency row in place, bit-identical to kMatrixRows.
    const AdjacencyDraw& draw = adjacency_draw(ctx, op);
    rows_op(ctx, op, [&](RowState& r, std::size_t) {
      const FrontierStack& stack = as_stack(ctx, r, op.in2, op);
      const RowSeedFn fn = row_seed_fn(&stack, r.out.size(), *ctx.batch_ids,
                                       r.first_batch, round_term, op.seed.row,
                                       ctx.epoch_seed);
      PlanValue& out = slot_ref(ctx, r, op.out, op);
      out.kind = PlanValue::Kind::kMatrix;
      out.m = draw.sample_rows(stack.vertices, s, fn, &ctx.state->ws);
    });
    return;
  }
  if (op.source == SampleSource::kMatrixRows) {
    rows_op(ctx, op, [&](RowState& r, std::size_t) {
      const CsrMatrix& p = as_matrix(ctx, r, op.in, op);
      const FrontierStack* stack =
          op.in2 == kNoSlot ? nullptr : &as_stack(ctx, r, op.in2, op);
      const RowSeedFn fn = row_seed_fn(stack, r.out.size(), *ctx.batch_ids,
                                       r.first_batch, round_term, op.seed.row,
                                       ctx.epoch_seed);
      PlanValue& out = slot_ref(ctx, r, op.out, op);
      out.kind = PlanValue::Kind::kMatrix;
      out.m = its_sample_rows(p, s, fn, &ctx.state->ws);
    });
    return;
  }
  // kGlobalWeights: per-batch ITS over the bound prefix-sum distribution
  // (FastGCN §2.2.2).
  check(ctx.weights != nullptr,
        op_where(ctx, op) + ": plan needs global weights but none were bound");
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kLists;
    out.lists.assign(r.out.size(), {});
    const RowSeedFn fn = row_seed_fn(nullptr, r.out.size(), *ctx.batch_ids,
                                     r.first_batch, round_term, op.seed.row,
                                     ctx.epoch_seed);
    for (std::size_t b = 0; b < r.out.size(); ++b) {
      its_sample_one(*ctx.weights, s, fn(static_cast<index_t>(b)), &out.lists[b]);
    }
  });
}

void exec_poisson_thin(RunCtx& ctx, const PlanOp& op, index_t round) {
  const index_t s = round_s(ctx, op, round);
  const std::uint64_t round_term =
      static_cast<std::uint64_t>(round) + op.seed.layer_salt;
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const CsrMatrix& p = as_matrix(ctx, r, op.in, op);
    const FrontierStack& stack = as_stack(ctx, r, op.in2, op);
    // Keep entry (row, u) iff r_u < s·P(row, u), with r_u shared by every
    // row of one batch (LABOR's correlated inclusion: a vertex admitted by
    // one row is likely admitted by all, shrinking the union frontier).
    std::vector<nnz_t> rowptr(static_cast<std::size_t>(p.rows()) + 1, 0);
    std::vector<index_t> cols;
    for (std::size_t b = 0; b + 1 < stack.offsets.size(); ++b) {
      const auto id = static_cast<std::uint64_t>(
          (*ctx.batch_ids)[static_cast<std::size_t>(r.first_batch) + b]);
      for (index_t row = stack.offsets[b]; row < stack.offsets[b + 1]; ++row) {
        const auto rcols = p.row_cols(row);
        const auto rvals = p.row_vals(row);
        for (std::size_t k = 0; k < rcols.size(); ++k) {
          const index_t u = rcols[k];
          const double ru = seed_uniform(derive_seed(
              ctx.epoch_seed, id, round_term, static_cast<std::uint64_t>(u)));
          if (ru < static_cast<double>(s) * rvals[k]) cols.push_back(u);
        }
        rowptr[static_cast<std::size_t>(row) + 1] =
            static_cast<nnz_t>(cols.size());
      }
    }
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kMatrix;
    std::vector<value_t> vals(cols.size(), 1.0);
    out.m = CsrMatrix(p.rows(), p.cols(), std::move(rowptr), std::move(cols),
                      std::move(vals));
  });
}

void exec_slice(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const CsrMatrix& m = as_matrix(ctx, r, op.in, op);
    check(static_cast<std::size_t>(m.rows()) == r.out.size(),
          op_where(ctx, op) + ": shape mismatch, matrix rows " +
              std::to_string(m.rows()) + " vs " + std::to_string(r.out.size()) +
              " batches");
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kLists;
    out.lists.assign(r.out.size(), {});
    for (std::size_t b = 0; b < r.out.size(); ++b) {
      const auto cols = m.row_cols(static_cast<index_t>(b));
      out.lists[b].assign(cols.begin(), cols.end());
    }
  });
}

void exec_masked_extract(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const auto& frontier = as_lists(ctx, r, ctx.plan.frontier_slot, op);
    const auto& sets = as_lists(ctx, r, op.in, op);
    PlanValue& out = slot_ref(ctx, r, op.out, op);
    out.kind = PlanValue::Kind::kMatrixList;
    out.mats.assign(r.out.size(), CsrMatrix());
    SpgemmOptions mopts;
    mopts.workspace = &ctx.state->ws;
    for (std::size_t b = 0; b < r.out.size(); ++b) {
      // A_S = A[R, S], the rows read in place: sampled ids come from a CSR
      // row / ascending ITS output, satisfying the sorted-and-distinct mask
      // contract.
      out.mats[b] = spgemm_masked(*ctx.adj, frontier[b], sets[b], mopts);
    }
  });
}

void exec_masked_extract_15d(RunCtx& ctx, const PlanOp& op) {
  // Each row's frontiers and sampled sets go to the collective as they are:
  // it ships only A[R_b, S_b] (the same bits as the replicated op).
  std::vector<ExtractBatches> batches(ctx.rows.size());
  for (std::size_t i = 0; i < ctx.rows.size(); ++i) {
    RowState& r = ctx.rows[i];
    if (r.stopped) continue;
    batches[i] = {as_lists(ctx, r, ctx.plan.frontier_slot, op),
                  as_lists(ctx, r, op.in, op)};
  }
  Spgemm15dOptions xopts;
  xopts.sparsity_aware = ctx.sparsity_aware;
  xopts.phase = op.phase;
  xopts.local.workspace = &ctx.state->ws;
  auto mats = masked_extract_15d(*ctx.cluster, *ctx.dadj, batches, xopts);
  for (std::size_t i = 0; i < ctx.rows.size(); ++i) {
    if (ctx.rows[i].stopped) continue;
    PlanValue& out = slot_ref(ctx, ctx.rows[i], op.out, op);
    out.kind = PlanValue::Kind::kMatrixList;
    out.mats = std::move(mats[i]);
  }
}

void exec_frontier_union(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    auto& frontier = as_lists(ctx, r, ctx.plan.frontier_slot, op);
    if (op.assemble == AssembleMode::kNeighborRows) {
      const CsrMatrix& qs = as_matrix(ctx, r, op.in, op);
      const FrontierStack& stack = as_stack(ctx, r, op.in2, op);
      for (std::size_t b = 0; b < r.out.size(); ++b) {
        LayerSample layer = sage_extract_layer(qs, stack, b, frontier[b]);
        frontier[b] = layer.col_vertices;
        r.out[b].layers.push_back(std::move(layer));
      }
    } else {
      const auto& mats = as_matrix_list(ctx, r, op.in, op);
      const auto& sets = as_lists(ctx, r, op.in2, op);
      for (std::size_t b = 0; b < r.out.size(); ++b) {
        LayerSample layer =
            ladies_assemble_layer(frontier[b], sets[b], mats[b]);
        frontier[b] = layer.col_vertices;
        r.out[b].layers.push_back(std::move(layer));
      }
    }
  });
}

void exec_walk_bias(RunCtx& ctx, const PlanOp& op) {
  // node2vec second-order reweighting (Grover & Leskovec 2016), in place on
  // the probability rows: candidate == previous vertex → ×1/p, a neighbor
  // of it → ×1, else ×1/q. The prev slot holds one entry per walker; a
  // batch with no history yet (round 0) stays unbiased.
  std::size_t comm_bytes = 0, comm_msgs = 0;
  double comm_sec = 0.0;
  rows_op(ctx, op, [&](RowState& r, std::size_t i) {
    CsrMatrix& m = as_matrix(ctx, r, op.in, op);
    const FrontierStack& stack = as_stack(ctx, r, op.in2, op);
    const auto& prev = as_lists(ctx, r, ctx.plan.prev_slot, op);
    if (ctx.cluster != nullptr) {
      // The membership test reads the previous vertices' adjacency rows;
      // remote ones are modeled as intra-column owner-block fetches
      // (columns only — no values cross).
      std::vector<index_t> pv;
      for (const auto& pb : prev) pv.insert(pv.end(), pb.begin(), pb.end());
      std::sort(pv.begin(), pv.end());
      pv.erase(std::unique(pv.begin(), pv.end()), pv.end());
      comm_sec = std::max(comm_sec, model_dist_row_fetch(ctx, i, pv, false,
                                                         &comm_bytes, &comm_msgs));
    }
    auto& vals = m.mutable_vals();
    for (std::size_t b = 0; b + 1 < stack.offsets.size(); ++b) {
      if (prev[b].empty()) continue;  // no previous step yet
      for (index_t row = stack.offsets[b]; row < stack.offsets[b + 1]; ++row) {
        const index_t pv =
            prev[b][static_cast<std::size_t>(row - stack.offsets[b])];
        const auto prev_row = adj_row_cols(ctx, pv);
        const auto cols = m.row_cols(row);
        for (nnz_t k = m.row_begin(row); k < m.row_end(row); ++k) {
          vals[static_cast<std::size_t>(k)] *= node2vec_bias_factor(
              cols[static_cast<std::size_t>(k - m.row_begin(row))], pv,
              prev_row, op.bias_p, op.bias_q);
        }
      }
    }
  });
  if (ctx.cluster != nullptr && comm_msgs > 0) {
    ctx.cluster->record_comm(op.phase, comm_sec, comm_bytes, comm_msgs);
  }
}

void exec_walk_advance(RunCtx& ctx, const PlanOp& op) {
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    const CsrMatrix& qs = as_matrix(ctx, r, op.in, op);
    const FrontierStack& stack = as_stack(ctx, r, op.in2, op);
    auto& walker = as_lists(ctx, r, ctx.plan.frontier_slot, op);
    auto& visited = as_lists(ctx, r, ctx.plan.visited_slot, op);
    auto* prev = ctx.plan.prev_slot == kNoSlot
                     ? nullptr
                     : &as_lists(ctx, r, ctx.plan.prev_slot, op);
    for (std::size_t b = 0; b + 1 < stack.offsets.size(); ++b) {
      auto& wb = walker[b];
      if (prev != nullptr) (*prev)[b].resize(wb.size());
      // In-place forward compaction (write index <= read index): survivors
      // keep their order, dead walks drop out, no per-batch allocation.
      std::size_t j = 0;
      for (index_t row = stack.offsets[b]; row < stack.offsets[b + 1]; ++row) {
        const auto cols = qs.row_cols(row);
        // Empty row: the walk hit a sink vertex and terminates.
        if (cols.empty()) continue;
        const index_t from = wb[static_cast<std::size_t>(row - stack.offsets[b])];
        wb[j] = cols[0];
        if (prev != nullptr) (*prev)[b][j] = from;
        visited[b].push_back(cols[0]);
        ++ctx.state->walk_steps;
        ++j;
      }
      wb.resize(j);
      if (prev != nullptr) (*prev)[b].resize(j);
    }
  });
}

/// The induced subgraph A[vs, vs] (vs sorted and deduped; values pass
/// through), its rows read in place. Partitioned execution reads each row
/// from its owner block: vs is sorted, so the rows of one owner form one
/// run, extracted from that block and stacked — bit-identical to the
/// replicated extraction, since block rows are slices of the global matrix.
CsrMatrix induced_subgraph(const RunCtx& ctx, const std::vector<index_t>& vs,
                           const SpgemmOptions& opts) {
  if (ctx.adj != nullptr) return spgemm_masked(*ctx.adj, vs, vs, opts);
  const BlockPartition& part = ctx.dadj->partition();
  std::vector<CsrMatrix> runs;
  std::vector<index_t> local;
  for (std::size_t k0 = 0; k0 < vs.size();) {
    const index_t owner = part.owner(vs[k0]);
    local.clear();
    std::size_t k1 = k0;
    for (; k1 < vs.size() && part.owner(vs[k1]) == owner; ++k1) {
      local.push_back(vs[k1] - part.begin(owner));
    }
    runs.push_back(spgemm_masked(ctx.dadj->block(owner), local, vs, opts));
    k0 = k1;
  }
  if (runs.empty()) return CsrMatrix(0, 0);
  return vstack(runs);
}

void exec_induced_layers(RunCtx& ctx, const PlanOp& op) {
  std::size_t comm_bytes = 0, comm_msgs = 0;
  double comm_sec = 0.0;
  SpgemmOptions mopts;
  mopts.workspace = &ctx.state->ws;
  rows_op(ctx, op, [&](RowState& r, std::size_t i) {
    auto& visited = as_lists(ctx, r, ctx.plan.visited_slot, op);
    double row_sec = 0.0;
    for (std::size_t b = 0; b < r.out.size(); ++b) {
      auto& vs = visited[b];
      std::sort(vs.begin(), vs.end());
      vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
      if (ctx.cluster != nullptr) {
        row_sec += model_dist_row_fetch(ctx, i, vs, true, &comm_bytes,
                                        &comm_msgs);
      }
      LayerSample layer;
      layer.adj = induced_subgraph(ctx, vs, mopts);
      layer.row_vertices = vs;
      layer.col_vertices = vs;
      r.out[b].batch_vertices = vs;  // train on every subgraph vertex
      r.out[b].layers.clear();
      for (index_t l = 0; l < op.copies; ++l) r.out[b].layers.push_back(layer);
    }
    comm_sec = std::max(comm_sec, row_sec);
  });
  if (ctx.cluster != nullptr && comm_msgs > 0) {
    ctx.cluster->record_comm(op.phase, comm_sec, comm_bytes, comm_msgs);
  }
}

void exec_walk(RunCtx& ctx, const PlanOp& op) {
  const WalkEngine engine(adjacency_draw(ctx, op));
  PlanRunState& st = *ctx.state;
  rows_op(ctx, op, [&](RowState& r, std::size_t) {
    auto& walker = as_lists(ctx, r, ctx.plan.frontier_slot, op);
    auto& visited = as_lists(ctx, r, ctx.plan.visited_slot, op);
    auto* prev = ctx.plan.prev_slot == kNoSlot
                     ? nullptr
                     : &as_lists(ctx, r, ctx.plan.prev_slot, op);
    engine.run(walker, visited, prev, *ctx.batch_ids, r.first_batch,
               ctx.epoch_seed, op, st.ws, &st.walk_steps);
  });
}

/// The run picks each op's execution: a partitioned run executes kSpgemm
/// and kMaskedExtract as the 1.5D collectives, as adj_row_cols and
/// induced_subgraph read the owner blocks.
void exec_op(RunCtx& ctx, const PlanOp& op, index_t round) {
  const bool replicated = ctx.adj != nullptr;
  switch (op.kind) {
    case PlanOpKind::kBuildQ: return exec_build_q(ctx, op);
    case PlanOpKind::kSpgemm:
      return replicated ? exec_spgemm(ctx, op) : exec_spgemm_15d(ctx, op);
    case PlanOpKind::kNormalize: return exec_normalize(ctx, op);
    case PlanOpKind::kItsSample: return exec_its_sample(ctx, op, round);
    case PlanOpKind::kPoissonThin: return exec_poisson_thin(ctx, op, round);
    case PlanOpKind::kSlice: return exec_slice(ctx, op);
    case PlanOpKind::kMaskedExtract:
      return replicated ? exec_masked_extract(ctx, op)
                        : exec_masked_extract_15d(ctx, op);
    case PlanOpKind::kFrontierUnion: return exec_frontier_union(ctx, op);
    case PlanOpKind::kWalkAdvance: return exec_walk_advance(ctx, op);
    case PlanOpKind::kWalkBias: return exec_walk_bias(ctx, op);
    case PlanOpKind::kInducedLayers: return exec_induced_layers(ctx, op);
    case PlanOpKind::kWalk: return exec_walk(ctx, op);
  }
  throw DmsError(op_where(ctx, op) + ": unknown op kind");
}

}  // namespace

PlanExecutor::PlanExecutor(SamplePlan plan, SamplerConfig config,
                           PlanExecOptions opts)
    : config_(std::move(config)) {
  validate_plan(plan);
  // One fanout rule for every sampler in every mode. Walk plans take unit
  // fanouts from walk_adapter_config (their round count is explicit).
  check(!config_.fanouts.empty(),
        "PlanExecutor: plan '" + plan.name + "' needs non-empty fanouts");
  for (const index_t f : config_.fanouts) {
    check(f > 0, "PlanExecutor: plan '" + plan.name +
                     "' fanouts must be positive, got " + std::to_string(f));
  }
  if (opts.optimize) {
    // Optimized form, shared process-wide: every executor over the same
    // plan shape (training epochs, coalesced serving batches, replica
    // engines) reuses one immutable SamplePlan.
    plan_ = PlanCache::global().get_or_optimize(plan);
  } else {
    plan_ = std::make_shared<const SamplePlan>(std::move(plan));
  }
}

namespace {

void init_row(RunCtx& ctx, RowState& r, index_t first,
              const std::vector<std::vector<index_t>>& batches, index_t count) {
  r.slots.assign(static_cast<std::size_t>(ctx.plan.num_slots), PlanValue{});
  r.first_batch = first;
  r.out.resize(static_cast<std::size_t>(count));
  // Walk plans check pooled per-batch list buffers out of the Workspace
  // into their persistent slots (frontier / visited / prev), returned by
  // recycle_walk_lists when the run ends — steady-state walk epochs
  // allocate only results.
  const bool pooled = ctx.plan.visited_slot != kNoSlot;
  WalkScratch* sc = pooled ? &ctx.state->ws.walk_scratch() : nullptr;
  PlanValue& fr = r.slots[static_cast<std::size_t>(ctx.plan.frontier_slot)];
  fr.kind = PlanValue::Kind::kLists;
  fr.lists.resize(static_cast<std::size_t>(count));
  for (index_t b = 0; b < count; ++b) {
    const auto& batch = batches[static_cast<std::size_t>(first + b)];
    for (const index_t v : batch) {
      if (v < 0 || v >= ctx.n) {
        throw DmsError("PlanExecutor: batch vertex " + std::to_string(v) +
                       " out of range [0, " + std::to_string(ctx.n) + ")");
      }
    }
    r.out[static_cast<std::size_t>(b)].batch_vertices = batch;
    auto& fl = fr.lists[static_cast<std::size_t>(b)];
    if (pooled) fl = sc->take_list();
    fl.assign(batch.begin(), batch.end());
  }
  if (ctx.plan.visited_slot != kNoSlot) {
    PlanValue& vis = r.slots[static_cast<std::size_t>(ctx.plan.visited_slot)];
    vis.kind = PlanValue::Kind::kLists;
    vis.lists.resize(static_cast<std::size_t>(count));
    for (index_t b = 0; b < count; ++b) {
      auto& vl = vis.lists[static_cast<std::size_t>(b)];
      vl = sc->take_list();
      const auto& fl = fr.lists[static_cast<std::size_t>(b)];
      vl.assign(fl.begin(), fl.end());  // walks start visited = roots
    }
  }
  if (ctx.plan.prev_slot != kNoSlot) {
    PlanValue& pp = r.slots[static_cast<std::size_t>(ctx.plan.prev_slot)];
    pp.kind = PlanValue::Kind::kLists;
    pp.lists.resize(static_cast<std::size_t>(count));
    if (pooled) {
      for (auto& pl : pp.lists) pl = sc->take_list();
    }
  }
}

/// Returns a walk plan's pooled slot lists to the Workspace pool (capacity
/// retained for the next run).
void recycle_walk_lists(RunCtx& ctx) {
  if (ctx.plan.visited_slot == kNoSlot) return;
  WalkScratch& sc = ctx.state->ws.walk_scratch();
  for (RowState& r : ctx.rows) {
    for (const SlotId s :
         {ctx.plan.frontier_slot, ctx.plan.visited_slot, ctx.plan.prev_slot}) {
      if (s == kNoSlot) continue;
      PlanValue& v = r.slots[static_cast<std::size_t>(s)];
      if (v.kind != PlanValue::Kind::kLists) continue;
      for (auto& l : v.lists) sc.put_list(std::move(l));
      v.lists.clear();
    }
  }
}

void run_rounds(RunCtx& ctx) {
  const index_t rounds = ctx.plan.rounds_from_fanouts
                             ? ctx.config.num_layers()
                             : ctx.plan.explicit_rounds;
  auto run_ops = [&](const std::vector<PlanOp>& ops, index_t round) {
    for (const PlanOp& op : ops) {
      Timer t;
      exec_op(ctx, op, round);
      ctx.state->op_seconds[ctx.plan.name + "/" + op.label] += t.seconds();
    }
  };
  for (index_t l = 0; l < rounds; ++l) {
    bool any_live = false;
    for (const RowState& r : ctx.rows) any_live = any_live || !r.stopped;
    if (!any_live) break;
    run_ops(ctx.plan.body, l);
  }
  // The epilogue runs for every row, including walk plans whose frontier
  // emptied early (the visited set is still the sample).
  for (RowState& r : ctx.rows) r.stopped = false;
  run_ops(ctx.plan.epilogue, rounds == 0 ? 0 : rounds - 1);
}

}  // namespace

std::vector<MinibatchSample> PlanExecutor::run(
    const Graph& graph, const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    PlanRunState& state, const std::vector<value_t>* global_weights) const {
  check(batches.size() == batch_ids.size(),
        "PlanExecutor::run: ids/batches mismatch");
  // Serving's empty-coalescing-window case: a bulk of zero batches is a
  // no-op, not an error (the stacked-frontier path otherwise accepts
  // heterogeneous per-batch sizes — one-seed requests stack next to
  // training-sized batches).
  if (batches.empty()) return {};
  check(!plan_->needs_global_weights || global_weights != nullptr,
        "PlanExecutor::run: plan '" + plan_->name +
            "' needs bound global weights");
  RunCtx ctx{*plan_, config_};
  ctx.n = graph.num_vertices();
  ctx.adj = &graph.adjacency();
  ctx.batch_ids = &batch_ids;
  ctx.epoch_seed = epoch_seed;
  ctx.state = &state;
  ctx.weights = global_weights;
  ctx.rows.resize(1);
  init_row(ctx, ctx.rows[0], 0, batches, static_cast<index_t>(batches.size()));
  run_rounds(ctx);
  recycle_walk_lists(ctx);
  return std::move(ctx.rows[0].out);
}

std::vector<std::vector<MinibatchSample>> PlanExecutor::run_partitioned(
    Cluster& cluster, const DistBlockRowMatrix& adj, const BlockPartition& assign,
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    PlanRunState& state, bool sparsity_aware,
    const std::vector<value_t>* global_weights) const {
  check(batches.size() == batch_ids.size(),
        "PlanExecutor::run_partitioned: ids/batches mismatch");
  check(!plan_->needs_global_weights || global_weights != nullptr,
        "PlanExecutor::run_partitioned: plan '" + plan_->name +
            "' needs bound global weights");
  RunCtx ctx{*plan_, config_};
  ctx.n = adj.rows();
  ctx.dadj = &adj;
  ctx.cluster = &cluster;
  ctx.batch_ids = &batch_ids;
  ctx.epoch_seed = epoch_seed;
  ctx.state = &state;
  ctx.weights = global_weights;
  ctx.sparsity_aware = sparsity_aware;
  ctx.rows.resize(static_cast<std::size_t>(assign.parts()));
  for (index_t i = 0; i < assign.parts(); ++i) {
    init_row(ctx, ctx.rows[static_cast<std::size_t>(i)], assign.begin(i),
             batches, assign.end(i) - assign.begin(i));
  }
  run_rounds(ctx);
  recycle_walk_lists(ctx);
  std::vector<std::vector<MinibatchSample>> out;
  out.reserve(ctx.rows.size());
  for (RowState& r : ctx.rows) out.push_back(std::move(r.out));
  return out;
}

}  // namespace dms
