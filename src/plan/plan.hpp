// Sampling-plan IR (DESIGN.md §9): every sampler in the library is a small
// matrix-op program — a SamplePlan — over symbolic matrix slots, executed by
// one accounted PlanExecutor (plan/executor.hpp).
//
// The paper's framework (§4) expresses GraphSAGE, LADIES and FastGCN as
// compositions of the same primitives: probability-generation SpGEMM, NORM,
// ITS sampling, and extraction SpGEMMs. The IR makes that algebra explicit:
// a plan's *body* is run once per sampled layer (round), reading and writing
// typed slots (sparse matrices, per-batch frontiers, per-batch sampled
// sets); an optional *epilogue* runs after the last round (GraphSAINT's
// induced-subgraph emission). Two slots persist across rounds — the frontier
// and, for walk-based plans, the visited set — everything else is
// recomputed each round.
//
// Execution modes share one plan definition: the mode belongs to the run.
// The replicated executor runs ops through the single-node kernels
// (spgemm_engine, its_sample_rows); the partitioned executor runs the same
// ops per process row, except kSpgemm, which runs as the 1.5D collective
// spgemm_15d, and kMaskedExtract, which runs as masked_extract_15d (masked
// at the owner blocks, shipping only A[R_b, S_b]); the collectives'
// internal fetch/exchange steps carry the communication accounting.
// Because every kernel obeys the engine's bit-identity contract and all
// randomness is derived from (epoch, global batch id, round, row) seeds, a
// plan produces bit-identical minibatches in every mode, grid shape, and
// thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dms {

// Phase names under which plan ops account compute/comm time on a Cluster
// (Figure 7 breakdowns). Formerly defined by dist/dist_sampler.hpp; they
// live here because every op of the IR carries one.
inline constexpr const char* kPhaseProbability = "probability";
inline constexpr const char* kPhaseSampling = "sampling";
inline constexpr const char* kPhaseExtraction = "extraction";

/// Symbolic slot handle. Slots are typed at execution time: a slot holds a
/// sparse matrix, per-batch vertex lists (frontiers / sampled sets), a
/// per-batch matrix list, or a frontier stack (Eq. 1 row offsets).
using SlotId = int;
inline constexpr SlotId kNoSlot = -1;

enum class PlanOpKind {
  /// frontiers → Q. kOnePerVertex stacks the per-batch lists (Eq. 1) into
  /// the FrontierStack (out2) and, when out is set, emits Q with one
  /// nonzero per stacked row; kIndicator emits one indicator row per batch
  /// (§4.2.1).
  kBuildQ,
  /// out = in · A, the probability-generation product against the bound
  /// adjacency. Partitioned runs execute it as spgemm_15d (Algorithm 2:
  /// per-process-row Q blocks, chunked A-row fetch/exchange, then each
  /// batch's partials sent to the replica that keeps it).
  kSpgemm,
  /// In-place NORM on a matrix slot: kRow row-normalizes (§4.1.1); kLadies
  /// squares entries first (p_v ∝ e_v², Zou et al. 2019). The one
  /// normalization of the library: the SpGEMM engine only multiplies.
  kNormalize,
  /// SAMPLE via inverse transform sampling (§4.1.2). kMatrixRows samples s
  /// distinct columns from each row of a probability matrix; kGlobalWeights
  /// samples per batch from a bound global weight prefix (FastGCN's
  /// batch-independent distribution) into a sampled-set slot;
  /// kAdjacencyRows (emitted only by optimize(), replicated only) reads no
  /// matrix: it samples each row of the stack in2 straight from the bound
  /// adjacency's row of that vertex, bit-identical to kMatrixRows over the
  /// row-normalized selection product it replaces (AdjacencyDraw).
  kItsSample,
  /// LABOR-style per-vertex Poisson thinning: keep entry (r, u) of the
  /// row-normalized P iff the shared per-vertex uniform r_u — derived from
  /// (epoch, batch, round, u), identical across rows of one batch — is
  /// below s·P(r, u). Correlated inclusion minimizes the union frontier.
  kPoissonThin,
  /// Per-batch row read of a matrix slot into a sampled-set slot
  /// (row b → the sampled vertex ids of batch b).
  kSlice,
  /// Masked extraction A_S = A[R, S] per batch (§4.2.3, §8.2.2): rows R
  /// from the frontier, read from the adjacency in place, columns S from a
  /// sampled-set slot (spgemm_masked). Partitioned runs execute it as
  /// masked_extract_15d, which runs spgemm_masked on the owner blocks (once
  /// per batch with rows there) and ships only the kept entries.
  kMaskedExtract,
  /// EXTRACT + frontier advance: assembles one LayerSample per batch and
  /// replaces the frontier with the new column space (rows lead, see
  /// sampler.hpp). kNeighborRows renumbers sampled Q rows (GraphSAGE
  /// §4.1.3); kSampledSets unions rows ∪ sampled over a masked-extraction
  /// result (LADIES / FastGCN).
  kFrontierUnion,
  /// Random-walk step: frontier[b] ← sampled next vertex per walker (dead
  /// walks drop out), appending survivors to the visited slot. Plans with a
  /// prev slot also record each survivor's previous vertex (second-order
  /// walks).
  kWalkAdvance,
  /// node2vec second-order bias (Grover & Leskovec 2016): scales each entry
  /// of the probability matrix (in, modified in place; in2 = the round's
  /// frontier stack) by 1/p when the candidate is the walker's previous
  /// vertex, 1 when it neighbors it, 1/q otherwise. Reads the plan's prev
  /// slot; a walker with no previous step yet (round 0) is left unbiased.
  /// Row-local in partitioned mode (prev rows are fetched from their owner
  /// block, with the fetch accounted as intra-column p2p).
  kWalkBias,
  /// Epilogue op: per batch, the subgraph induced on the (sorted, deduped)
  /// visited set, emitted `copies` times (GraphSAINT trains an L-layer
  /// model on one induced adjacency). Replaces batch_vertices with V_s.
  kInducedLayers,
  /// The fused walk (DESIGN.md §11), emitted only by optimize() in place of
  /// a walk-shaped body: runs all `walk_length` rounds through
  /// the WalkEngine in one call, bit-identical to the kBuildQ → kSpgemm →
  /// [kWalkBias] → kNormalize → kItsSample(s = 1) → kWalkAdvance rounds it
  /// replaces. Advances the frontier / visited slots (and the prev slot,
  /// whose presence makes the walk second-order with bias_p / bias_q),
  /// seeding each pick like that body's kItsSample. Replicated only.
  kWalk,
};

enum class QMode { kOnePerVertex, kIndicator };
enum class NormMode { kRow, kLadies };
enum class SampleSource { kMatrixRows, kGlobalWeights, kAdjacencyRows };
enum class AssembleMode { kNeighborRows, kSampledSets };

/// Fourth derive_seed argument of a sampling op's per-row seed.
enum class SeedRowTerm { kLocalRow, kZero, kOne };

/// Randomness of one sampling op: seed = derive_seed(epoch_seed, global
/// batch id, round + layer_salt, row term). Derived per (batch, round, row)
/// — never from the rank layout or thread count — which is what makes every
/// execution mode reproduce the same samples (the determinism contract).
struct SeedRule {
  std::uint64_t layer_salt = 0;
  SeedRowTerm row = SeedRowTerm::kZero;
};

struct PlanOp {
  PlanOpKind kind = PlanOpKind::kBuildQ;
  /// Per-op accounting label (EpochStats::sampler_ops key is
  /// "<plan>/<label>").
  std::string label;
  /// Cluster phase this op's time is recorded under (kPhase*).
  const char* phase = kPhaseProbability;
  SlotId in = kNoSlot;   ///< primary input slot
  SlotId in2 = kNoSlot;  ///< secondary input (stack / sampled sets)
  SlotId out = kNoSlot;  ///< primary output slot
  SlotId out2 = kNoSlot; ///< secondary output (kBuildQ's FrontierStack)
  QMode qmode = QMode::kOnePerVertex;
  NormMode norm = NormMode::kRow;
  SampleSource source = SampleSource::kMatrixRows;
  SeedRule seed;
  AssembleMode assemble = AssembleMode::kNeighborRows;
  /// Per-round sample count override (GraphSAINT walks use s = 1); < 0
  /// reads SamplerConfig::fanouts[round].
  index_t fixed_s = -1;
  /// kInducedLayers: how many identical layers to emit.
  index_t copies = 1;
  /// kWalkBias / kWalk: the node2vec return (p) and in-out (q) parameters.
  value_t bias_p = 1.0;
  value_t bias_q = 1.0;
  /// kWalk: the walk rounds it runs in one call.
  index_t walk_length = 0;
};

/// A compiled sampler: the op program plus its slot/loop structure.
struct SamplePlan {
  std::string name;
  index_t num_slots = 0;
  /// Persistent slot holding the per-batch frontier; bound to the batch
  /// vertex lists when a run starts.
  SlotId frontier_slot = kNoSlot;
  /// Persistent visited-set slot for walk plans (kNoSlot otherwise).
  SlotId visited_slot = kNoSlot;
  /// Persistent previous-vertex slot for second-order walk plans
  /// (node2vec): written by kWalkAdvance, read by kWalkBias the next round.
  SlotId prev_slot = kNoSlot;
  /// true: rounds = SamplerConfig::fanouts.size(); false: explicit_rounds
  /// (GraphSAINT's walk length is independent of the model depth).
  bool rounds_from_fanouts = true;
  index_t explicit_rounds = 0;
  /// Stop the round loop early when kBuildQ stacks an empty frontier
  /// (GraphSAINT: every walk hit a sink).
  bool stop_on_empty_frontier = false;
  /// Plan samples from a bound global weight prefix (FastGCN).
  bool needs_global_weights = false;
  std::vector<PlanOp> body;      ///< run once per round
  std::vector<PlanOp> epilogue;  ///< run once after the last round

  SlotId add_slot() { return num_slots++; }
};

/// Structural validation: every op reads only slots that are bound (the
/// frontier/visited slots) or were written earlier in the program, and
/// operand slots required by the op kind are present and in range. Throws
/// DmsError ("unbound slot", "missing operand", ...) on the first
/// violation. It checks no execution mode: a plan carrying a replicated-only
/// op (kWalk, kItsSample/kAdjacencyRows) fails when a partitioned run
/// reaches that op.
void validate_plan(const SamplePlan& plan);

std::string to_string(PlanOpKind kind);

/// Number of operand reads (in / in2) of slot `s` across the body and the
/// epilogue.
int slot_readers(const SamplePlan& plan, SlotId s);

/// True iff `op` is the only op in the plan reading slot `op.in` — then its
/// executor may move the value out instead of copying (the slot's producer
/// precedes any reader in program order, so the next round re-fills it
/// before it is read again).
bool sole_reader_of_input(const SamplePlan& plan, const PlanOp& op);

/// Human-readable program listing (one op per line), for docs and tests.
/// The in-place adjacency draw shows up as `source=adjacency`.
std::string describe(const SamplePlan& plan);

}  // namespace dms
