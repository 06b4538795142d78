// Training checkpoint/restore (DESIGN.md §13).
//
// A checkpoint is taken at a bulk-round boundary (Pipeline::run_epoch_partial
// stops at one): gradients are zero there, every sampled minibatch has been
// trained, and the epoch's round schedule is a pure function of the config
// and dataset. Sampling randomness is stateless — derived per (epoch, global
// batch id, layer, row) from the config seed — so no RNG state needs saving.
// Model weights + Adam state + the TrainCursor therefore fully determine
// the remainder of the run, and a restored pipeline produces bit-identical
// losses to the uninterrupted one (tests/test_checkpoint.cpp kills an epoch
// mid-way and verifies exactly that).
//
// Binary format ("DMSK" version 3, written and read through common/binio
// like the DMSD dataset files): a config fingerprint (sampler, mode, grid p
// and c, fanouts, batch/bulk/overlap shape, seed, learning rate, model
// dimensions) guards the restore — loading into a pipeline whose config
// would produce a different schedule or different arithmetic is rejected,
// not silently accepted. The reader treats the file as untrusted: every
// length and shape is bounded by the bytes left or checked against the
// model before anything is allocated.
#pragma once

#include <string>

#include "train/pipeline.hpp"

namespace dms {

/// Serializes the pipeline's model weights, Adam state and `cursor` to
/// `path`. Call at a round boundary (e.g. with run_epoch_partial's cursor).
void save_checkpoint(Pipeline& pipe, const TrainCursor& cursor,
                     const std::string& path);

/// Restores model weights and Adam state into `pipe` and returns the
/// saved cursor. Throws DmsError if the file is missing/corrupt or was
/// written under an incompatible pipeline config.
TrainCursor load_checkpoint(Pipeline& pipe, const std::string& path);

}  // namespace dms
