#include "common/workspace.hpp"

#include <string>

namespace dms {

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::vector<index_t> WalkScratch::take_list() {
  if (list_pool_.empty()) return {};
  std::vector<index_t> v = std::move(list_pool_.back());
  list_pool_.pop_back();
  v.clear();
  return v;
}

void WalkScratch::put_list(std::vector<index_t>&& v) {
  list_pool_.push_back(std::move(v));
}

std::size_t WalkScratch::bytes() const {
  std::size_t b = vec_bytes(cur) + vec_bytes(prev) + vec_bytes(bof) +
                  vec_bytes(off) + vec_bytes(raw) + vec_bytes(list_pool_);
  for (const auto& l : list_pool_) b += vec_bytes(l);
  return b;
}

std::size_t WorkspaceSlot::bytes() const {
  return vec_bytes(row_nnz) + vec_bytes(colidx) + vec_bytes(vals) +
         vec_bytes(acc) + vec_bytes(bitmap) + vec_bytes(picked) +
         vec_bytes(hash_keys) + vec_bytes(hash_used) + vec_bytes(hash_vals);
}

void Workspace::ensure_slots(std::size_t n) {
#ifndef NDEBUG
  check(!frozen_ || n <= slots_.size(),
        "Workspace: steady-state violation — ensure_slots(" + std::to_string(n) +
            ") would grow a frozen arena of " + std::to_string(slots_.size()) +
            " slots (warm up with a representative workload before freezing)");
#endif
  while (slots_.size() < n) {
    slots_.push_back(std::make_unique<WorkspaceSlot>());
  }
}

void Workspace::freeze() {
  frozen_ = true;
  frozen_bytes_ = bytes_held();
  frozen_slots_ = slots_.size();
}

void Workspace::thaw() { frozen_ = false; }

void Workspace::check_steady([[maybe_unused]] const char* where) const {
#ifndef NDEBUG
  if (!frozen_) return;
  check(slots_.size() == frozen_slots_ && bytes_held() <= frozen_bytes_,
        std::string(where) +
            ": steady-state violation — frozen workspace grew from " +
            std::to_string(frozen_bytes_) + " to " +
            std::to_string(bytes_held()) + " bytes (slots " +
            std::to_string(frozen_slots_) + " -> " +
            std::to_string(slots_.size()) +
            "); warm up with a representative workload before freezing");
#endif
}

std::size_t Workspace::bytes_held() const {
  std::size_t b = vec_bytes(shared_prefix_) + vec_bytes(shared_lookup_) +
                  walk_.bytes();
  for (const auto& s : slots_) b += s->bytes();
  return b;
}

}  // namespace dms
