#ifndef SSTREAMING_TYPES_SELECTION_VECTOR_H_
#define SSTREAMING_TYPES_SELECTION_VECTOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace sstreaming {

/// A selection vector (MonetDB/X100 style): the physical row indices of a
/// RecordBatch that are logically present, in logical order. Batches carry
/// one instead of copying filter survivors — a filter that keeps 1% of a
/// 6-column batch writes 1% × one int32 array instead of 1% × six typed
/// columns (docs/VECTORIZED_EXEC.md).
///
/// The index array is owned via `owner`, so the SelectionVector (and any
/// RecordBatch view holding it) keeps the storage alive by itself.
struct SelectionVector {
  const int32_t* data = nullptr;
  int64_t size = 0;
  /// Keepalive for `data`. May be null only when `data` is null.
  std::shared_ptr<const void> owner;

  bool empty() const { return size == 0; }
  int32_t operator[](int64_t i) const { return data[i]; }

  /// Wraps a heap-allocated index vector (takes ownership).
  static SelectionVector FromVector(std::vector<int32_t> indices) {
    auto owned = std::make_shared<std::vector<int32_t>>(std::move(indices));
    SelectionVector sel;
    sel.data = owned->data();
    sel.size = static_cast<int64_t>(owned->size());
    sel.owner = std::shared_ptr<const void>(owned, owned->data());
    return sel;
  }
};

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_SELECTION_VECTOR_H_
