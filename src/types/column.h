#ifndef SSTREAMING_TYPES_COLUMN_H_
#define SSTREAMING_TYPES_COLUMN_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "types/data_type.h"
#include "types/value.h"

namespace sstreaming {

/// Calls f(std::integral_constant<PhysicalKind, kind>()): the one switch
/// from a runtime kind to a typed kernel, taken per column (or per batch),
/// never per cell.
template <typename F>
void DispatchKind(PhysicalKind kind, const F& f) {
  switch (kind) {
    case PhysicalKind::kBool:
      f(std::integral_constant<PhysicalKind, PhysicalKind::kBool>());
      break;
    case PhysicalKind::kInt64:
      f(std::integral_constant<PhysicalKind, PhysicalKind::kInt64>());
      break;
    case PhysicalKind::kFloat64:
      f(std::integral_constant<PhysicalKind, PhysicalKind::kFloat64>());
      break;
    case PhysicalKind::kString:
      f(std::integral_constant<PhysicalKind, PhysicalKind::kString>());
      break;
    case PhysicalKind::kNone:
      f(std::integral_constant<PhysicalKind, PhysicalKind::kNone>());
      break;
  }
}

/// A typed, nullable column of values — the unit of vectorized execution.
/// Values are stored unboxed in contiguous arrays (the C++ analogue of
/// Spark's Tungsten binary format): int64/timestamp share an int64 array,
/// float64 a double array, and so on. Validity is a parallel byte vector
/// (1 = present).
class Column {
 public:
  explicit Column(TypeId type) : type_(type) {}

  static std::shared_ptr<Column> Make(TypeId type) {
    return std::make_shared<Column>(type);
  }

  TypeId type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(validity_.size()); }
  bool IsNull(int64_t i) const { return validity_[static_cast<size_t>(i)] == 0; }
  bool has_nulls() const { return null_count_ > 0; }
  int64_t null_count() const { return null_count_; }

  // --- Unboxed accessors (precondition: !IsNull(i), matching type) ---
  bool BoolAt(int64_t i) const { return bools_[static_cast<size_t>(i)] != 0; }
  int64_t Int64At(int64_t i) const { return ints_[static_cast<size_t>(i)]; }
  double Float64At(int64_t i) const { return doubles_[static_cast<size_t>(i)]; }
  const std::string& StringAt(int64_t i) const {
    return strings_[static_cast<size_t>(i)];
  }

  /// Numeric value widened to double. Precondition: numeric type, non-null.
  double NumericAt(int64_t i) const {
    return type_ == TypeId::kFloat64 ? Float64At(i)
                                     : static_cast<double>(Int64At(i));
  }

  /// Boxes the value at i (null-aware). Not for inner loops.
  Value ValueAt(int64_t i) const;

  // --- Builders ---
  void AppendNull();
  void AppendNulls(int64_t n);
  // Inline: the typed producers call these once per row.
  void AppendBool(bool v) {
    SS_DCHECK(type_ == TypeId::kBool);
    validity_.push_back(1);
    bools_.push_back(v ? 1 : 0);
  }
  void AppendInt64(int64_t v) {
    SS_DCHECK(PhysicalKindOf(type_) == PhysicalKind::kInt64);
    validity_.push_back(1);
    ints_.push_back(v);
  }
  void AppendFloat64(double v) {
    SS_DCHECK(type_ == TypeId::kFloat64);
    validity_.push_back(1);
    doubles_.push_back(v);
  }
  void AppendString(std::string v);
  /// Appends a boxed value; the value's type must match (or be null).
  void AppendValue(const Value& v);
  void Reserve(int64_t n);

  /// Stable per-row hash, mixed into `hashes` (callers pre-size `hashes`
  /// and chain calls across key columns). Must agree with Value::Hash.
  void HashInto(std::vector<uint64_t>* hashes) const;

  /// Appends value i of `src` to this column with matching physical type
  /// (no boxing): the one-cell kernel, one kind dispatch per call. Moving
  /// many rows goes through AppendGather or AppendRange instead.
  void AppendFrom(const Column& src, int64_t i);

  /// Appends values idx[0], ..., idx[n-1] of `src`, in order: the gather
  /// kernel behind Gather, Materialize, selection views, the stream-static
  /// join's output and the shuffle's buckets. Same result as AppendFrom per
  /// index, with the kind and the null handling fixed once per call; a
  /// source of another physical type (an all-null kNull column) appends n
  /// nulls.
  void AppendGather(const Column& src, const int32_t* idx, int64_t n);

  /// Overwrites value i with value j of `src` (null-aware, no boxing),
  /// keeping null_count() and ApproxBytes() exact. A non-null source value
  /// must have this column's physical type.
  void SetFrom(int64_t i, const Column& src, int64_t j);

  /// True when value i and value j of `other` encode to the same bytes
  /// (EncodeValueTo): both null, or the same TypeId with the same bits or
  /// bytes. So NaNs match bitwise, -0.0 and 0.0 differ, and so do an int64
  /// and a timestamp of the same number.
  bool ValueEquals(int64_t i, const Column& other, int64_t j) const;

  // --- Typed cell kernels: the inline bodies of ValueEquals (for equal
  // TypeIds), SetFrom and AppendFrom over columns of physical kind K, which
  // the caller fixes once (e.g. per batch) instead of per cell. `nulls` may
  // be false only when neither column holds a null; then no validity byte
  // is read or written. Precondition: `other`'s non-null values have this
  // column's TypeId (a null-typed column holds only nulls).

  template <PhysicalKind K>
  bool CellEquals(int64_t i, const Column& other, int64_t j,
                  bool nulls) const {
    if (nulls) {
      const bool null = IsNull(i);
      if (null || other.IsNull(j)) return null && other.IsNull(j);
    }
    const size_t a = static_cast<size_t>(i);
    const size_t b = static_cast<size_t>(j);
    if constexpr (K == PhysicalKind::kBool) {
      return bools_[a] == other.bools_[b];
    } else if constexpr (K == PhysicalKind::kInt64) {
      return ints_[a] == other.ints_[b];
    } else if constexpr (K == PhysicalKind::kFloat64) {
      return std::bit_cast<uint64_t>(doubles_[a]) ==
             std::bit_cast<uint64_t>(other.doubles_[b]);
    } else if constexpr (K == PhysicalKind::kString) {
      return strings_[a] == other.strings_[b];
    } else {
      return true;
    }
  }

  template <PhysicalKind K>
  void SetCell(int64_t i, const Column& src, int64_t j, bool nulls) {
    const size_t k = static_cast<size_t>(i);
    if (nulls) {
      if (src.IsNull(j)) {
        if (validity_[k] == 0) return;
        validity_[k] = 0;
        ++null_count_;
        SetPayload<K>(k, nullptr, 0);  // cleared as AppendNull leaves it
        return;
      }
      if (validity_[k] == 0) {
        validity_[k] = 1;
        --null_count_;
      }
    }
    SetPayload<K>(k, &src, static_cast<size_t>(j));
  }

  template <PhysicalKind K>
  void AppendCell(const Column& src, int64_t j, bool nulls) {
    const bool null = nulls && src.IsNull(j);
    validity_.push_back(null ? 0 : 1);
    null_count_ += null ? 1 : 0;
    const Column* from = null ? nullptr : &src;
    const size_t f = static_cast<size_t>(j);
    if constexpr (K == PhysicalKind::kBool) {
      bools_.push_back(from != nullptr ? from->bools_[f] : 0);
    } else if constexpr (K == PhysicalKind::kInt64) {
      ints_.push_back(from != nullptr ? from->ints_[f] : 0);
    } else if constexpr (K == PhysicalKind::kFloat64) {
      doubles_.push_back(from != nullptr ? from->doubles_[f] : 0);
    } else if constexpr (K == PhysicalKind::kString) {
      strings_.emplace_back();
      if (from != nullptr) {
        strings_.back() = from->strings_[f];
        string_bytes_ += static_cast<int64_t>(strings_.back().size());
      }
    }
  }

  /// Cache hint for value i of a column of kind K: its payload slot, and its
  /// validity byte when `nulls`.
  template <PhysicalKind K>
  void PrefetchCell(int64_t i, bool nulls) const {
    const size_t k = static_cast<size_t>(i);
    if (nulls) __builtin_prefetch(validity_.data() + k);
    if constexpr (K == PhysicalKind::kBool) {
      __builtin_prefetch(bools_.data() + k);
    } else if constexpr (K == PhysicalKind::kInt64) {
      __builtin_prefetch(ints_.data() + k);
    } else if constexpr (K == PhysicalKind::kFloat64) {
      __builtin_prefetch(doubles_.data() + k);
    } else if constexpr (K == PhysicalKind::kString) {
      __builtin_prefetch(strings_.data() + k);
    }
  }

  /// Appends values [start, start+length) of `src` with one bulk copy per
  /// storage array — the range kernel behind bus reads, Slice and Concat.
  /// Same result as AppendFrom over the range; a source of another physical
  /// type (e.g. an all-null kNull column) takes that per-value path.
  void AppendRange(const Column& src, int64_t start, int64_t length);

  /// Serializes value i exactly as Value::EncodeTo would (byte-identical),
  /// without boxing — used to build state-store keys from columns.
  void EncodeValueTo(int64_t i, std::string* out) const;

  /// Approximate in-memory footprint of the column's payload in bytes.
  /// O(1): string character counts are maintained incrementally on append,
  /// so memory accounting never re-walks the data (§7.4 monitoring).
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(validity_.size() + bools_.size() +
                                ints_.size() * sizeof(int64_t) +
                                doubles_.size() * sizeof(double) +
                                strings_.size() * sizeof(std::string)) +
           string_bytes_;
  }

  /// Raw storage access for fused kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  // Overwrites payload slot k with slot f of `src`, or clears it (null src).
  template <PhysicalKind K>
  void SetPayload(size_t k, const Column* src, size_t f) {
    if constexpr (K == PhysicalKind::kBool) {
      bools_[k] = src != nullptr ? src->bools_[f] : 0;
    } else if constexpr (K == PhysicalKind::kInt64) {
      ints_[k] = src != nullptr ? src->ints_[f] : 0;
    } else if constexpr (K == PhysicalKind::kFloat64) {
      doubles_[k] = src != nullptr ? src->doubles_[f] : 0;
    } else if constexpr (K == PhysicalKind::kString) {
      std::string& s = strings_[k];
      string_bytes_ -= static_cast<int64_t>(s.size());
      if (src == nullptr) {
        s.clear();
      } else {
        s = src->strings_[f];
      }
      string_bytes_ += static_cast<int64_t>(s.size());
    }
  }

  TypeId type_;
  int64_t null_count_ = 0;
  int64_t string_bytes_ = 0;  // sum of strings_[i].size()
  std::vector<uint8_t> validity_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_COLUMN_H_
