#include "types/column.h"

#include <algorithm>
#include <cstring>

namespace sstreaming {

Value Column::ValueAt(int64_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool:
      return Value::Bool(BoolAt(i));
    case TypeId::kInt64:
      return Value::Int64(Int64At(i));
    case TypeId::kTimestamp:
      return Value::Timestamp(Int64At(i));
    case TypeId::kFloat64:
      return Value::Float64(Float64At(i));
    case TypeId::kString:
      return Value::Str(StringAt(i));
  }
  return Value::Null();
}

void Column::AppendNull() {
  validity_.push_back(0);
  ++null_count_;
  switch (PhysicalKindOf(type_)) {
    case PhysicalKind::kBool:
      bools_.push_back(0);
      break;
    case PhysicalKind::kInt64:
      ints_.push_back(0);
      break;
    case PhysicalKind::kFloat64:
      doubles_.push_back(0);
      break;
    case PhysicalKind::kString:
      strings_.emplace_back();
      break;
    case PhysicalKind::kNone:
      break;
  }
}

void Column::AppendNulls(int64_t n) {
  const size_t count = static_cast<size_t>(n);
  validity_.resize(validity_.size() + count, 0);
  null_count_ += n;
  switch (PhysicalKindOf(type_)) {
    case PhysicalKind::kBool:
      bools_.resize(bools_.size() + count, 0);
      break;
    case PhysicalKind::kInt64:
      ints_.resize(ints_.size() + count, 0);
      break;
    case PhysicalKind::kFloat64:
      doubles_.resize(doubles_.size() + count, 0);
      break;
    case PhysicalKind::kString:
      strings_.resize(strings_.size() + count);
      break;
    case PhysicalKind::kNone:
      break;
  }
}

void Column::AppendString(std::string v) {
  SS_DCHECK(type_ == TypeId::kString);
  validity_.push_back(1);
  string_bytes_ += static_cast<int64_t>(v.size());
  strings_.push_back(std::move(v));
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.bool_value());
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      AppendInt64(v.int64_value());
      break;
    case TypeId::kFloat64:
      if (v.type() == TypeId::kFloat64) {
        AppendFloat64(v.float64_value());
      } else {
        AppendFloat64(v.AsDouble());
      }
      break;
    case TypeId::kString:
      AppendString(v.string_value());
      break;
    case TypeId::kNull:
      AppendNull();
      break;
  }
}

void Column::Reserve(int64_t n) {
  size_t cap = static_cast<size_t>(n);
  validity_.reserve(cap);
  switch (PhysicalKindOf(type_)) {
    case PhysicalKind::kBool:
      bools_.reserve(cap);
      break;
    case PhysicalKind::kInt64:
      ints_.reserve(cap);
      break;
    case PhysicalKind::kFloat64:
      doubles_.reserve(cap);
      break;
    case PhysicalKind::kString:
      strings_.reserve(cap);
      break;
    case PhysicalKind::kNone:
      break;
  }
}

void Column::AppendFrom(const Column& src, int64_t i) {
  SS_DCHECK(src.IsNull(i) ||
            PhysicalKindOf(src.type_) == PhysicalKindOf(type_));
  DispatchKind(PhysicalKindOf(type_), [&](auto kind) {
    AppendCell<decltype(kind)::value>(src, i, true);
  });
}

void Column::AppendGather(const Column& src, const int32_t* idx, int64_t n) {
  SS_DCHECK(&src != this);
  const PhysicalKind kind = PhysicalKindOf(type_);
  if (PhysicalKindOf(src.type_) != kind) {
    SS_DCHECK(src.null_count_ == src.size());
    AppendNulls(n);
    return;
  }
  // Validity and fixed-width payloads grow once and fill by index; a null
  // source cell's payload is already the zero AppendCell would write (every
  // builder zeroes it), so payloads copy without a validity test.
  const size_t base = validity_.size();
  const auto count = static_cast<size_t>(n);
  if (src.null_count_ == 0) {
    validity_.resize(base + count, 1);
  } else {
    validity_.resize(base + count);
    uint8_t* valid = validity_.data() + base;
    int64_t nulls = 0;
    for (size_t i = 0; i < count; ++i) {
      valid[i] = src.validity_[static_cast<size_t>(idx[i])];
      nulls += valid[i] == 0 ? 1 : 0;
    }
    null_count_ += nulls;
  }
  auto fill = [&](auto* dst, const auto& from) {
    dst->resize(base + count);
    auto* out = dst->data() + base;
    for (size_t i = 0; i < count; ++i) {
      out[i] = from[static_cast<size_t>(idx[i])];
    }
  };
  switch (kind) {
    case PhysicalKind::kBool:
      fill(&bools_, src.bools_);
      break;
    case PhysicalKind::kInt64:
      fill(&ints_, src.ints_);
      break;
    case PhysicalKind::kFloat64:
      fill(&doubles_, src.doubles_);
      break;
    case PhysicalKind::kString:
      for (size_t i = 0; i < count; ++i) {
        strings_.push_back(src.strings_[static_cast<size_t>(idx[i])]);
        string_bytes_ += static_cast<int64_t>(strings_.back().size());
      }
      break;
    case PhysicalKind::kNone:
      break;
  }
}

void Column::SetFrom(int64_t i, const Column& src, int64_t j) {
  SS_DCHECK(src.IsNull(j) ||
            PhysicalKindOf(src.type_) == PhysicalKindOf(type_));
  DispatchKind(PhysicalKindOf(type_), [&](auto kind) {
    SetCell<decltype(kind)::value>(i, src, j, true);
  });
}

bool Column::ValueEquals(int64_t i, const Column& other, int64_t j) const {
  const bool null = IsNull(i);
  if (null || other.IsNull(j)) return null && other.IsNull(j);
  if (type_ != other.type_) return false;
  bool equal = true;
  DispatchKind(PhysicalKindOf(type_), [&](auto kind) {
    equal = CellEquals<decltype(kind)::value>(i, other, j, false);
  });
  return equal;
}

void Column::AppendRange(const Column& src, int64_t start, int64_t length) {
  SS_DCHECK(&src != this);
  SS_DCHECK(start >= 0 && length >= 0 && start + length <= src.size());
  const PhysicalKind kind = PhysicalKindOf(type_);
  if (PhysicalKindOf(src.type_) != kind) {
    for (int64_t i = start; i < start + length; ++i) AppendFrom(src, i);
    return;
  }
  const auto begin = static_cast<std::ptrdiff_t>(start);
  const auto end = begin + static_cast<std::ptrdiff_t>(length);
  auto copy = [begin, end](auto* dst, const auto& from) {
    dst->insert(dst->end(), from.begin() + begin, from.begin() + end);
  };
  copy(&validity_, src.validity_);
  if (src.null_count_ > 0) {
    null_count_ += std::count(src.validity_.begin() + begin,
                              src.validity_.begin() + end, 0);
  }
  switch (kind) {
    case PhysicalKind::kBool:
      copy(&bools_, src.bools_);
      break;
    case PhysicalKind::kInt64:
      copy(&ints_, src.ints_);
      break;
    case PhysicalKind::kFloat64:
      copy(&doubles_, src.doubles_);
      break;
    case PhysicalKind::kString:
      copy(&strings_, src.strings_);
      for (auto it = src.strings_.begin() + begin;
           it != src.strings_.begin() + end; ++it) {
        string_bytes_ += static_cast<int64_t>(it->size());
      }
      break;
    case PhysicalKind::kNone:
      break;
  }
}

void Column::EncodeValueTo(int64_t i, std::string* out) const {
  if (IsNull(i)) {
    out->push_back(static_cast<char>(TypeId::kNull));
    return;
  }
  out->push_back(static_cast<char>(type_));
  char buf[8];
  switch (PhysicalKindOf(type_)) {
    case PhysicalKind::kBool:
      out->push_back(BoolAt(i) ? 1 : 0);
      break;
    case PhysicalKind::kInt64: {
      int64_t v = Int64At(i);
      std::memcpy(buf, &v, 8);
      out->append(buf, 8);
      break;
    }
    case PhysicalKind::kFloat64: {
      double d = Float64At(i);
      std::memcpy(buf, &d, 8);
      out->append(buf, 8);
      break;
    }
    case PhysicalKind::kString: {
      const std::string& s = StringAt(i);
      uint64_t n = s.size();
      std::memcpy(buf, &n, 8);
      out->append(buf, 8);
      out->append(s);
      break;
    }
    case PhysicalKind::kNone:
      break;
  }
}

namespace {

// Value::Hash of non-null value i of a column of kind K, unboxed.
template <PhysicalKind K>
uint64_t HashCell(const Column& c, int64_t i) {
  if constexpr (K == PhysicalKind::kBool) {
    return HashMix(1, c.BoolAt(i) ? 1 : 0);
  } else if constexpr (K == PhysicalKind::kInt64) {
    return HashMix(2, static_cast<uint64_t>(c.Int64At(i)));
  } else if constexpr (K == PhysicalKind::kFloat64) {
    return HashFloat64(c.Float64At(i));
  } else if constexpr (K == PhysicalKind::kString) {
    const std::string& s = c.StringAt(i);
    return HashBytes(s.data(), s.size(), 4);
  } else {
    return kNullHash;
  }
}

}  // namespace

void Column::HashInto(std::vector<uint64_t>* hashes) const {
  SS_DCHECK(static_cast<int64_t>(hashes->size()) == size());
  const int64_t n = size();
  uint64_t* h = hashes->data();
  // Must agree with Value::Hash row by row: shuffle partitioning on both
  // sides of an exchange depends on it.
  DispatchKind(PhysicalKindOf(type_), [&](auto k) {
    constexpr PhysicalKind K = decltype(k)::value;
    if (has_nulls()) {
      for (int64_t i = 0; i < n; ++i) {
        h[i] = HashMix(h[i], IsNull(i) ? kNullHash : HashCell<K>(*this, i));
      }
    } else {
      for (int64_t i = 0; i < n; ++i) h[i] = HashMix(h[i], HashCell<K>(*this, i));
    }
  });
}

}  // namespace sstreaming
