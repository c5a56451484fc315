#ifndef SSTREAMING_TYPES_ROW_H_
#define SSTREAMING_TYPES_ROW_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace sstreaming {

/// A boxed row: one Value per schema field. The record-at-a-time baselines
/// and the state store operate on Rows; the vectorized engine uses
/// RecordBatch.
using Row = std::vector<Value>;

inline uint64_t HashRow(const Row& row) {
  uint64_t h = 0x811C9DC5ULL;
  for (const Value& v : row) h = HashMix(h, v.Hash());
  return h;
}

inline std::string RowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += "]";
  return out;
}

/// Binary row codec used by the state store.
inline void EncodeRow(const Row& row, std::string* out) {
  out->push_back(static_cast<char>(row.size()));
  for (const Value& v : row) v.EncodeTo(out);
}

/// Decodes into `row`, replacing its contents but reusing its storage.
inline Status DecodeRowInto(const std::string& data, size_t* pos, Row* row) {
  if (*pos >= data.size()) {
    return Status::InvalidArgument("row decode: truncated arity byte");
  }
  size_t n = static_cast<unsigned char>(data[(*pos)++]);
  row->clear();
  row->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(data, pos));
    row->push_back(std::move(v));
  }
  return Status::OK();
}

inline Result<Row> DecodeRow(const std::string& data, size_t* pos) {
  Row row;
  SS_RETURN_IF_ERROR(DecodeRowInto(data, pos, &row));
  return row;
}

inline Result<Row> DecodeRow(const std::string& data) {
  size_t pos = 0;
  return DecodeRow(data, &pos);
}

/// Lexicographic row ordering via SqlCompare: nulls first, NaN above every
/// other number, so RowLess is a strict weak order for std::sort.
inline int CompareRows(const Row& a, const Row& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = SqlCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

struct RowHash {
  size_t operator()(const Row& r) const {
    return static_cast<size_t>(HashRow(r));
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) == 0;
  }
};

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_ROW_H_
