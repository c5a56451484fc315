#ifndef SSTREAMING_COMMON_JSON_H_
#define SSTREAMING_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace sstreaming {

/// A small JSON document model. The write-ahead log is stored as
/// human-readable JSON (paper §7.2) so administrators can inspect and roll it
/// back; this module provides the writer/parser for it (and for the JSONL
/// file source).
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t v);
  static Json Double(double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const { return str_; }
  const std::vector<Json>& array_items() const { return arr_; }

  /// Appends to an array value.
  void Append(Json v);
  /// Sets a key in an object value.
  void Set(const std::string& key, Json v);
  /// True if the object has `key`.
  bool Has(const std::string& key) const;
  /// Object lookup; returns a null Json if absent.
  const Json& Get(const std::string& key) const;

  /// Serializes to a compact JSON string.
  std::string Dump() const;
  /// Serializes with 2-space indentation (the WAL uses this form).
  std::string DumpPretty() const;

  /// Parses a JSON document. Rejects trailing garbage.
  static Result<Json> Parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_COMMON_JSON_H_
