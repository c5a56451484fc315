#ifndef SSTREAMING_TYPES_SCHEMA_H_
#define SSTREAMING_TYPES_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "types/data_type.h"

namespace sstreaming {

/// A named, typed column descriptor.
struct Field {
  std::string name;
  TypeId type = TypeId::kNull;
  bool nullable = true;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type &&
           nullable == other.nullable;
  }

  std::string ToString() const;
};

/// An ordered list of fields. Immutable once constructed; shared between
/// batches via shared_ptr.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  static std::shared_ptr<Schema> Make(std::vector<Field> fields) {
    return std::make_shared<Schema>(std::move(fields));
  }

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }
  std::vector<std::string> names() const;

  /// Index of the field named `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  /// Like IndexOf but returns an analysis error naming candidates.
  Result<int> Resolve(const std::string& name) const;

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }

  /// "(name: type, name: type?)" — '?' marks nullable.
  std::string ToString() const;

  Json ToJson() const;
  static Result<Schema> FromJson(const Json& json);

 private:
  std::vector<Field> fields_;
};

using SchemaPtr = std::shared_ptr<Schema>;

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_SCHEMA_H_
