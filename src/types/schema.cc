#include "types/schema.h"

namespace sstreaming {

std::string Field::ToString() const {
  std::string out = name;
  out += ": ";
  out += TypeName(type);
  if (nullable) out += "?";
  return out;
}

std::vector<std::string> Schema::names() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const Field& f : fields_) out.push_back(f.name);
  return out;
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<int> Schema::Resolve(const std::string& name) const {
  int idx = IndexOf(name);
  if (idx >= 0) return idx;
  std::string candidates;
  for (const Field& f : fields_) {
    if (!candidates.empty()) candidates += ", ";
    candidates += f.name;
  }
  return Status::AnalysisError("cannot resolve column '" + name +
                               "'; available: [" + candidates + "]");
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].ToString();
  }
  out += ")";
  return out;
}

Json Schema::ToJson() const {
  Json arr = Json::Array();
  for (const Field& f : fields_) {
    Json obj = Json::Object();
    obj.Set("name", Json::Str(f.name));
    obj.Set("type", Json::Str(TypeName(f.type)));
    obj.Set("nullable", Json::Bool(f.nullable));
    arr.Append(std::move(obj));
  }
  return arr;
}

Result<Schema> Schema::FromJson(const Json& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("schema JSON must be an array");
  }
  std::vector<Field> fields;
  for (const Json& item : json.array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("schema field must be an object");
    }
    Field f;
    f.name = item.Get("name").string_value();
    if (!TypeFromName(item.Get("type").string_value(), &f.type)) {
      return Status::InvalidArgument("unknown type name in schema: " +
                                     item.Get("type").string_value());
    }
    f.nullable = item.Has("nullable") ? item.Get("nullable").bool_value()
                                      : true;
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

}  // namespace sstreaming
