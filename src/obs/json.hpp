#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// Minimal JSON document model for the observability layer.
///
/// Two consumers only: the metrics Report (write + read-back for round-trip
/// checks and tools/regen_experiments.py) and the trace/schema tests that
/// assert an emitted file actually parses.  Numbers are stored as double
/// (sufficient for every metric we emit; exact integers up to 2^53), object
/// keys keep insertion order is NOT guaranteed (std::map, sorted) which is
/// fine for machine consumption and makes output deterministic.
namespace sunbfs::obs {

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  /// Parse a complete JSON document; throws std::runtime_error with a byte
  /// offset on malformed input or trailing garbage.
  static Json parse(std::string_view text);

  Kind kind() const { return kind_; }

  bool as_bool() const;
  double as_double() const;
  int64_t as_int() const { return int64_t(as_double()); }
  const std::string& as_string() const;

  /// Object access; `has` is false for non-objects, `at(key)` throws when
  /// the key is absent.
  bool has(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// Array access.
  size_t size() const;
  const Json& at(size_t index) const;

  /// Object/array builders (switch the value's kind on first use).
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  const std::map<std::string, Json>& items() const { return object_; }
  const std::vector<Json>& elements() const { return array_; }

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Escape a string for embedding in a JSON document (adds no quotes).
void json_escape(std::string_view in, std::string& out);

}  // namespace sunbfs::obs
