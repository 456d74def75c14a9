// Minimal JSON value: enough to serialize simulation statistics and parse
// them back in tests. Objects preserve insertion order so dumps are
// deterministic (a requirement of the determinism regression tests); no
// external dependency is involved.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nectar::core {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // Ordered: dump() emits members in insertion order.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Json(std::uint64_t u) : type_(Type::kInt), int_(static_cast<std::int64_t>(u)) {}
  Json(int i) : type_(Type::kInt), int_(i) {}
  Json(double d) : type_(Type::kDouble), double_(d) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] std::int64_t as_int() const noexcept { return int_; }
  [[nodiscard]] double as_double() const noexcept {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const Array& items() const noexcept { return array_; }
  [[nodiscard]] const Object& members() const noexcept { return object_; }

  // Object: set/overwrite a member (keeps first-insertion order).
  Json& set(std::string_view key, Json value);
  // Object: member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] bool has(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }

  // Array: append an element.
  Json& push_back(Json value);

  // Serialize; indent <= 0 gives the compact single-line form.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // Recursive-descent parse of a complete JSON document. Throws
  // std::runtime_error (with byte offset) on malformed input or trailing
  // garbage. Numbers with '.', 'e' or 'E' parse as kDouble, else kInt.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Write `j.dump(2)` (plus trailing newline) to `path`; returns false on I/O
// failure.
bool write_json_file(const std::string& path, const Json& j);

// Calls fn(path, value, before) for every scalar (null, bool, number or
// string) of `doc`, depth first in document order. `path` joins member names
// with '.' and array elements as [i], for example
// "interfaces[0].cab.tx_rewrite". `before` is the scalar at the same path in
// `prev`, or nullptr when `prev` is null or holds no scalar there.
using ScalarVisitor = std::function<void(
    const std::string& path, const Json& value, const Json* before)>;
void for_each_scalar(const Json& doc, const Json* prev,
                     const ScalarVisitor& fn);

}  // namespace nectar::core
