/// \file json.hpp
/// Minimal JSON value: enough to write the run reports, bench reports and
/// Chrome traces this library emits, and to parse them back for validation
/// (tests round-trip every report schema; `sfg_obs check` uses the parser
/// to gate CI artifacts).
///
/// Deliberate scope: objects preserve insertion order (reports stay
/// diffable), integers keep their exact 64-bit value (counters must not
/// lose precision through double), and doubles render shortest-round-trip
/// with a decimal point so a re-parse preserves the numeric kind.  Not a
/// general-purpose JSON library: no comments, no NaN/Inf (serialized as
/// null), parse depth capped.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sfg::obs {

class json {
 public:
  using array_t = std::vector<json>;
  /// Insertion-ordered: reports serialize fields in the order added.
  using object_t = std::vector<std::pair<std::string, json>>;

  json() : v_(nullptr) {}
  json(std::nullptr_t) : v_(nullptr) {}
  json(bool b) : v_(b) {}
  json(double d) : v_(d) {}
  json(std::int64_t i) : v_(i) {}
  json(std::uint64_t u) : v_(u) {}
  json(int i) : v_(static_cast<std::int64_t>(i)) {}
  json(unsigned u) : v_(static_cast<std::uint64_t>(u)) {}
  json(const char* s) : v_(std::string(s)) {}
  json(std::string s) : v_(std::move(s)) {}
  json(std::string_view s) : v_(std::string(s)) {}

  [[nodiscard]] static json object() { return json(object_t{}); }
  [[nodiscard]] static json array() { return json(array_t{}); }

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<std::uint64_t>(v_) ||
           std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<array_t>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<object_t>(v_); }

  /// Object access: find-or-insert.  Converts a null value to an object.
  json& operator[](std::string_view key);

  /// Object lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const json* find(std::string_view key) const;

  /// Array append.  Converts a null value to an array.
  void push_back(json v);

  /// Elements for arrays, fields for objects, 0 otherwise.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const json& at(std::size_t i) const;          ///< array element
  [[nodiscard]] const object_t& items() const;                ///< object fields

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_double() const;        ///< any numeric kind
  [[nodiscard]] std::uint64_t as_u64() const;    ///< integral kinds (asserts fit)
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Checked integer read for untrusted input: the value when this is an
  /// integer kind that fits `Int`, std::nullopt for anything else (doubles
  /// included).  The as_* accessors above assume the kind.
  template <typename Int>
  [[nodiscard]] std::optional<Int> get_int() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_); i && std::in_range<Int>(*i)) {
      return static_cast<Int>(*i);
    }
    if (const auto* u = std::get_if<std::uint64_t>(&v_); u && std::in_range<Int>(*u)) {
      return static_cast<Int>(*u);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// Strict parse of a complete JSON document (trailing garbage rejected).
  /// std::nullopt on malformed input.
  [[nodiscard]] static std::optional<json> parse(std::string_view text);

  /// Append `s` to `out` as a quoted, escaped JSON string literal.
  static void escape_to(std::string_view s, std::string& out);

  /// Structural equality; integral numbers compare by value across
  /// signed/unsigned kinds, doubles compare exactly.
  friend bool operator==(const json& a, const json& b);

 private:
  explicit json(array_t a) : v_(std::move(a)) {}
  explicit json(object_t o) : v_(std::move(o)) {}

  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, array_t, object_t>
      v_;
};

}  // namespace sfg::obs
