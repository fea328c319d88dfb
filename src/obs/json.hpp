// Minimal JSON document model shared by every machine-readable output in
// the repo: the Chrome/Perfetto trace sink, the run-report writer, and the
// bench --json table emitter all serialize through this one type, so
// escaping and number formatting are correct in exactly one place.
//
// Objects preserve insertion order (stable report schemas diff cleanly);
// numbers are int64 or double; doubles print with the shortest
// representation that round-trips. parse() is the matching
// recursive-descent reader — tests use it to prove every emitted artifact
// is well-formed, and tools read BENCH_*.json points back through it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace lmo::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs (keys unique; operator[] updates).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  /// Any integral type; unsigned values above int64 max throw lmo::Error.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T i) {
    if constexpr (std::is_signed_v<T>)
      v_ = std::int64_t(i);
    else
      v_ = checked_unsigned(std::uint64_t(i));
  }
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}

  [[nodiscard]] static Json array() { Json j; j.v_ = Array{}; return j; }
  [[nodiscard]] static Json object() { Json j; j.v_ = Object{}; return j; }

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_bool() const;
  [[nodiscard]] bool is_number() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;

  /// Object element access; a null value silently becomes an object.
  Json& operator[](const std::string& key);
  /// Null when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Throws lmo::Error when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Array append; a null value silently becomes an array.
  void push_back(Json v);
  /// Room for n array items or object members without regrowing; throws
  /// lmo::Error unless this is an array or an object.
  void reserve(std::size_t n);
  [[nodiscard]] std::size_t size() const;  ///< array/object arity, else 0
  [[nodiscard]] const Json& operator[](std::size_t i) const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;  ///< int64 converts
  /// Throws lmo::Error unless the number is integral and in int64 range.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& entries() const;

  /// Serialize. indent = 0: compact single line; indent > 0: pretty-print
  /// with that many spaces per level.
  void dump(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a complete JSON document; throws lmo::Error on malformed input
  /// or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  class Writer;  ///< dump()'s chunked output buffer (json.cpp)
  class Parser;  ///< parse()'s recursive-descent reader (json.cpp)

  static std::int64_t checked_unsigned(std::uint64_t u);
  void dump_impl(Writer& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      v_ = nullptr;
};

/// A value of a persisted document (cluster config, model file) together
/// with its field path, for the readers of those documents: every typed
/// access that finds something else throws lmo::Error
/// "<doc>: field '<path>' ...", naming the exact field — e.g.
/// "topology.levels[1].bandwidth_bps" or "lmo.L[2][5]".
class JsonField {
 public:
  /// The document root; `doc` ("cluster config", "model") prefixes every
  /// error and must outlive the field.
  JsonField(const Json& root, const char* doc) : v_(root), doc_(doc) {}
  JsonField(Json&&, const char*) = delete;  // would dangle

  [[nodiscard]] bool has(const std::string& key) const {
    return v_.find(key) != nullptr;
  }
  /// Object member; throws naming the missing field.
  [[nodiscard]] JsonField operator[](const std::string& key) const;
  /// Array element; throws unless this is an array holding index i.
  [[nodiscard]] JsonField operator[](std::size_t i) const;
  /// Member names of an object, in document order; throws unless this is
  /// an object.
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Array length; throws unless this is an array.
  [[nodiscard]] std::size_t size() const;
  /// Throws unless this is an array of exactly n entries.
  void expect_size(std::size_t n) const;

  [[nodiscard]] double number() const;  ///< finite
  /// An integer in [lo, hi].
  [[nodiscard]] std::int64_t integer(
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] std::vector<double> numbers() const;  ///< array of finite

  /// Throw "<doc>: field '<path>' <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  JsonField(const Json& v, std::string path, const char* doc)
      : v_(v), path_(std::move(path)), doc_(doc) {}

  const Json& v_;
  std::string path_;  ///< empty at the document root
  const char* doc_;
};

/// Write `text` to the file at `path` in place; throws lmo::Error naming
/// it.
void write_file(const std::string& path, std::string_view text);

/// Replace the file at `path` with `text`: write `path`.tmp, then rename
/// it over `path`, so a reader, or a restart after a crash mid-write, sees
/// the old file or the new one, never a torn one. On failure the old file
/// is left as it was, the temp file is removed, and lmo::Error names it.
/// A path that is neither a regular file nor absent (a device, a pipe) is
/// written in place.
void replace_file(const std::string& path, std::string_view text);

/// The bytes of the file at `path`; throws lmo::Error naming it.
[[nodiscard]] std::string read_file(const std::string& path);

/// Write `doc` pretty-printed (two-space indent), with a final newline, to
/// `path` (write_file).
void save_json(const Json& doc, const std::string& path);

/// Read and parse the JSON document at `path`; errors name the path. A
/// file that does not start with '{' is refused up front with a hint that
/// the `key = value` text formats were removed and that `regenerate` (a
/// command) writes a current file.
[[nodiscard]] Json load_json(const std::string& path,
                             const std::string& regenerate);

}  // namespace lmo::obs
