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
//
// A Json is 16 bytes: a tag, then a bool, int64, double or string of up to
// 14 bytes inline, or a longer string's or a container's heap block. An
// object member is 32 bytes, its key a string in the same form. parse()
// sizes each block exactly; builders double it unless reserve() sized it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lmo::obs {

class Json {
 public:
  struct Member;  ///< {first: the key, a string; second: the value}
  /// Read-only views, valid while the container is alive and unchanged.
  using Array = std::span<const Json>;
  using Object = std::span<const Member>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) { r_.v = {kBool, {.b = b}}; }
  Json(double d) { r_.v = {kDouble, {.d = d}}; }
  /// Any integral type; unsigned values above int64 max throw lmo::Error.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T i) {
    if constexpr (std::is_signed_v<T>)
      r_.v = {kInt, {.i = std::int64_t(i)}};
    else
      r_.v = {kInt, {.i = checked_unsigned(std::uint64_t(i))}};
  }
  Json(const char* s) : Json(std::string_view(s)) {}
  Json(const std::string& s) : Json(std::string_view(s)) {}
  Json(std::string_view s);

  Json(const Json& other);
  Json(Json&& other) noexcept : r_(other.r_) { other.r_.s.tag = kNull; }
  Json& operator=(const Json& other) { return *this = Json(other); }
  Json& operator=(Json&& other) noexcept;
  ~Json() { if (tag() >= kLong) release(); }

  [[nodiscard]] static Json array() { return Json(kArray); }
  [[nodiscard]] static Json object() { return Json(kObject); }

  [[nodiscard]] bool is_null() const { return tag() == kNull; }
  [[nodiscard]] bool is_bool() const { return tag() == kBool; }
  [[nodiscard]] bool is_number() const {
    return tag() == kInt || tag() == kDouble;
  }
  [[nodiscard]] bool is_string() const {
    return tag() == kShort || tag() == kLong;
  }
  [[nodiscard]] bool is_array() const { return tag() == kArray; }
  [[nodiscard]] bool is_object() const { return tag() == kObject; }

  /// Object element access; a null value silently becomes an object.
  Json& operator[](std::string_view key);
  /// Null when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Throws lmo::Error when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Array append; a null value silently becomes an array.
  void push_back(Json v);
  /// Room for n array items or object members without regrowing; throws
  /// lmo::Error unless this is an array or an object.
  void reserve(std::size_t n);
  /// array/object arity, else 0
  [[nodiscard]] std::size_t size() const {
    return tag() == kArray || tag() == kObject ? r_.h.n : 0;
  }
  [[nodiscard]] const Json& operator[](std::size_t i) const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;  ///< int64 converts
  /// Throws lmo::Error unless the number is integral and in int64 range.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::string_view as_string() const;
  [[nodiscard]] Array items() const;
  [[nodiscard]] Object entries() const;

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

  /// The tags from kLong on own a heap block.
  enum Tag : std::uint8_t {
    kNull, kBool, kInt, kDouble, kShort, kLong, kArray, kObject
  };
  static constexpr std::size_t kShortMax = 14;

  explicit Json(Tag container) { r_.h = {container, 0, {nullptr}}; }
  [[nodiscard]] Tag tag() const { return r_.s.tag; }
  static std::int64_t checked_unsigned(std::uint64_t u);
  void release();
  /// Moves the entries to a block with room for `cap`.
  void regrow(std::size_t cap);
  /// The member named `key`, or the end of the members.
  [[nodiscard]] Member* lookup(std::string_view key) const;
  [[nodiscard]] std::string_view str() const {
    return tag() == kShort ? std::string_view(r_.s.chars, r_.s.len)
                           : std::string_view(r_.h.chars, r_.h.n);
  }
  void dump_impl(Writer& out, int indent, int depth) const;

  // Each form starts with the tag. A short string's bytes past its length
  // are zero, so two short strings are equal when their 16 bytes are.
  // The items' or members' block keeps its capacity in the word before.
  union Rep {
    struct { Tag tag; std::uint8_t len; char chars[kShortMax]; } s;
    struct { Tag tag; std::uint32_t n; union { char* chars; Json* items;
                                               Member* members; }; } h;
    struct { Tag tag; union { bool b; std::int64_t i; double d; }; } v;
  } r_ = {};
};

struct Json::Member {
  Json first;
  Json second;
};
static_assert(sizeof(Json) == 16 && sizeof(Json::Member) == 32);

/// A value of a persisted document (cluster config, model file), for the
/// readers of those documents: every typed access that finds something
/// else throws lmo::Error "<doc>: field '<path>' ...", naming the exact
/// field — e.g. "topology.levels[1].bandwidth_bps" or "lmo.L[2][5]". The
/// path is spelled out by a search from the root only when an error needs
/// it, so reading a field allocates nothing.
class JsonField {
 public:
  /// The document root; `doc` ("cluster config", "model") prefixes every
  /// error and must outlive the field.
  JsonField(const Json& root, const char* doc) : JsonField(root, doc, kRoot) {}
  /// Item `item` of an array, read as a document named "<doc>[<item>]".
  JsonField(const Json& root, const char* doc, std::size_t item)
      : v_(root), root_(root), doc_(doc), item_(item) {}
  JsonField(Json&&, const char*) = delete;  // would dangle
  JsonField(Json&&, const char*, std::size_t) = delete;

  /// Object member, or none when absent (or this is not an object).
  [[nodiscard]] std::optional<JsonField> find(std::string_view key) const {
    const Json* j = v_.find(key);
    return j == nullptr ? std::nullopt : std::optional(JsonField(*j, *this));
  }
  /// Object member; throws naming the missing field.
  [[nodiscard]] JsonField operator[](std::string_view key) const;
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
  [[nodiscard]] std::string_view string() const;
  [[nodiscard]] std::vector<double> numbers() const;  ///< array of finite

  /// Throw "<doc>: field '<path>' <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  static constexpr std::size_t kRoot = std::size_t(-1);
  JsonField(const Json& v, const JsonField& parent)
      : v_(v), root_(parent.root_), doc_(parent.doc_), item_(parent.item_) {}
  [[nodiscard]] std::string doc_name() const;  ///< "<doc>" or "<doc>[<item>]"

  const Json& v_;
  const Json& root_;
  const char* doc_;
  std::size_t item_;  ///< kRoot, or the array index the document name ends in
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
