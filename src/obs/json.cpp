#include "obs/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <ostream>
#include <system_error>
#include <utility>

#include "util/error.hpp"

namespace lmo::obs {

namespace {
/// Copies s, at most 14 bytes, to p in fixed-size moves: every lookup
/// copies its key, and a memcpy call would cost more than the search.
void copy_short(char* p, std::string_view s) {
  const std::size_t n = s.size();
  if (n >= 8) {
    std::memcpy(p, s.data(), 8);
    std::memcpy(p + n - 8, s.data() + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(p, s.data(), 4);
    std::memcpy(p + n - 4, s.data() + n - 4, 4);
  } else if (n > 0) {
    p[0] = s[0];
    p[n / 2] = s[n / 2];
    p[n - 1] = s[n - 1];
  }
}

/// Writes s escaped for inclusion inside JSON double quotes at p (room for
/// 6 bytes per character); returns the end.
char* write_escaped(char* p, std::string_view s) {
  static constexpr std::string_view kRaw = "\"\\\b\f\n\r\t", kAs = "\"\\bfnrt";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      *p++ = c;
    } else if (const std::size_t k = kRaw.find(c); k != kRaw.npos) {
      *p++ = '\\';
      *p++ = kAs[k];
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      p = std::copy_n(buf, 6, p);
    }
  }
  return p;
}

/// Writes d at p (room for 32 bytes) as the shortest of the %.15g / %.16g /
/// %.17g forms that reads back as d (null for nan and inf); returns the
/// end. No other decimal as short as a normal double's shortest form reads
/// back as it, so that form's n digits are %.{max(n, 15)}g's. Zero,
/// subnormals (whose shortest form can lose to a longer %.15g) and powers
/// of two (whose rounding interval is lopsided) try each precision.
char* write_double(char* p, double d) {
  constexpr std::size_t kMax = 32;
  constexpr std::uint64_t kFraction = (std::uint64_t(1) << 52) - 1;
  if (!std::isfinite(d)) return std::copy_n("null", 4, p);
  char* end = p;
  if (std::fpclassify(d) != FP_NORMAL ||
      (std::bit_cast<std::uint64_t>(d) & kFraction) == 0) {
    for (const int prec : {15, 16, 17}) {
      end = std::to_chars(p, p + kMax, d, std::chars_format::general, prec)
                .ptr;
      double back = 0.0;
      if (std::from_chars(p, end, back).ec == std::errc() && back == d) break;
    }
    return end;
  }
  // [-]D[.DDD]e(+|-)XX, which is also %g's exponent form.
  end = std::to_chars(p, p + kMax, d, std::chars_format::scientific).ptr;
  char* const e = std::find(p, end, 'e');
  int x = 0;
  std::from_chars(e + 1 + (e[1] == '+'), end, x);
  char digits[17];
  char* q = p + (*p == '-');
  char* const last = std::remove_copy(q, e, digits, '.');
  const int n = int(last - digits);
  if (x < -4 || x >= std::max(n, 15)) return end;
  if (x < 0) return std::copy(digits, last, std::copy_n("0.0000", 1 - x, q));
  q = std::copy(digits, digits + std::min(n, x + 1), q);
  q = std::fill_n(q, std::max(0, x + 1 - n), '0');
  if (n <= x + 1) return q;
  *q++ = '.';
  return std::copy(digits + x + 1, last, q);
}

// An array's or object's block: its capacity, then the entries, which
// `first` points at (null while the capacity is 0).
template <class T>
T* new_block(std::size_t cap) {
  if (cap == 0) return nullptr;
  LMO_CHECK_MSG(cap <= UINT32_MAX, "JSON array or object too large");
  auto* word = static_cast<std::size_t*>(
      ::operator new(sizeof(std::size_t) + cap * sizeof(T)));
  *word = cap;
  return reinterpret_cast<T*>(word + 1);
}
std::size_t block_cap(const void* first) {
  return first ? static_cast<const std::size_t*>(first)[-1] : 0;
}
template <class T>
void delete_block(T* first, std::size_t n) {
  if (first == nullptr) return;
  std::destroy_n(first, n);
  ::operator delete(reinterpret_cast<std::size_t*>(first) - 1);
}
/// A new block of room for `cap`, holding the `n` entries moved from `from`.
template <class T>
T* moved_block(T* from, std::size_t n, std::size_t cap) {
  T* to = new_block<T>(cap);
  std::uninitialized_move_n(from, n, to);
  return to;
}
}  // namespace

std::int64_t Json::checked_unsigned(std::uint64_t u) {
  LMO_CHECK_MSG(u <= std::uint64_t(std::numeric_limits<std::int64_t>::max()),
                "JSON integer overflow");
  return std::int64_t(u);
}

Json::Json(std::string_view s) {
  if (s.size() <= kShortMax) {
    r_.s.tag = kShort;
    r_.s.len = std::uint8_t(s.size());
    copy_short(r_.s.chars, s);
    return;
  }
  LMO_CHECK_MSG(s.size() <= UINT32_MAX, "JSON string too long");
  r_.h = {kLong, std::uint32_t(s.size()), {new char[s.size()]}};
  std::memcpy(r_.h.chars, s.data(), s.size());
}

Json::Json(const Json& other) : r_(other.r_) {
  const std::size_t n = r_.h.n;
  if (tag() == kLong)
    r_.h.chars = std::copy_n(other.r_.h.chars, n, new char[n]) - n;
  else if (tag() == kArray)
    r_.h.items = std::uninitialized_copy_n(other.r_.h.items, n,
                                           new_block<Json>(n)) - n;
  else if (tag() == kObject)
    r_.h.members = std::uninitialized_copy_n(other.r_.h.members, n,
                                             new_block<Member>(n)) - n;
}

Json& Json::operator=(Json&& other) noexcept {
  if (this == &other) return *this;
  if (tag() >= kLong) release();
  r_ = std::exchange(other.r_, Rep{});
  return *this;
}

void Json::release() {
  if (tag() == kLong) delete[] r_.h.chars;
  else if (tag() == kArray) delete_block(r_.h.items, r_.h.n);
  else delete_block(r_.h.members, r_.h.n);
}

void Json::regrow(std::size_t cap) {
  auto to_new = [&](auto*& first) {
    auto* const old = std::exchange(first, moved_block(first, r_.h.n, cap));
    delete_block(old, r_.h.n);
  };
  tag() == kArray ? to_new(r_.h.items) : to_new(r_.h.members);
}

Json::Member* Json::lookup(std::string_view key) const {
  Member* m = r_.h.members;
  Member* const last = m + r_.h.n;
  if (key.size() > kShortMax) {
    while (m != last && m->first.str() != key) ++m;
    return m;
  }
  char probe[sizeof(Rep)] = {char(kShort), char(key.size())};
  copy_short(probe + 2, key);
  while (m != last && std::memcmp(&m->first, probe, sizeof probe) != 0) ++m;
  return m;
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) *this = object();
  LMO_CHECK_MSG(is_object(), "JSON operator[] on a non-object");
  if (Member* m = lookup(key); m != r_.h.members + r_.h.n) return m->second;
  Json name(key);  // before the count moves: it can throw
  if (r_.h.n == block_cap(r_.h.members)) regrow(2 * std::size_t(r_.h.n) + 4);
  return (new (r_.h.members + r_.h.n++) Member{std::move(name), Json()})
      ->second;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Member* m = lookup(key);
  return m == r_.h.members + r_.h.n ? nullptr : &m->second;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  LMO_CHECK_MSG(v != nullptr, "missing JSON key '" + std::string(key) + "'");
  return *v;
}

void Json::push_back(Json v) {
  if (is_null()) *this = array();
  LMO_CHECK_MSG(is_array(), "JSON push_back on a non-array");
  if (r_.h.n == block_cap(r_.h.items)) regrow(2 * std::size_t(r_.h.n) + 4);
  new (r_.h.items + r_.h.n++) Json(std::move(v));
}

void Json::reserve(std::size_t n) {
  LMO_CHECK_MSG(is_array() || is_object(), "JSON reserve on a scalar");
  if (n > block_cap(r_.h.items)) regrow(n);
}

const Json& Json::operator[](std::size_t i) const {
  LMO_CHECK_MSG(is_array(), "JSON index on a non-array");
  LMO_CHECK(i < r_.h.n);
  return r_.h.items[i];
}

bool Json::as_bool() const {
  LMO_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return r_.v.b;
}

double Json::as_double() const {
  if (tag() == kInt) return double(r_.v.i);
  LMO_CHECK_MSG(tag() == kDouble, "JSON value is not a number");
  return r_.v.d;
}

std::int64_t Json::as_int() const {
  if (tag() == kDouble) {
    // Range-check before the cast: converting a double outside int64's
    // range (or nan) is undefined behaviour. -2^63 and 2^63 are exact.
    const double d = r_.v.d;
    if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d))
      throw Error("JSON number " + dump() + " is not an int64 integer");
    return std::int64_t(d);
  }
  LMO_CHECK_MSG(tag() == kInt, "JSON value is not a number");
  return r_.v.i;
}

std::string_view Json::as_string() const {
  LMO_CHECK_MSG(is_string(), "JSON value is not a string");
  return str();
}

Json::Array Json::items() const {
  LMO_CHECK_MSG(is_array(), "JSON value is not an array");
  return {r_.h.items, r_.h.n};
}

Json::Object Json::entries() const {
  LMO_CHECK_MSG(is_object(), "JSON value is not an object");
  return {r_.h.members, r_.h.n};
}

/// Json::dump's output: chunks of kChunk bytes, joined once into a string
/// of exactly the document's length, so a dump holds at most two copies of
/// the document. Every block a Writer allocates is larger than the
/// allocator's small-block caches take: small buffers freed above a large
/// document's nodes stay cached there and pin the heap's top, and a process
/// that builds and dumps large documents in a loop then keeps its whole
/// heap resident, with a peak RSS that creeps up by a run-dependent amount.
class Json::Writer {
 public:
  Writer() { chunks_.reserve(64); }  // a 1 MiB document's worth

  /// Room for n more bytes at the returned pointer; commit() the end of
  /// what was written there.
  char* room(std::size_t n) {
    if (std::size_t(end_ - p_) < n) next(n);
    return p_;
  }
  void commit(char* end) { p_ = end; }
  void operator+=(std::string_view s) {
    commit(std::copy(s.begin(), s.end(), room(s.size())));
  }

  /// "s", escaped kPiece characters at a time, then `tail` (2 bytes or less).
  void string(std::string_view s, std::string_view tail = {}) {
    constexpr std::size_t kPiece = 1024;
    char* p = room(4 + 6 * std::min(s.size(), kPiece));
    *p++ = '"';
    for (std::size_t at = 0; at < s.size(); at += kPiece) {
      if (at > 0) commit(p), p = room(4 + 6 * kPiece);
      p = write_escaped(p, s.substr(at, kPiece));
    }
    *p++ = '"';
    commit(std::copy(tail.begin(), tail.end(), p));
  }

  std::string join() {
    next(0);
    std::string out;
    out.reserve(size_);
    for (const std::string& c : chunks_) out += c;
    return out;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t(1) << 14;

  /// Trims the current chunk to what was written; unless n is 0, opens one
  /// of max(kChunk, n) bytes.
  void next(std::size_t n) {
    if (!chunks_.empty()) {
      chunks_.back().resize(std::size_t(p_ - chunks_.back().data()));
      size_ += chunks_.back().size();
    }
    if (n == 0) return;
    std::string& c = chunks_.emplace_back(std::max(kChunk, n), '\0');
    p_ = c.data();
    end_ = p_ + c.size();
  }

  std::vector<std::string> chunks_;
  std::size_t size_ = 0;
  char* p_ = nullptr;
  char* end_ = nullptr;
};

void Json::dump_impl(Writer& out, int indent, int depth) const {
  auto newline = [&](int level) {
    if (indent <= 0) return;
    char* p = out.room(1 + std::size_t(indent) * std::size_t(level));
    *p = '\n';
    out.commit(std::fill_n(p + 1, indent * level, ' '));
  };
  switch (tag()) {
    case kNull: return out += "null";
    case kBool: return out += r_.v.b ? "true" : "false";
    case kInt: {
      char* const p = out.room(24);
      return out.commit(std::to_chars(p, p + 24, r_.v.i).ptr);
    }
    case kDouble: return out.commit(write_double(out.room(32), r_.v.d));
    case kShort:
    case kLong: return out.string(str());
    default: break;
  }
  const bool arr = tag() == kArray;
  if (r_.h.n == 0) return out += arr ? "[]" : "{}";
  out += arr ? "[" : "{";
  for (std::size_t i = 0; i < r_.h.n; ++i) {
    if (i > 0) out += ",";
    newline(depth + 1);
    if (!arr) {
      out.string(r_.h.members[i].first.str(), indent > 0 ? ": " : ":");
    }
    (arr ? r_.h.items[i] : r_.h.members[i].second)
        .dump_impl(out, indent, depth + 1);
  }
  newline(depth);
  out += arr ? "]" : "}";
}

void Json::dump(std::ostream& os, int indent) const { os << dump(indent); }

std::string Json::dump(int indent) const {
  Writer out;
  dump_impl(out, indent, 0);
  return out.join();
}

class Json::Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  /// Caps container nesting: containers recurse through value(), so
  /// adversarial input like 100k copies of '[' would otherwise overflow
  /// the call stack long before any size limit triggers. 256 levels is far
  /// beyond any document this project reads or writes.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) fail("bad literal");
    pos_ += lit.size();
  }

  /// A value inside `depth` enclosing containers.
  Json value(int depth) {
    skip_ws();
    const char c = peek();
    switch (c) {
      case 'n': return literal("null"), Json();
      case 't': return literal("true"), Json(true);
      case 'f': return literal("false"), Json(false);
      case '"': return Json(string());
      case '[':
      case '{':
        if (depth == kMaxDepth) fail("nesting deeper than 256 levels");
        return container(depth + 1, c == '{');
      default: return number();
    }
  }

  /// The string's text: a view of the input when it holds no escape, else
  /// of buf_, valid until the next call.
  std::string_view string() {
    static constexpr std::string_view kEscape = "\"\\/bfnrt",
                                      kMeans = "\"\\/\b\f\n\r\t";
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '"')
      return s_.substr(start, pos_++ - start);
    buf_.assign(s_.substr(start, pos_ - start));
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return buf_;
      if (c != '\\') {
        buf_ += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      if (e == 'u') unicode_escape();
      else if (const std::size_t k = kEscape.find(e); k != kEscape.npos)
        buf_ += kMeans[k];
      else fail("bad escape character");
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    const char* const first = s_.data() + pos_;
    const char* const last = std::from_chars(first, first + 4, cp, 16).ptr;
    if (last != first + 4) {
      pos_ += std::size_t(last - first) + 1;  // just past the bad digit
      fail("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return cp;
  }

  /// Appends the code point of a \u escape to buf_ as UTF-8.
  void unicode_escape() {
    unsigned cp = hex4();
    if (cp >= 0xDC00 && cp <= 0xDFFF)
      fail("unpaired low surrogate in \\u escape");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: the low half must follow immediately as another
      // \u escape; anything else leaves an unpaired half, which has no
      // UTF-8 encoding.
      if (pos_ + 2 > s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u')
        fail("unpaired high surrogate in \\u escape");
      pos_ += 2;
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF)
        fail("high surrogate not followed by a low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    // A lead byte marking the count of continuation bytes, then 6 bits each.
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int more = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    buf_ += char(kLead[more] | (cp >> (6 * more)));
    for (int i = more - 1; i >= 0; --i)
      buf_ += char(0x80 | ((cp >> (6 * i)) & 0x3F));
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    if (integral) {
      std::int64_t v = 0;
      const auto r = std::from_chars(first, last, v);
      if (r.ec == std::errc() && r.ptr == last) return Json(v);
    }
    // Integers past int64 read as doubles. A leading '+' is not JSON and
    // does not parse.
    double d = 0.0;
    const auto r = std::from_chars(first, last, d);
    if (r.ptr != last || first == last) fail("bad number");
    if (r.ec == std::errc::result_out_of_range) {
      // from_chars leaves d unset here; strtod's overflow to +-inf and
      // underflow to +-0 keep such values what they always read as.
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (r.ec != std::errc()) {
      fail("bad number");
    }
    return Json(d);
  }

  /// Moves the entries above `base` off `stack` into a block of exactly
  /// their count, at `first`; returns the count.
  template <class T>
  static std::uint32_t take(std::vector<T>& stack, std::size_t base,
                            T*& first) {
    const std::size_t n = stack.size() - base;
    first = moved_block(stack.data() + base, n, n);
    stack.erase(stack.begin() + std::ptrdiff_t(base), stack.end());
    return std::uint32_t(n);
  }

  /// An array or an object, its items or members collected on items_ or
  /// members_ above the enclosing containers' own. A repeated key's later
  /// value replaces the earlier one in place.
  Json container(int depth, bool obj) {
    const char close = obj ? '}' : ']';
    ++pos_;  // '[' or '{'
    Json out = obj ? Json::object() : Json::array();
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return out;
    }
    const std::size_t base = obj ? members_.size() : items_.size();
    for (char c = ','; c != close; ++pos_) {
      if (c != ',') fail(obj ? "expected ',' or '}'" : "expected ',' or ']'");
      if (obj) {
        skip_ws();
        Json key(string());
        skip_ws();
        expect(':');
        Json v = value(depth);
        const auto same = std::find_if(
            members_.begin() + std::ptrdiff_t(base), members_.end(),
            [&](const Member& m) {
              return std::memcmp(&m.first, &key, sizeof key) == 0 ||
                     (key.tag() == kLong && m.first.str() == key.str());
            });
        if (same != members_.end()) same->second = std::move(v);
        else members_.push_back({std::move(key), std::move(v)});
      } else {
        items_.push_back(value(depth));
      }
      skip_ws();
      c = peek();
    }
    out.r_.h.n = obj ? take(members_, base, out.r_.h.members)
                     : take(items_, base, out.r_.h.items);
    return out;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string buf_;
  std::vector<Json> items_;
  std::vector<Member> members_;
};

Json Json::parse(std::string_view text) { return Parser(text).document(); }

namespace {
/// Appends the path from `node` down to `target` to `path`; false (path
/// as it was) when `target` is not in `node`'s tree.
bool path_to(const Json& node, const Json* target, std::string& path) {
  if (&node == target) return true;
  const std::size_t mark = path.size();
  for (std::size_t i = 0; i < node.size(); ++i) {
    const bool arr = node.is_array();
    const Json::Member* m = arr ? nullptr : &node.entries()[i];
    if (arr) path += "[" + std::to_string(i) + "]";
    else path.append(mark > 0 ? "." : "").append(m->first.as_string());
    if (path_to(arr ? node[i] : m->second, target, path)) return true;
    path.resize(mark);
  }
  return false;
}
}  // namespace

std::string JsonField::doc_name() const {
  return item_ == kRoot ? std::string(doc_)
                        : doc_ + ("[" + std::to_string(item_) + "]");
}

void JsonField::fail(const std::string& what) const {
  std::string at;
  path_to(root_, &v_, at);
  throw Error(doc_name() + ": " +
              (at.empty() ? "document root" : "field '" + at + "'") + " " +
              what);
}

JsonField JsonField::operator[](std::string_view key) const {
  if (!v_.is_object()) fail("must be a JSON object");
  const Json* j = v_.find(key);
  if (j == nullptr) {
    std::string at;
    path_to(root_, &v_, at);
    throw Error(doc_name() + ": missing field '" + at +
                (at.empty() ? "" : ".") + std::string(key) + "'");
  }
  return JsonField(*j, *this);
}

JsonField JsonField::operator[](std::size_t i) const {
  if (i >= size()) fail("has no entry " + std::to_string(i));
  return JsonField(v_[i], *this);
}

std::vector<std::string> JsonField::keys() const {
  if (!v_.is_object()) fail("must be a JSON object");
  std::vector<std::string> out;
  for (const auto& [key, value] : v_.entries())
    out.emplace_back(key.as_string());
  return out;
}

std::size_t JsonField::size() const {
  if (!v_.is_array()) fail("must be an array");
  return v_.size();
}

void JsonField::expect_size(std::size_t n) const {
  if (size() != n)
    fail("has " + std::to_string(size()) + " entries, expected " +
         std::to_string(n));
}

double JsonField::number() const {
  if (!v_.is_number()) fail("must be a number");
  const double v = v_.as_double();
  if (!std::isfinite(v)) fail("= " + std::to_string(v) + " is not finite");
  return v;
}

std::int64_t JsonField::integer(std::int64_t lo, std::int64_t hi) const {
  if (!v_.is_number()) fail("must be an integer");
  std::int64_t v = 0;
  try {
    v = v_.as_int();
  } catch (const Error&) {
    fail("= " + v_.dump() + " is not an int64 integer");
  }
  if (v < lo || v > hi)
    fail("= " + std::to_string(v) + ", must be in [" + std::to_string(lo) +
         ", " + std::to_string(hi) + "]");
  return v;
}

bool JsonField::boolean() const {
  if (!v_.is_bool()) fail("must be a boolean");
  return v_.as_bool();
}

std::string_view JsonField::string() const {
  if (!v_.is_string()) fail("must be a string");
  return v_.as_string();
}

std::vector<double> JsonField::numbers() const {
  std::vector<double> out(size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = (*this)[i].number();
  return out;
}

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("cannot open " + path + " for writing");
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  // fclose flushes, so a full disk shows up there as well.
  if (std::fclose(f) != 0 || !written) throw Error("write failed: " + path);
}

void replace_file(const std::string& path, std::string_view text) {
  // A device or pipe (/dev/null, /dev/stdout) is written in place: renaming
  // a file over it would replace it.
  std::error_code ec;
  const auto type = std::filesystem::status(path, ec).type();
  if (type != std::filesystem::file_type::regular &&
      type != std::filesystem::file_type::not_found &&
      type != std::filesystem::file_type::none) {
    write_file(path, text);
    return;
  }
  const std::string tmp = path + ".tmp";
  try {
    write_file(tmp, text);
  } catch (const Error&) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename " + tmp + " to " + path);
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw Error("cannot read " + path);
  return out;
}

void save_json(const Json& doc, const std::string& path) {
  std::string text = doc.dump(2);
  text += '\n';
  write_file(path, text);
}

Json load_json(const std::string& path, const std::string& regenerate) {
  const std::string text = read_file(path);
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || text[first] != '{')
    throw Error(path +
                ": not a JSON document (the `key = value` text format was "
                "removed); regenerate it with `" + regenerate + "`");
  try {
    return Json::parse(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace lmo::obs
