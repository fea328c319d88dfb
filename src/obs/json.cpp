#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>
#include <ostream>
#include <system_error>

#include "util/error.hpp"

namespace lmo::obs {

namespace {
/// Appends s to out, escaped for inclusion inside JSON double quotes. Runs
/// that need no escape are appended whole.
template <class Out>
void append_escaped(Out& out, std::string_view s) {
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const char* esc = nullptr;
    switch (*p) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\b': esc = "\\b"; break;
      case '\f': esc = "\\f"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(*p) >= 0x20) continue;
    }
    out.append(run, p);
    if (esc != nullptr) {
      out += esc;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", *p);
      out += buf;
    }
    run = p + 1;
  }
  out.append(run, end);
}
}  // namespace

std::int64_t Json::checked_unsigned(std::uint64_t u) {
  LMO_CHECK_MSG(u <= std::uint64_t(std::numeric_limits<std::int64_t>::max()),
                "JSON integer overflow");
  return std::int64_t(u);
}

bool Json::is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
bool Json::is_bool() const { return std::holds_alternative<bool>(v_); }
bool Json::is_number() const {
  return std::holds_alternative<std::int64_t>(v_) ||
         std::holds_alternative<double>(v_);
}
bool Json::is_string() const { return std::holds_alternative<std::string>(v_); }
bool Json::is_array() const { return std::holds_alternative<Array>(v_); }
bool Json::is_object() const { return std::holds_alternative<Object>(v_); }

Json& Json::operator[](const std::string& key) {
  if (is_null()) v_ = Object{};
  LMO_CHECK_MSG(is_object(), "JSON operator[] on a non-object");
  auto& obj = std::get<Object>(v_);
  for (auto& [k, v] : obj)
    if (k == key) return v;
  obj.emplace_back(key, Json());
  return obj.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_))
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  LMO_CHECK_MSG(v != nullptr, "missing JSON key '" + key + "'");
  return *v;
}

void Json::push_back(Json v) {
  if (is_null()) v_ = Array{};
  LMO_CHECK_MSG(is_array(), "JSON push_back on a non-array");
  std::get<Array>(v_).push_back(std::move(v));
}

void Json::reserve(std::size_t n) {
  if (is_array()) return std::get<Array>(v_).reserve(n);
  LMO_CHECK_MSG(is_object(), "JSON reserve on a scalar");
  std::get<Object>(v_).reserve(n);
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(v_).size();
  if (is_object()) return std::get<Object>(v_).size();
  return 0;
}

const Json& Json::operator[](std::size_t i) const {
  LMO_CHECK_MSG(is_array(), "JSON index on a non-array");
  const auto& arr = std::get<Array>(v_);
  LMO_CHECK(i < arr.size());
  return arr[i];
}

bool Json::as_bool() const {
  LMO_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return std::get<bool>(v_);
}

double Json::as_double() const {
  if (std::holds_alternative<std::int64_t>(v_))
    return double(std::get<std::int64_t>(v_));
  LMO_CHECK_MSG(std::holds_alternative<double>(v_),
                "JSON value is not a number");
  return std::get<double>(v_);
}

std::int64_t Json::as_int() const {
  if (std::holds_alternative<double>(v_)) {
    // Range-check before the cast: converting a double outside int64's
    // range (or nan) is undefined behaviour. -2^63 and 2^63 are exact.
    const double d = std::get<double>(v_);
    if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d))
      throw Error("JSON number " + dump() + " is not an int64 integer");
    return std::int64_t(d);
  }
  LMO_CHECK_MSG(std::holds_alternative<std::int64_t>(v_),
                "JSON value is not a number");
  return std::get<std::int64_t>(v_);
}

const std::string& Json::as_string() const {
  LMO_CHECK_MSG(is_string(), "JSON value is not a string");
  return std::get<std::string>(v_);
}

const Json::Array& Json::items() const {
  LMO_CHECK_MSG(is_array(), "JSON value is not an array");
  return std::get<Array>(v_);
}

const Json::Object& Json::entries() const {
  LMO_CHECK_MSG(is_object(), "JSON value is not an object");
  return std::get<Object>(v_);
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
  Writer() {
    done_.reserve(kChunks);
    cur_.reserve(kChunk);
  }

  Writer& operator+=(char c) {
    room(1);
    cur_ += c;
    return *this;
  }
  Writer& operator+=(std::string_view s) {
    room(s.size());
    cur_ += s;
    return *this;
  }
  void append(const char* first, const char* last) {
    *this += std::string_view(first, std::size_t(last - first));
  }
  void append(std::size_t n, char c) {
    room(n);
    cur_.append(n, c);
  }

  std::string join() {
    std::string out;
    out.reserve(done_size_ + cur_.size());
    for (const std::string& c : done_) out += c;
    out += cur_;
    return out;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t(1) << 14;
  static constexpr std::size_t kChunks = 64;  ///< a 1 MiB document's worth

  /// Starts a new chunk unless n more bytes fit in the current one; a piece
  /// longer than kChunk gets a chunk of its own size.
  void room(std::size_t n) {
    if (cur_.size() + n <= cur_.capacity()) return;
    done_size_ += cur_.size();
    done_.push_back(std::move(cur_));
    cur_ = std::string();
    cur_.reserve(std::max(kChunk, n));
  }

  std::vector<std::string> done_;
  std::size_t done_size_ = 0;
  std::string cur_;
};

namespace {

/// Shortest of the %.15g / %.16g / %.17g forms that reads back as d (nan
/// and inf have no JSON representation and serialize as null).
template <class Out>
void dump_double(Out& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  char* end = buf;
  for (const int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    const auto read = std::from_chars(buf, end, back);
    if (read.ec == std::errc() && back == d) break;
  }
  out.append(buf, end);
}

template <class Out>
void dump_int(Out& out, std::int64_t i) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
}

template <class Out>
void newline_indent(Out& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(std::size_t(indent) * std::size_t(depth), ' ');
}

}  // namespace

void Json::dump_impl(Writer& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(v_) ? "true" : "false";
  } else if (std::holds_alternative<std::int64_t>(v_)) {
    dump_int(out, std::get<std::int64_t>(v_));
  } else if (std::holds_alternative<double>(v_)) {
    dump_double(out, std::get<double>(v_));
  } else if (is_string()) {
    out += '"';
    append_escaped(out, std::get<std::string>(v_));
    out += '"';
  } else if (is_array()) {
    const auto& arr = std::get<Array>(v_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out += ',';
      newline_indent(out, indent, depth + 1);
      arr[i].dump_impl(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = std::get<Object>(v_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      out += '"';
      append_escaped(out, k);
      out += "\":";
      if (indent > 0) out += ' ';
      v.dump_impl(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += '}';
  }
}

void Json::dump(std::ostream& os, int indent) const { os << dump(indent); }

std::string Json::dump(int indent) const {
  Writer out;
  dump_impl(out, indent, 0);
  return out.join();
}

// ------------------------------------------------------------- parser ----

class Json::Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
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

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case '"': return Json(string());
      case '[': return array();
      case '{': return object();
      default: return number();
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default: fail("bad escape character");
      }
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= unsigned(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= unsigned(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= unsigned(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return cp;
  }

  std::string unicode_escape() {
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
    std::string out;
    if (cp < 0x80) {
      out += char(cp);
    } else if (cp < 0x800) {
      out += char(0xC0 | (cp >> 6));
      out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += char(0xE0 | (cp >> 12));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    } else {
      out += char(0xF0 | (cp >> 18));
      out += char(0x80 | ((cp >> 12) & 0x3F));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    }
    return out;
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

  /// Caps container nesting: array()/object() recurse through value(), so
  /// adversarial input like 100k copies of '[' would otherwise overflow
  /// the call stack long before any size limit triggers. 256 levels is far
  /// beyond any document this project reads or writes.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.fail("nesting deeper than 256 levels");
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& p_;
  };

  Json array() {
    const DepthGuard guard(*this);
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  /// Collects the members on members_ above the enclosing objects' own,
  /// then moves them into an Object of exactly their count. A repeated
  /// key's later value replaces the earlier one in place.
  Json object() {
    const DepthGuard guard(*this);
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    const std::size_t base = members_.size();
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      Json v = value();
      const auto first = members_.begin() + std::ptrdiff_t(base);
      const auto same =
          std::find_if(first, members_.end(),
                       [&](const auto& kv) { return kv.first == key; });
      if (same != members_.end())
        same->second = std::move(v);
      else
        members_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    const auto first = members_.begin() + std::ptrdiff_t(base);
    out.v_ = Object(std::make_move_iterator(first),
                    std::make_move_iterator(members_.end()));
    members_.erase(first, members_.end());
    return out;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Object members_;
};

Json Json::parse(std::string_view text) { return Parser(text).document(); }

// ------------------------------------------------------- JsonField ----

void JsonField::fail(const std::string& what) const {
  throw Error(std::string(doc_) + ": " +
              (path_.empty() ? std::string("document root")
                             : "field '" + path_ + "'") +
              " " + what);
}

JsonField JsonField::operator[](const std::string& key) const {
  if (!v_.is_object()) fail("must be a JSON object");
  std::string at = path_.empty() ? key : path_ + "." + key;
  const Json* j = v_.find(key);
  if (j == nullptr)
    throw Error(std::string(doc_) + ": missing field '" + at + "'");
  return JsonField(*j, std::move(at), doc_);
}

JsonField JsonField::operator[](std::size_t i) const {
  if (i >= size()) fail("has no entry " + std::to_string(i));
  return JsonField(v_[i], path_ + "[" + std::to_string(i) + "]", doc_);
}

std::vector<std::string> JsonField::keys() const {
  if (!v_.is_object()) fail("must be a JSON object");
  std::vector<std::string> out;
  for (const auto& [key, value] : v_.entries()) out.push_back(key);
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

const std::string& JsonField::string() const {
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
