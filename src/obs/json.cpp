#include "obs/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace lmo::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

namespace {

/// Shortest decimal form that strtod-round-trips (nan/inf have no JSON
/// representation and serialize as null).
void dump_double(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  char buf[32];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  os << buf;
}

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (std::get<bool>(v_) ? "true" : "false");
  } else if (std::holds_alternative<std::int64_t>(v_)) {
    os << std::get<std::int64_t>(v_);
  } else if (std::holds_alternative<double>(v_)) {
    dump_double(os, std::get<double>(v_));
  } else if (is_string()) {
    os << '"' << json_escape(std::get<std::string>(v_)) << '"';
  } else if (is_array()) {
    const auto& arr = std::get<Array>(v_);
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) os << ',';
      newline_indent(os, indent, depth + 1);
      arr[i].dump_impl(os, indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << ']';
  } else {
    const auto& obj = std::get<Object>(v_);
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) os << ',';
      first = false;
      newline_indent(os, indent, depth + 1);
      os << '"' << json_escape(k) << "\":";
      if (indent > 0) os << ' ';
      v.dump_impl(os, indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << '}';
  }
}

void Json::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

// ------------------------------------------------------------- parser ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    LMO_CHECK_MSG(pos_ == s_.size(), "trailing characters after JSON value");
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
    const std::string text(s_.substr(start, pos_ - start));
    if (text.empty() || text == "-") fail("bad number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno == 0 && end == text.c_str() + text.size())
        return Json(std::int64_t(v));
    }
    char* end = nullptr;
    const double d = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) fail("bad number");
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

  Json object() {
    const DepthGuard guard(*this);
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out[key] = value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

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

void save_json(const Json& doc, const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) throw Error("cannot open " + path + " for writing");
  doc.dump(os, 2);
  os << "\n";
  if (!os.good()) throw Error("write failed: " + path);
}

Json load_json(const std::string& path, const std::string& regenerate) {
  std::ifstream is(path);
  if (!is.good()) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
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
