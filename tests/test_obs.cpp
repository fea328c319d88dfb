// Tests for the obs subsystem: JSON model, escaping, metrics registry,
// the trace sink, histogram quantiles, Prometheus exposition, the flight
// recorder ring, the residual tracker, and the concurrent-publication
// contract (the "Obs" suites run under CI TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace lmo::obs {
namespace {

// ------------------------------------------------------------- escaping ----

/// `s` as dump() writes it inside a JSON string, quotes stripped.
std::string json_escape(const std::string& s) {
  const std::string quoted = Json(s).dump();
  return quoted.substr(1, quoted.size() - 2);
}

TEST(JsonEscape, QuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(json_escape("utf8 β ok"), "utf8 β ok");
}

TEST(JsonEscape, EscapedStringsParseBack) {
  const std::string nasty = "he said \"hi\"\n\tslash: \\ bell: \x07";
  Json doc = Json::object();
  doc["s"] = nasty;
  const Json parsed = Json::parse(doc.dump());
  EXPECT_EQ(parsed.at("s").as_string(), nasty);
}

// ----------------------------------------------------------- Json model ----

TEST(Json, RoundTripsScalarsArraysObjects) {
  Json doc = Json::object();
  doc["null"] = Json();
  doc["bool"] = true;
  doc["int"] = std::int64_t(-42);
  doc["big"] = std::int64_t(1) << 60;
  doc["pi"] = 3.141592653589793;
  doc["tiny"] = 1.5e-9;
  doc["str"] = "hello";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(3.5);
  doc["arr"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const Json p = Json::parse(doc.dump(indent));
    EXPECT_TRUE(p.at("null").is_null());
    EXPECT_TRUE(p.at("bool").as_bool());
    EXPECT_EQ(p.at("int").as_int(), -42);
    EXPECT_EQ(p.at("big").as_int(), std::int64_t(1) << 60);
    EXPECT_EQ(p.at("pi").as_double(), 3.141592653589793);
    EXPECT_EQ(p.at("tiny").as_double(), 1.5e-9);
    EXPECT_EQ(p.at("str").as_string(), "hello");
    ASSERT_EQ(p.at("arr").size(), 3u);
    EXPECT_EQ(p.at("arr")[0].as_int(), 1);
    EXPECT_EQ(p.at("arr")[1].as_string(), "two");
    EXPECT_EQ(p.at("arr")[2].as_double(), 3.5);
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  const Json parsed = Json::parse(doc.dump());
  const auto& entries = parsed.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first.as_string(), "zebra");
  EXPECT_EQ(entries[1].first.as_string(), "alpha");
  EXPECT_EQ(entries[2].first.as_string(), "mid");
}

TEST(Json, RepeatedKeysKeepTheirFirstPlaceAndTheirLastValue) {
  // Nested objects collect their members above the enclosing object's.
  const Json p = Json::parse(
      R"({"a": 1, "b": {"x": 1, "y": {"z": 2}, "x": 3}, "a": 4, "c": {}})");
  const auto& top = p.entries();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first.as_string(), "a");
  EXPECT_EQ(top[0].second.as_int(), 4);
  EXPECT_EQ(top[1].first.as_string(), "b");
  EXPECT_EQ(top[2].first.as_string(), "c");
  EXPECT_EQ(top[2].second.size(), 0u);
  const auto& b = top[1].second.entries();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].first.as_string(), "x");
  EXPECT_EQ(b[0].second.as_int(), 3);
  EXPECT_EQ(b[1].first.as_string(), "y");
  EXPECT_EQ(b[1].second.at("z").as_int(), 2);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW((void)Json::parse("{"), Error);
  EXPECT_THROW((void)Json::parse("[1,]"), Error);
  EXPECT_THROW((void)Json::parse("{} trailing"), Error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), Error);
}

TEST(Json, DoublesDumpInTheShortestRoundTripForm) {
  // Golden bytes: each double prints in the first of %.15g, %.16g, %.17g
  // that reads back as the same double. 2^53 + 1 is no double and rounds
  // to 2^53; as an int64 it prints exactly. Every value but -0 reads back
  // to the bit ("-0" reads as the integer 0).
  const double values[] = {0.1,
                           1e21,
                           5e-324,
                           -0.0,
                           std::numeric_limits<double>::max(),
                           double((std::int64_t(1) << 53) + 1),
                           1e-7,
                           123456789012345680.0};
  Json arr = Json::array();
  for (const double v : values) arr.push_back(v);
  arr.push_back((std::int64_t(1) << 53) + 1);
  EXPECT_EQ(arr.dump(),
            "[0.1,1e+21,4.94065645841247e-324,-0,1.7976931348623157e+308,"
            "9007199254740992,1e-07,1.2345678901234568e+17,9007199254740993]");
  std::ostringstream os;
  arr.dump(os);
  EXPECT_EQ(os.str(), arr.dump());
  const Json back = Json::parse(arr.dump());
  for (std::size_t i = 0; i < std::size(values); ++i) {
    if (values[i] == 0.0) continue;
    const double v = back[i].as_double();
    EXPECT_EQ(std::memcmp(&v, &values[i], sizeof v), 0) << arr[i].dump();
  }
}

/// The reference formatter: the shortest of the %.15g / %.16g / %.17g
/// forms that reads back as d, and null for nan and inf.
std::string precision_loop(double d) {
  if (!std::isfinite(d)) return "null";
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
  return std::string(buf, end);
}

/// Dumps `values` as one array, in batches, and counts the items that
/// differ from the oracle, reporting the first few.
int oracle_mismatches(const std::vector<double>& values) {
  constexpr std::size_t kBatch = 1 << 16;
  int bad = 0;
  for (std::size_t first = 0; first < values.size(); first += kBatch) {
    const std::size_t last = std::min(values.size(), first + kBatch);
    Json arr = Json::array();
    arr.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) arr.push_back(values[i]);
    const std::string text = arr.dump();
    std::size_t at = 1;
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t end = text.find_first_of(",]", at);
      const std::string got = text.substr(at, end - at);
      if (got != precision_loop(values[i]) && ++bad <= 5)
        ADD_FAILURE() << std::hexfloat << values[i] << " dumps as " << got
                      << ", the oracle says " << precision_loop(values[i]);
      at = end + 1;
    }
  }
  return bad;
}

TEST(JsonDouble, ShortestFormMatchesThePrecisionLoopOracle) {
  // Where the layout switches between fixed and exponent forms, the
  // extremes, zero, and every subnormal class.
  std::vector<double> values = {0.0, -0.0, 1e-5, 1e-4, 1.5e-5, 1e14, 1e15,
                                1e16, 1e17, 123456789012345.6,
                                1234567890123456.0, 9007199254740993.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double d : std::vector<double>(values))
    EXPECT_EQ(Json(d).dump(), precision_loop(d)) << std::hexfloat << d;
  // Every power of two, where the rounding interval is lopsided, and its
  // neighbours.
  for (int e = -1074; e <= 1023; ++e)
    for (const double sign : {1.0, -1.0}) {
      const double d = std::ldexp(sign, e);
      values.insert(values.end(), {d, std::nextafter(d, 0.0),
                                   std::nextafter(d, 2.0 * d)});
    }
  // Decimals of 1 to 17 significant digits: short forms lay out in fixed
  // notation up to an exponent of 14, where %.15g stops.
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t m = rng() % 100000000000000000ull;
    for (int k = int(rng() % 17); k > 0; --k) m /= 10;
    const int e = int(rng() % 60) - 30;
    values.push_back(std::strtod(
        (std::to_string(m) + "e" + std::to_string(e)).c_str(), nullptr));
  }
  // 2M random bit patterns: every class, nan and inf included.
  for (int i = 0; i < 2000000; ++i)
    values.push_back(std::bit_cast<double>(std::uint64_t(rng())));
  EXPECT_EQ(oracle_mismatches(values), 0) << "of " << values.size();
}

TEST(Json, NumbersReadAsStrtodHadThemButALeadingPlusIsRefused) {
  // Overflow reads as +-inf and underflow past the subnormals as +-0;
  // integers past int64 read as doubles. A leading '+' is not JSON.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::parse("1e999").as_double(), kInf);
  EXPECT_EQ(Json::parse("-1e999").as_double(), -kInf);
  const double under = Json::parse("-1e-400").as_double();
  EXPECT_EQ(under, 0.0);
  EXPECT_TRUE(std::signbit(under));
  EXPECT_EQ(Json::parse("4.94065645841247e-324").as_double(), 5e-324);
  EXPECT_EQ(Json::parse("99999999999999999999").as_double(), 1e20);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("-.5").as_double(), -0.5);
  for (const char* bad :
       {"+1", "[+1]", "+.5", "+1e3", "-", "1e", "1.2.3", "--1"})
    EXPECT_THROW((void)Json::parse(bad), Error) << bad;
}

TEST(Json, AsIntRangeChecksDoublesBeforeConverting) {
  // Out-of-range doubles must throw, not hit the undefined float-to-int
  // conversion.
  EXPECT_THROW((void)Json::parse("1e300").as_int(), Error);
  EXPECT_THROW((void)Json::parse("-1e300").as_int(), Error);
  EXPECT_THROW((void)Json::parse("9.3e18").as_int(), Error);
  EXPECT_THROW((void)Json::parse("2.5").as_int(), Error);
  EXPECT_EQ(Json::parse("-9.223372036854775808e18").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("4e3").as_int(), 4000);
}

TEST(JsonField, ErrorsNameTheDocumentAndTheFieldPath) {
  const Json doc = Json::parse(
      R"({"a": {"xs": [1, "two", 1e999]}, "n": 2.5, "k": -3})");
  const JsonField root(doc, "test doc");
  auto expect_named = [](auto read, const std::string& what) {
    try {
      read();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
  };
  EXPECT_EQ(root["a"]["xs"][0].integer(), 1);
  expect_named([&] { (void)root["a"]["xs"].numbers(); },
               "test doc: field 'a.xs[1]' must be a number");
  expect_named([&] { (void)root["a"]["xs"][2].number(); },
               "test doc: field 'a.xs[2]' = inf is not finite");
  expect_named([&] { (void)root["a"]["ys"]; },
               "test doc: missing field 'a.ys'");
  expect_named([&] { (void)root["a"]["xs"][3]; },
               "test doc: field 'a.xs' has no entry 3");
  expect_named([&] { (void)root["n"].integer(); },
               "test doc: field 'n' = 2.5 is not an int64 integer");
  expect_named([&] { (void)root["k"].integer(0, 9); },
               "test doc: field 'k' = -3, must be in [0, 9]");
  expect_named([&] { (void)root["a"].size(); },
               "test doc: field 'a' must be an array");
  expect_named([&] { root["a"]["xs"].expect_size(2); },
               "test doc: field 'a.xs' has 3 entries, expected 2");
  const Json array = Json::parse("[]");
  expect_named([&] { (void)JsonField(array, "test doc")["a"]; },
               "test doc: document root must be a JSON object");
}

TEST(Json, HostileNestingFailsWithOffsetInsteadOfOverflowing) {
  // 100k unclosed '[' would blow the call stack without the parser's depth
  // guard; it must surface as a parse error naming the offending offset.
  const std::string bomb(100000, '[');
  try {
    (void)Json::parse(bomb);
    FAIL() << "depth bomb parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset 256"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  // Objects recurse through the same guard.
  std::string obj_bomb;
  for (int i = 0; i < 100000; ++i) obj_bomb += "{\"k\":";
  EXPECT_THROW((void)Json::parse(obj_bomb), Error);
  // Depth at the limit still parses: 200 levels is comfortably legal.
  const std::string ok =
      std::string(200, '[') + "1" + std::string(200, ']');
  EXPECT_EQ(Json::parse(ok).size(), 1u);
}

TEST(Json, UnpairedSurrogatesAreParseErrorsWithOffset) {
  // A lone low surrogate, a high surrogate followed by a plain character,
  // a high surrogate at end of string, and a high surrogate followed by a
  // non-surrogate escape: none has a UTF-8 encoding.
  for (const char* bad : {"\"\\uDC00\"", "\"\\uD834x\"", "\"\\uD834\"",
                          "\"\\uD834\\u0041\""}) {
    try {
      (void)Json::parse(bad);
      FAIL() << bad << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("surrogate"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, SurrogatePairsDecodeToFourByteUtf8) {
  // U+1D11E (musical G clef) is \uD834\uDD1E.
  const Json v = Json::parse("\"\\uD834\\uDD1E\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9D\x84\x9E");
  // And BMP escapes still decode as before.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, DumpedEscapesRoundTripThroughTheParser) {
  // Every escape dump() emits — quotes, backslashes, the named control
  // escapes, and \u00xx for the remaining control bytes — must parse back
  // to the original string.
  std::string nasty = "quote:\" back:\\ slash:/ ";
  for (int c = 1; c < 0x20; ++c) nasty += char(c);
  Json doc = Json::object();
  doc["s"] = nasty;
  EXPECT_EQ(Json::parse(doc.dump()).at("s").as_string(), nasty);
  EXPECT_EQ(Json::parse(doc.dump(2)).at("s").as_string(), nasty);
}

TEST(Json, LargeDocumentsDumpAsTheirPiecesDo) {
  // Large enough to span many of dump()'s output chunks, with pieces that
  // straddle chunk edges: strings of every length up to 3000 bytes (with
  // escapes), numbers, nested objects, and one string longer than a chunk.
  Json arr = Json::array();
  for (int i = 0; i < 3000; ++i) {
    Json o = Json::object();
    o["s"] = std::string(std::size_t(i), char('a' + i % 26)) + "\"\\\n\x01";
    o["x"] = 0.1 * i;
    o["n"] = std::int64_t(i) * 1000003;
    arr.push_back(std::move(o));
  }
  std::string big(100000, 'q');
  for (std::size_t i = 0; i < big.size(); i += 997) big[i] = '\t';
  arr.push_back(big);

  std::string pieces = "[";
  for (std::size_t i = 0; i < arr.size(); ++i)
    pieces += (i > 0 ? "," : "") + arr[i].dump();
  pieces += "]";
  const std::string dumped = arr.dump();
  EXPECT_EQ(dumped, pieces);
  EXPECT_GT(dumped.size(), std::size_t(4) << 20);
  // The result is allocated once, at the document's length.
  EXPECT_LE(dumped.capacity(), dumped.size() + 64);

  std::ostringstream os;
  arr.dump(os, 2);
  EXPECT_EQ(os.str(), arr.dump(2));
  EXPECT_EQ(Json::parse(arr.dump(2)).dump(), dumped);
}

// ------------------------------------------------------------- registry ----

TEST(Metrics, CounterGaugeHistogramBasics) {
  Registry reg;
  Counter c = reg.counter("c");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter("c").value(), 42u);  // same cell by name

  Gauge g = reg.gauge("g");
  g.set(2.0);
  g.update_max(1.0);
  EXPECT_EQ(g.value(), 2.0);
  g.update_max(5.0);
  EXPECT_EQ(g.value(), 5.0);

  // Bucket i counts bounds[i-1] < x <= bounds[i]; last bucket overflows.
  Histogram h = reg.histogram("h", {1.0, 2.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (inclusive upper bound)
  h.observe(1.5);  // bucket 1
  h.observe(9.0);  // overflow
  const Snapshot s = reg.snapshot();
  const auto& hist = s.histograms.at("h");
  ASSERT_EQ(hist.counts.size(), 3u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.counts[2], 1u);
  EXPECT_EQ(hist.total, 4u);
  EXPECT_DOUBLE_EQ(hist.sum, 12.0);
}

TEST(Metrics, HistogramReregistrationWithNewBoundsThrows) {
  Registry reg;
  (void)reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW((void)reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW((void)reg.histogram("h", {3.0}), Error);
}

TEST(Metrics, ConcurrentIncrementsDontLoseCounts) {
  Registry reg;
  Counter c = reg.counter("hits");
  Histogram h = reg.histogram("obs", {0.5});
  const int n = 64, per_task = 250;
  parallel_for(8, n, [&](int) {
    for (int k = 0; k < per_task; ++k) {
      c.inc();
      h.observe(0.25);
    }
  });
  EXPECT_EQ(c.value(), std::uint64_t(n) * per_task);
  EXPECT_EQ(h.total(), std::uint64_t(n) * per_task);
}

TEST(Metrics, SnapshotJsonParsesBack) {
  Registry reg;
  reg.counter("runs").inc(3);
  reg.gauge("depth").set(1.5);
  reg.histogram("err", {0.1, 0.2}).observe(0.15);
  const Json j = Json::parse(reg.snapshot().to_json().dump(2));
  EXPECT_EQ(j.at("counters").at("runs").as_int(), 3);
  EXPECT_EQ(j.at("gauges").at("depth").as_double(), 1.5);
  EXPECT_EQ(j.at("histograms").at("err").at("total").as_int(), 1);
}

// ------------------------------------------------------------ trace sink ----

Json parsed_trace(const TraceSink& sink) {
  std::ostringstream os;
  sink.write(os);
  return Json::parse(os.str());
}

TEST(Trace, SinkSerializesWellFormedObjectForm) {
  TraceSink sink;
  sink.set_process_name(kHostPid, "host \"quoted\"");
  sink.set_thread_name(kHostPid, 7, "worker\n7");
  Json args = Json::object();
  args["note"] = "payload with \\ and \"";
  sink.complete("phase \"a\"", "test", kHostPid, 7, 1.0, 2.5,
                std::move(args));
  const Json doc = parsed_trace(sink);
  const auto& events = doc.at("traceEvents").items();
  ASSERT_EQ(events.size(), 3u);  // 2 metadata + 1 complete
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[2].at("name").as_string(), "phase \"a\"");
  EXPECT_EQ(events[2].at("dur").as_double(), 2.5);
  EXPECT_EQ(events[2].at("args").at("note").as_string(),
            "payload with \\ and \"");
}

TEST(Trace, SpanRecordsCompleteEventOnSink) {
  TraceSink sink;
  { const Span sp(&sink, "work", "phase"); }
  const Json doc = parsed_trace(sink);
  int found = 0;
  for (const Json& e : doc.at("traceEvents").items())
    if (e.at("ph").as_string() == "X") {
      EXPECT_EQ(e.at("name").as_string(), "work");
      EXPECT_GE(e.at("dur").as_double(), 0.0);
      ++found;
    }
  EXPECT_EQ(found, 1);
}

TEST(Trace, GlobalSinkDisabledByDefault) {
  EXPECT_EQ(global_sink(), nullptr);
  { const Span sp = span("noop"); }  // must be a no-op, not a crash
}

// ---------------------------------------------------- histogram quantiles ----

TEST(ObsQuantile, EmptyHistogramIsZero) {
  Snapshot::Hist h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.bounds = {1.0, 2.0};
  h.counts = {0, 0, 0};
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(ObsQuantile, InterpolatesInsideBuckets) {
  // 100 observations uniformly in one bucket (0, 10]: the quantile walks
  // linearly across it.
  Snapshot::Hist h;
  h.bounds = {10.0};
  h.counts = {100, 0};
  h.total = 100;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 9.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(ObsQuantile, WalksCumulativeCountsAcrossBuckets) {
  // 50 in (0,1], 30 in (1,2], 20 in (2,4].
  Snapshot::Hist h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {50, 30, 20, 0};
  h.total = 100;
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);   // rank 25 of 50 in (0,1]
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.0);   // exactly the 1st boundary
  EXPECT_DOUBLE_EQ(h.quantile(0.65), 1.5);   // rank 65: halfway into (1,2]
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 3.0);   // rank 90: halfway into (2,4]
  EXPECT_LE(h.quantile(-1.0), h.quantile(2.0));  // clamped, no UB
}

TEST(ObsQuantile, OverflowBucketClampsToLastBound) {
  Snapshot::Hist h;
  h.bounds = {1.0};
  h.counts = {10, 90};  // 90% of mass past the last bound
  h.total = 100;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
}

TEST(ObsQuantile, SnapshotJsonCarriesQuantiles) {
  Registry reg;
  Histogram h = reg.histogram("lat", {1.0, 10.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  const Json doc = reg.snapshot().to_json();
  const Json& hist = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hist.at("p50").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(hist.at("p95").as_double(), 0.95);
  EXPECT_DOUBLE_EQ(hist.at("p99").as_double(), 0.99);
}

// -------------------------------------------------- prometheus exposition ----

TEST(ObsExposition, SanitizesMetricNames) {
  EXPECT_EQ(prometheus_name("sim.runs"), "sim_runs");
  EXPECT_EQ(prometheus_name("estimate.reps-committed"),
            "estimate_reps_committed");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name("ok_name:x"), "ok_name:x");
}

TEST(ObsExposition, RendersCountersGaugesAndHistograms) {
  Registry reg;
  reg.counter("sim.runs").inc(42);
  reg.gauge("lmo.cost_total_s").set(1.5);
  Histogram h = reg.histogram("round.ns", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE lmo_sim_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("lmo_sim_runs_total 42"), std::string::npos);
  EXPECT_NE(text.find("lmo_lmo_cost_total_s 1.5"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == count.
  EXPECT_NE(text.find("lmo_round_ns_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_sum 105.5"), std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_p50"), std::string::npos);
  EXPECT_NE(text.find("lmo_round_ns_p99"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsExposition, WritePrometheusReplacesFileAtomically) {
  Registry::global().counter("obs_test.flush_marker").inc();
  const std::string path = testing::TempDir() + "lmo_test_exposition.prom";
  {
    std::ofstream stale(path);
    stale << "stale\n";
  }
  write_prometheus(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream buffer;
  buffer << is.rdbuf();
  EXPECT_NE(buffer.str().find("lmo_obs_test_flush_marker_total"),
            std::string::npos);
  EXPECT_EQ(buffer.str().find("stale"), std::string::npos);
  // The temp file was renamed over the target, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// ------------------------------------------------ flight recorder basics ----

TEST(ObsFlight, CapacityRoundsUpAndRingWraps) {
  FlightRecorder fr(20);  // rounds up to 32
  EXPECT_EQ(fr.capacity(), 32u);
  for (std::uint64_t i = 0; i < 100; ++i)
    fr.record(i, FlightEvent::kEngineEvent, std::uint16_t(i), 7);
  EXPECT_EQ(fr.recorded(), 100u);
  const auto events = fr.events();
  ASSERT_EQ(events.size(), 32u);  // only the newest capacity() survive
  // Oldest-first: 68, 69, ..., 99.
  EXPECT_EQ(events.front().t_ns, 68u);
  EXPECT_EQ(events.back().t_ns, 99u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].t_ns, events[i].t_ns);
}

TEST(ObsFlight, DegradedDumpFreezesTheRing) {
  FlightRecorder fr(16);
  fr.record(1, FlightEvent::kRoundStart, 0, 4);
  fr.record(2, FlightEvent::kTimeout, 3, 1);
  EXPECT_FALSE(fr.has_dump());
  fr.mark_degraded();
  ASSERT_TRUE(fr.degraded());
  ASSERT_EQ(fr.dump().size(), 2u);
  // Later traffic does not disturb the captured dump.
  fr.record(3, FlightEvent::kRoundComplete, 0, 4);
  EXPECT_EQ(fr.dump().size(), 2u);
  const Json doc = fr.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "lmo.flight/1");
  EXPECT_TRUE(doc.at("degraded").as_bool());
  ASSERT_EQ(doc.at("events").size(), 2u);
  EXPECT_EQ(doc.at("events")[0].at("name").as_string(), "round_start");
  EXPECT_EQ(doc.at("events")[1].at("name").as_string(), "timeout");
}

// -------------------------------------------------- residual tracker unit ----

TEST(ObsResiduals, AggregatesAndRanksByCollectiveMre) {
  ResidualTracker tracker;
  // "good" predicts collectives within 10%, "bad" within 50%.
  tracker.record("good", "linear_scatter", ResidualScope::kCollective, -1,
                 1024, 1.1, 1.0);
  tracker.record("bad", "linear_scatter", ResidualScope::kCollective, -1,
                 1024, 1.5, 1.0);
  // An op only "good" scored must not skew the ranking (intersection).
  tracker.record("good", "gather_sweep", ResidualScope::kCollective, -1,
                 2048, 9.0, 1.0);
  // pt2pt residuals never rank.
  tracker.record("bad", "roundtrip", ResidualScope::kPointToPoint, -1, 0,
                 1.0, 1.0);
  const Json doc = tracker.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "lmo.fidelity/1");
  EXPECT_EQ(doc.at("ranking_metric").as_string(),
            "mre_over_shared_collective_ops");
  ASSERT_EQ(doc.at("ranking").size(), 2u);
  EXPECT_EQ(doc.at("ranking")[0].at("model").as_string(), "good");
  EXPECT_NEAR(doc.at("ranking")[0].at("mre").as_double(), 0.1, 1e-12);
  EXPECT_EQ(doc.at("ranking")[1].at("model").as_string(), "bad");
  EXPECT_NEAR(doc.at("ranking")[1].at("mre").as_double(), 0.5, 1e-12);
  // Invalid simulated values are counted but never aggregated.
  tracker.record("good", "linear_scatter", ResidualScope::kCollective, -1,
                 1024, 1.0, 0.0);
  EXPECT_EQ(tracker.to_json().at("invalid").as_int(), 1);
}

TEST(ObsResiduals, FidelityDriftFlagsRankSwapsAndDrift) {
  auto fid = [](std::vector<std::pair<std::string, double>> pairs) {
    Json doc = Json::object();
    doc["schema"] = "lmo.fidelity/1";
    Json ranking = Json::array();
    for (auto& [model, mre] : pairs) {
      Json r = Json::object();
      r["model"] = model;
      r["mre"] = mre;
      ranking.push_back(std::move(r));
    }
    doc["ranking"] = std::move(ranking);
    return doc;
  };
  const Json base = fid({{"lmo", 0.1}, {"plogp", 0.5}});
  EXPECT_TRUE(fidelity_drift(base, base).empty());
  // Inside the absolute floor / relative band: clean.
  EXPECT_TRUE(fidelity_drift(base, fid({{"lmo", 0.11}, {"plogp", 0.6}}))
                  .empty());
  // Outside: one violation naming the model.
  const auto drifted = fidelity_drift(base, fid({{"lmo", 0.1},
                                                 {"plogp", 0.9}}));
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_NE(drifted[0].find("plogp"), std::string::npos);
  // A ranking swap is two violations.
  EXPECT_EQ(fidelity_drift(base, fid({{"plogp", 0.5}, {"lmo", 0.1}})).size(),
            2u);
}

// ----------------------------------------- concurrent publication (TSan) ----

// These run under the CI TSan job (ctest filter includes "Obs"): counters,
// histograms, and snapshot() racing across a pool must be clean, and the
// final snapshot must not depend on the jobs count.

TEST(ObsConcurrency, ConcurrentCountersHistogramsAndSnapshots) {
  Registry reg;
  Counter hits = reg.counter("hits");
  Histogram lat = reg.histogram("lat", {1.0, 10.0, 100.0});
  constexpr int kWriters = 64;
  constexpr int kPerWriter = 500;
  parallel_for(4, kWriters, [&](int w) {
    for (int i = 0; i < kPerWriter; ++i) {
      hits.inc();
      lat.observe(double((w * kPerWriter + i) % 128));
      if (i % 100 == 0) (void)reg.snapshot();  // racing reader
    }
  });
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hits"), std::uint64_t(kWriters) * kPerWriter);
  EXPECT_EQ(snap.histograms.at("lat").total,
            std::uint64_t(kWriters) * kPerWriter);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t c : snap.histograms.at("lat").counts)
    bucket_sum += c;
  EXPECT_EQ(bucket_sum, std::uint64_t(kWriters) * kPerWriter);
}

TEST(ObsConcurrency, SnapshotsAreJobsIndependent) {
  auto publish = [](int jobs) {
    Registry reg;
    Counter ops = reg.counter("ops");
    Histogram h = reg.histogram("h", {4.0, 16.0});
    parallel_for(jobs, 32, [&](int i) {
      ops.inc(std::uint64_t(i));
      h.observe(double(i));
    });
    return reg.snapshot();
  };
  const Snapshot serial = publish(1);
  const Snapshot pooled = publish(4);
  EXPECT_EQ(serial.counters.at("ops"), pooled.counters.at("ops"));
  EXPECT_EQ(serial.histograms.at("h").counts,
            pooled.histograms.at("h").counts);
  EXPECT_EQ(serial.histograms.at("h").sum, pooled.histograms.at("h").sum);
  EXPECT_EQ(serial.to_json().dump(), pooled.to_json().dump());
}

}  // namespace
}  // namespace lmo::obs
