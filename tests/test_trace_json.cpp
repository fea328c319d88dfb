// Tests for the Chrome-trace export of message traces.
#include <gtest/gtest.h>

#include <sstream>

#include "coll/collectives.hpp"
#include "obs/json.hpp"
#include "simnet/cluster.hpp"
#include "vmpi/trace_json.hpp"
#include "vmpi/world.hpp"

namespace lmo::vmpi {
namespace {

std::vector<MessageTrace> sample_trace() {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  World w(cfg);
  w.set_tracing(true);
  w.run(coll::spmd(w.size(), [](Comm& c) {
    return coll::linear_scatter(c, 0, 2048);
  }));
  return w.trace();
}

/// Events of one phase ("X", "M", ...) from a parsed trace document.
std::vector<const obs::Json*> events_of(const obs::Json& doc,
                                        const std::string& ph) {
  std::vector<const obs::Json*> out;
  for (const obs::Json& e : doc.at("traceEvents").items())
    if (e.at("ph").as_string() == ph) out.push_back(&e);
  return out;
}

obs::Json parsed(const obs::TraceSink& sink) {
  std::ostringstream os;
  sink.write(os);
  return obs::Json::parse(os.str());
}

/// `trace` alone on a fresh sink, as the written document parses back.
obs::Json chrome_doc(const std::vector<MessageTrace>& trace) {
  obs::TraceSink sink;
  append_chrome_trace(sink, trace);
  return parsed(sink);
}

TEST(TraceJson, ObjectFormParsesBack) {
  const auto trace = sample_trace();
  const obs::Json doc = chrome_doc(trace);
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());

  const auto complete = events_of(doc, "X");
  EXPECT_EQ(complete.size(), 2 * trace.size());
  bool saw_transfer = false, saw_recv = false;
  for (const obs::Json* e : complete) {
    const std::string_view name = e->at("name").as_string();
    saw_transfer |= name.rfind("transfer ", 0) == 0;
    saw_recv |= name.rfind("recv ", 0) == 0;
    EXPECT_EQ(e->at("pid").as_int(), obs::kSimPid);
    EXPECT_GE(e->at("dur").as_double(), 0.0);
    EXPECT_EQ(e->at("args").at("bytes").as_int(), 2048);
    EXPECT_FALSE(e->at("args").at("rendezvous").as_bool());
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_recv);
}

TEST(TraceJson, MetadataLabelsRankTracks) {
  const auto trace = sample_trace();
  const obs::Json doc = chrome_doc(trace);
  bool process_named = false, rank0_named = false;
  for (const obs::Json* e : events_of(doc, "M")) {
    const std::string_view kind = e->at("name").as_string();
    const std::string_view label = e->at("args").at("name").as_string();
    if (kind == "process_name" && e->at("pid").as_int() == obs::kSimPid)
      process_named = true;
    if (kind == "thread_name" && e->at("tid").as_int() == 0)
      rank0_named = label == "rank 0";
  }
  EXPECT_TRUE(process_named);
  EXPECT_TRUE(rank0_named);
}

TEST(TraceJson, EmptyTraceIsValidEmptyDocument) {
  const obs::Json doc = chrome_doc({});
  EXPECT_EQ(events_of(doc, "X").size(), 0u);
}

TEST(TraceJson, DurationsNonNegativeAndOrdered) {
  const auto trace = sample_trace();
  for (const auto& m : trace) {
    EXPECT_LE(m.send_post, m.arrival);
    EXPECT_LE(m.arrival, m.recv_complete);
  }
}

TEST(TraceJson, SessionSinkStreamsRuns) {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  World w(cfg);
  obs::TraceSink sink;
  w.set_trace_sink(&sink);
  const auto program = coll::spmd(w.size(), [](Comm& c) {
    return coll::linear_scatter(c, 0, 2048);
  });
  w.run(program);
  const std::size_t after_one = events_of(parsed(sink), "X").size();
  EXPECT_EQ(after_one, 2 * w.trace().size());
  w.run(program);
  // The sink accumulates across runs.
  EXPECT_EQ(events_of(parsed(sink), "X").size(), 2 * after_one);
}

}  // namespace
}  // namespace lmo::vmpi
