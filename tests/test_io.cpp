// Round-trip tests for the config and parameter serializers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/params_io.hpp"
#include "core/predictions.hpp"
#include "simnet/config_io.hpp"
#include "util/error.hpp"

namespace lmo {
namespace {

/// Runs `read` and expects an lmo::Error whose message contains `needle`.
template <typename Read>
void expect_error_naming(Read read, const std::string& needle) {
  try {
    read();
    ADD_FAILURE() << "accepted; expected an error naming " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

sim::ClusterConfig through_json(const sim::ClusterConfig& cfg) {
  return sim::cluster_from_json(obs::Json::parse(sim::to_json(cfg).dump(2)));
}

TEST(ClusterIo, RoundTripPaperCluster) {
  const auto cfg = sim::make_paper_cluster(42);
  const auto back = through_json(cfg);
  ASSERT_EQ(back.size(), cfg.size());
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.switch_latency_s, cfg.switch_latency_s);
  EXPECT_EQ(back.noise_rel, cfg.noise_rel);
  EXPECT_EQ(back.quirks.enabled, cfg.quirks.enabled);
  EXPECT_EQ(back.quirks.rendezvous_threshold, cfg.quirks.rendezvous_threshold);
  EXPECT_EQ(back.quirks.escalation_values_s, cfg.quirks.escalation_values_s);
  EXPECT_EQ(back.quirks.escalation_weights, cfg.quirks.escalation_weights);
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].label, cfg.nodes[i].label);
    EXPECT_EQ(back.nodes[i].type, cfg.nodes[i].type);
    EXPECT_EQ(back.nodes[i].fixed_delay_s, cfg.nodes[i].fixed_delay_s);
    EXPECT_EQ(back.nodes[i].per_byte_s, cfg.nodes[i].per_byte_s);
    EXPECT_EQ(back.nodes[i].link_rate_bps, cfg.nodes[i].link_rate_bps);
    EXPECT_EQ(back.nodes[i].latency_s, cfg.nodes[i].latency_s);
  }
}

TEST(ClusterIo, RefusesTheRemovedTextFormat) {
  const std::string path = ::testing::TempDir() + "lmo_v1_cluster.cfg";
  write_file(path, "# a v1 config\n[cluster]\nseed = 1\n[node]\nlabel = a\n");
  expect_error_naming([&] { (void)sim::load_cluster(path); }, path);
  expect_error_naming([&] { (void)sim::load_cluster(path); },
                      "`key = value` text format was removed");
  expect_error_naming([&] { (void)sim::load_cluster(path); },
                      "lmo_tool make-cluster");
  // Blank lines before the document are fine.
  write_file(path, "\n\n  " + sim::to_json(sim::make_random_cluster(3, 9))
                                  .dump(2));
  EXPECT_EQ(sim::load_cluster(path).size(), 3);
  std::remove(path.c_str());
}

TEST(ClusterIo, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    return [text] { (void)sim::cluster_from_json(obs::Json::parse(text)); };
  };
  expect_error_naming(parse("[]"), "document root must be a JSON object");
  expect_error_naming(parse("{}"), "missing field 'schema'");
  expect_error_naming(parse(R"({"schema": "lmo.cluster/1"})"),
                      "expected 'lmo.cluster/2'");
  obs::Json doc = sim::to_json(sim::make_random_cluster(3, 9));
  doc["cluster"]["noise_rel"] = "not_a_number";
  expect_error_naming(parse(doc.dump()),
                      "field 'cluster.noise_rel' must be a number");
  // Too few nodes fails validation.
  doc = sim::to_json(sim::make_random_cluster(3, 9));
  obs::Json one = obs::Json::array();
  one.push_back(doc.at("nodes")[0]);
  doc["nodes"] = std::move(one);
  expect_error_naming(parse(doc.dump()), "at least two nodes");
}

TEST(ClusterIo, FileRoundTrip) {
  const auto cfg = sim::make_random_cluster(4, 77);
  const std::string path = ::testing::TempDir() + "lmo_test_cluster.json";
  sim::save_cluster(cfg, path);
  const auto back = sim::load_cluster(path);
  EXPECT_EQ(back.size(), 4);
  EXPECT_EQ(back.nodes[2].per_byte_s, cfg.nodes[2].per_byte_s);
  std::remove(path.c_str());
  EXPECT_THROW((void)sim::load_cluster(path), Error);
}

core::LmoParams sample_params(int n) {
  core::LmoParams p;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i) {
    p.C.push_back(10e-6 * (i + 1));
    p.t.push_back(50e-9 * (i + 1));
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      p.L(i, j) = 1e-6 * (10 * i + j + 1);
      p.inv_beta(i, j) = 1e-9 * (5 * i + j + 2);
    }
  }
  return p;
}

core::LoadedParams through_json(const core::LmoParams& p,
                                const core::GatherEmpirical& emp) {
  return core::model_from_json(
      obs::Json::parse(core::model_json(p, emp).dump(2)));
}

TEST(ParamsIo, RoundTripLmoParams) {
  const auto p = sample_params(5);
  const auto back = through_json(p, {}).params;
  ASSERT_EQ(back.size(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back.C[std::size_t(i)], p.C[std::size_t(i)]);
    EXPECT_EQ(back.t[std::size_t(i)], p.t[std::size_t(i)]);
    for (int j = 0; j < 5; ++j) {
      if (i == j) continue;
      EXPECT_EQ(back.L(i, j), p.L(i, j));
      EXPECT_EQ(back.inv_beta(i, j), p.inv_beta(i, j));
    }
  }
  // Predictions from the round-tripped model are bit-identical.
  EXPECT_EQ(core::linear_scatter_time(back, 0, 4096),
            core::linear_scatter_time(p, 0, 4096));
}

TEST(ParamsIo, RoundTripEmpirical) {
  core::GatherEmpirical emp;
  emp.m1 = 4096;
  emp.m2 = 81920;
  emp.linear_prob_at_m1 = 0.9;
  emp.linear_prob_at_m2 = 0.4;
  emp.escalation_modes = {{0.05, 12, 0.5}, {0.2, 6, 0.25}};
  const auto back = through_json(sample_params(2), emp).empirical;
  EXPECT_EQ(back.m1, emp.m1);
  EXPECT_EQ(back.m2, emp.m2);
  EXPECT_EQ(back.linear_prob_at_m1, emp.linear_prob_at_m1);
  EXPECT_EQ(back.linear_prob_at_m2, emp.linear_prob_at_m2);
  ASSERT_EQ(back.escalation_modes.size(), 2u);
  EXPECT_EQ(back.escalation_modes[1].value, 0.2);
  EXPECT_EQ(back.escalation_modes[1].count, 6u);
  EXPECT_EQ(back.escalation_modes[1].frequency, 0.25);
  EXPECT_EQ(back.linear_probability(emp.m1 + (emp.m2 - emp.m1) / 2),
            emp.linear_probability(emp.m1 + (emp.m2 - emp.m1) / 2));
}

TEST(ParamsIo, CombinedFileRoundTrip) {
  const auto p = sample_params(4);
  core::GatherEmpirical emp;
  emp.m1 = 1000;
  emp.m2 = 2000;
  const std::string path = ::testing::TempDir() + "lmo_test_params.json";
  core::save_params(p, emp, path);
  const auto loaded = core::load_params(path);
  EXPECT_EQ(loaded.params.size(), 4);
  EXPECT_EQ(loaded.empirical.m1, 1000);
  EXPECT_EQ(loaded.empirical.m2, 2000);
  // A model in the removed text format is refused, naming the path and
  // the command that regenerates it.
  write_file(path, "[lmo]\nsize = abc\n");
  expect_error_naming([&] { (void)core::load_params(path); }, path);
  expect_error_naming([&] { (void)core::load_params(path); },
                      "lmo_tool estimate");
  std::remove(path.c_str());
}

TEST(ParamsIo, RejectsMalformed) {
  const obs::Json valid = core::model_json(sample_params(3), {});
  auto without = [&](const char* section) {
    obs::Json doc = obs::Json::object();
    for (const auto& [key, value] : valid.entries())
      if (key.as_string() != section) doc[key.as_string()] = value;
    return [doc] { (void)core::model_from_json(doc); };
  };
  expect_error_naming(without("gather_empirical"),
                      "missing field 'gather_empirical'");
  expect_error_naming(without("lmo"), "missing field 'lmo'");
  expect_error_naming(without("schema"), "missing field 'schema'");
  obs::Json doc = valid;
  doc["schema"] = "lmo.model/0";
  expect_error_naming([&] { (void)core::model_from_json(doc); },
                      "expected 'lmo.model/1'");
  doc = valid;
  doc["lmo"]["size"] = 1;
  expect_error_naming([&] { (void)core::model_from_json(doc); },
                      "field 'lmo.size' = 1, must be in [2,");
  doc = valid;
  doc["lmo"]["size"] = 4;
  expect_error_naming([&] { (void)core::model_from_json(doc); },
                      "field 'lmo.C' has 3 entries, expected 4");
}

TEST(ParamsIo, RejectsHostileNumbersNamingTheField) {
  // A two-rank model whose C, t, first L and inv_beta rows and escalation
  // modes are overridden one at a time.
  auto model = [](const char* c, const char* t, const char* l, const char* b,
                  const char* modes) {
    return std::string(R"({"schema": "lmo.model/1", "lmo": {"size": 2, )") +
           R"("C": [)" + c + R"(], "t": [)" + t + R"(], "L": [)" + l +
           R"(, [1e-5, 0]], "inv_beta": [)" + b + R"(, [1e-8, 0]]}, )" +
           R"("gather_empirical": {"m1": 4096, "m2": 65536, )" +
           R"("escalation_modes": [)" + modes +
           R"(], "linear_prob_at_m1": 1, "linear_prob_at_m2": 1}})";
  };
  const char* c = "1e-5, 2e-5";
  const char* t = "5e-8, 6e-8";
  const char* l = "[0, 1e-5]";
  const char* b = "[0, 1e-8]";
  const char* modes = R"({"value": 0.05, "count": 3, "frequency": 1})";
  ASSERT_EQ(
      core::model_from_json(obs::Json::parse(model(c, t, l, b, modes)))
          .params.size(),
      2);
  auto expect_named = [](const std::string& text, const std::string& what) {
    expect_error_naming(
        [&] { (void)core::model_from_json(obs::Json::parse(text)); }, what);
  };
  expect_named(model("1e999, 2e-5", t, l, b, modes),
               "field 'lmo.C[0]' = inf is not finite");
  expect_named(model("-1e-5, 2e-5", t, l, b, modes),
               "field 'lmo.C[0]' = -1e-05 is negative");
  expect_named(model(c, R"(5e-8, "x")", l, b, modes),
               "field 'lmo.t[1]' must be a number");
  expect_named(model(c, t, "[0, -1e-5]", b, modes),
               "field 'lmo.L[0][1]' = -1e-05 is negative");
  expect_named(model(c, t, l, "[0]", modes),
               "field 'lmo.inv_beta[0]' has 1 entries, expected 2");
  expect_named(model(c, t, l, b, R"({"value": 0.05, "count": -5,
                                     "frequency": 1})"),
               "field 'gather_empirical.escalation_modes[0].count' = -5");
  expect_named(model(c, t, l, b, R"({"value": 0.05, "count": 0.5,
                                     "frequency": 1})"),
               "field 'gather_empirical.escalation_modes[0].count' = 0.5 "
               "is not an int64 integer");
  expect_named(model(c, t, l, b, R"({"value": 0.05, "count": 1e300,
                                     "frequency": 1})"),
               "field 'gather_empirical.escalation_modes[0].count'");
}

}  // namespace
}  // namespace lmo
