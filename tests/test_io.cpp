// Round-trip tests for the config and parameter serializers.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/params_io.hpp"
#include "core/predictions.hpp"
#include "simnet/config_io.hpp"
#include "util/error.hpp"

namespace lmo {
namespace {

TEST(ClusterIo, RoundTripPaperCluster) {
  const auto cfg = sim::make_paper_cluster(42);
  const auto back = sim::cluster_from_text(sim::to_text(cfg));
  ASSERT_EQ(back.size(), cfg.size());
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_DOUBLE_EQ(back.switch_latency_s, cfg.switch_latency_s);
  EXPECT_DOUBLE_EQ(back.noise_rel, cfg.noise_rel);
  EXPECT_EQ(back.quirks.enabled, cfg.quirks.enabled);
  EXPECT_EQ(back.quirks.rendezvous_threshold, cfg.quirks.rendezvous_threshold);
  EXPECT_EQ(back.quirks.escalation_values_s, cfg.quirks.escalation_values_s);
  EXPECT_EQ(back.quirks.escalation_weights, cfg.quirks.escalation_weights);
  for (int i = 0; i < cfg.size(); ++i) {
    EXPECT_EQ(back.nodes[std::size_t(i)].label, cfg.nodes[std::size_t(i)].label);
    EXPECT_EQ(back.nodes[std::size_t(i)].type, cfg.nodes[std::size_t(i)].type);
    EXPECT_DOUBLE_EQ(back.nodes[std::size_t(i)].fixed_delay_s,
                     cfg.nodes[std::size_t(i)].fixed_delay_s);
    EXPECT_DOUBLE_EQ(back.nodes[std::size_t(i)].per_byte_s,
                     cfg.nodes[std::size_t(i)].per_byte_s);
    EXPECT_DOUBLE_EQ(back.nodes[std::size_t(i)].link_rate_bps,
                     cfg.nodes[std::size_t(i)].link_rate_bps);
    EXPECT_DOUBLE_EQ(back.nodes[std::size_t(i)].latency_s,
                     cfg.nodes[std::size_t(i)].latency_s);
  }
}

TEST(ClusterIo, CommentsAndBlankLinesIgnored) {
  const auto cfg = sim::make_random_cluster(3, 9);
  std::string text = "# a comment\n\n" + sim::to_text(cfg) + "\n# tail\n";
  const auto back = sim::cluster_from_text(text);
  EXPECT_EQ(back.size(), 3);
}

TEST(ClusterIo, RejectsMalformedInput) {
  EXPECT_THROW((void)sim::cluster_from_text("[cluster]\nnonsense"), Error);
  EXPECT_THROW((void)sim::cluster_from_text("[cluster]\nbogus_key = 1\n"),
               Error);
  EXPECT_THROW(
      (void)sim::cluster_from_text("[cluster]\nnoise_rel = not_a_number\n"),
      Error);
  // Too few nodes fails validation.
  EXPECT_THROW((void)sim::cluster_from_text("[cluster]\nseed = 1\n"), Error);
}

TEST(ClusterIo, FileRoundTrip) {
  const auto cfg = sim::make_random_cluster(4, 77);
  const std::string path = "/tmp/lmo_test_cluster.cfg";
  sim::save_cluster(cfg, path);
  const auto back = sim::load_cluster(path);
  EXPECT_EQ(back.size(), 4);
  EXPECT_DOUBLE_EQ(back.nodes[2].per_byte_s, cfg.nodes[2].per_byte_s);
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

TEST(ParamsIo, RoundTripLmoParams) {
  const auto p = sample_params(5);
  const auto back = core::lmo_params_from_text(core::to_text(p));
  ASSERT_EQ(back.size(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(back.C[std::size_t(i)], p.C[std::size_t(i)]);
    EXPECT_DOUBLE_EQ(back.t[std::size_t(i)], p.t[std::size_t(i)]);
    for (int j = 0; j < 5; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(back.L(i, j), p.L(i, j));
      EXPECT_DOUBLE_EQ(back.inv_beta(i, j), p.inv_beta(i, j));
    }
  }
  // Predictions from the round-tripped model are bit-identical.
  EXPECT_DOUBLE_EQ(core::linear_scatter_time(back, 0, 4096),
                   core::linear_scatter_time(p, 0, 4096));
}

TEST(ParamsIo, RoundTripEmpirical) {
  core::GatherEmpirical emp;
  emp.m1 = 4096;
  emp.m2 = 81920;
  emp.linear_prob_at_m1 = 0.9;
  emp.linear_prob_at_m2 = 0.4;
  emp.escalation_modes = {{0.05, 12, 0.5}, {0.2, 6, 0.25}};
  const auto back = core::gather_empirical_from_text(core::to_text(emp));
  EXPECT_EQ(back.m1, emp.m1);
  EXPECT_EQ(back.m2, emp.m2);
  ASSERT_EQ(back.escalation_modes.size(), 2u);
  EXPECT_DOUBLE_EQ(back.escalation_modes[1].value, 0.2);
  EXPECT_EQ(back.escalation_modes[1].count, 6u);
  EXPECT_DOUBLE_EQ(back.linear_probability(emp.m1 + (emp.m2 - emp.m1) / 2),
                   emp.linear_probability(emp.m1 + (emp.m2 - emp.m1) / 2));
}

TEST(ParamsIo, CombinedFileRoundTrip) {
  const auto p = sample_params(4);
  core::GatherEmpirical emp;
  emp.m1 = 1000;
  emp.m2 = 2000;
  const std::string path = "/tmp/lmo_test_params.cfg";
  core::save_params(p, emp, path);
  const auto loaded = core::load_params(path);
  EXPECT_EQ(loaded.params.size(), 4);
  EXPECT_EQ(loaded.empirical.m1, 1000);
  EXPECT_EQ(loaded.empirical.m2, 2000);
  std::remove(path.c_str());
}

TEST(ParamsIo, RejectsMalformed) {
  EXPECT_THROW((void)core::lmo_params_from_text("C = 1, 2\n"), Error);
  EXPECT_THROW((void)core::lmo_params_from_text("[lmo]\nsize = 1\n"), Error);
  const auto p = sample_params(3);
  std::string text = core::to_text(p);
  text += "unknown_key = 1, 2, 3\n";
  EXPECT_THROW((void)core::lmo_params_from_text(text), Error);
}

TEST(ParamsIo, RejectsHostileNumbersNamingTheLine) {
  // A two-rank model whose rows are overridden one at a time: line 3 is C,
  // 4 is t, 5 is L's first row, 6 is inv_beta's first row.
  auto model = [](const char* c, const char* t, const char* l,
                  const char* b) {
    return std::string("[lmo]\nsize = 2\n") + "C = " + c + "\nt = " + t +
           "\nL = " + l + "\ninv_beta = " + b +
           "\nL = 1e-5, 0\ninv_beta = 1e-8, 0\n";
  };
  const char* c = "1e-5, 2e-5";
  const char* t = "5e-8, 6e-8";
  const char* l = "0, 1e-5";
  const char* b = "0, 1e-8";
  ASSERT_EQ(core::lmo_params_from_text(model(c, t, l, b)).size(), 2);
  auto expect_named = [](const std::string& text, const std::string& what) {
    try {
      (void)core::lmo_params_from_text(text);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_named(model("1e999, 2e-5", t, l, b), "line 3: number out of range");
  expect_named(model(c, "nan, 6e-8", l, b), "line 4: non-finite number");
  expect_named(model(c, t, "0, inf", b), "line 5: non-finite number");
  expect_named(model(c, t, l, "0, -1e-8"), "line 6: inv_beta value 1");
  expect_named(model("-1e-5, 2e-5", t, l, b), "line 3: C value 0");
  expect_named(model("1e-5x, 2e-5", t, l, b), "line 3: bad number");
}

}  // namespace
}  // namespace lmo
