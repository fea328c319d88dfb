#include "core/params_io.hpp"

#include <limits>
#include <vector>

#include "util/error.hpp"

namespace lmo::core {

namespace {
using obs::Json;
using obs::JsonField;

Json table_json(const models::PairTable& t) {
  Json rows = Json::array();
  for (int i = 0; i < t.size(); ++i) {
    Json row = Json::array();
    for (int j = 0; j < t.size(); ++j) row.push_back(t(i, j));
    rows.push_back(std::move(row));
  }
  return rows;
}

Json params_json(const LmoParams& params) {
  Json out = Json::object();
  out["size"] = params.size();
  Json c = Json::array(), t = Json::array();
  for (const double v : params.C) c.push_back(v);
  for (const double v : params.t) t.push_back(v);
  out["C"] = std::move(c);
  out["t"] = std::move(t);
  out["L"] = table_json(params.L);
  out["inv_beta"] = table_json(params.inv_beta);
  return out;
}

Json empirical_json(const GatherEmpirical& emp) {
  Json out = Json::object();
  out["m1"] = emp.m1;
  out["m2"] = emp.m2;
  Json modes = Json::array();
  for (const stats::Mode& m : emp.escalation_modes) {
    Json e = Json::object();
    e["value"] = m.value;
    e["count"] = m.count;
    e["frequency"] = m.frequency;
    modes.push_back(std::move(e));
  }
  out["escalation_modes"] = std::move(modes);
  out["linear_prob_at_m1"] = emp.linear_prob_at_m1;
  out["linear_prob_at_m2"] = emp.linear_prob_at_m2;
  return out;
}

/// Delays, latencies and inverse rates: a negative one is no model.
double term(const JsonField& f) {
  const double v = f.number();
  if (v < 0.0) f.fail("= " + Json(v).dump() + " is negative");
  return v;
}

std::vector<double> terms(const JsonField& row, int n) {
  row.expect_size(std::size_t(n));
  std::vector<double> out(row.size());
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = term(row[j]);
  return out;
}

/// n x n rows; the diagonal must be a valid term but is not kept.
models::PairTable table_from_json(const JsonField& rows, int n) {
  rows.expect_size(std::size_t(n));
  models::PairTable t(n);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> row = terms(rows[std::size_t(i)], n);
    for (int j = 0; j < n; ++j)
      if (j != i) t(i, j) = row[std::size_t(j)];
  }
  return t;
}
}  // namespace

Json model_json(const LmoParams& params, const GatherEmpirical& emp) {
  params.validate();
  Json out = Json::object();
  out["schema"] = "lmo.model/1";
  out["lmo"] = params_json(params);
  out["gather_empirical"] = empirical_json(emp);
  return out;
}

LoadedParams model_from_json(const Json& doc) {
  const JsonField root(doc, "model");
  const std::string_view schema = root["schema"].string();
  if (schema != "lmo.model/1")
    root["schema"].fail("= '" + std::string(schema) +
                        "', expected 'lmo.model/1'");

  LoadedParams out;
  LmoParams& p = out.params;
  const JsonField lmo = root["lmo"];
  // Sized by the C row before any n x n table is allocated, so n is
  // bounded by the document itself.
  const int n = int(lmo["size"].integer(2, std::numeric_limits<int>::max()));
  p.C = terms(lmo["C"], n);
  p.t = terms(lmo["t"], n);
  p.L = table_from_json(lmo["L"], n);
  p.inv_beta = table_from_json(lmo["inv_beta"], n);

  GatherEmpirical& emp = out.empirical;
  const JsonField ge = root["gather_empirical"];
  emp.m1 = ge["m1"].integer(0);
  emp.m2 = ge["m2"].integer(0);
  const JsonField modes = ge["escalation_modes"];
  for (std::size_t k = 0; k < modes.size(); ++k) {
    const JsonField mode = modes[k];
    emp.escalation_modes.push_back({term(mode["value"]),
                                    std::size_t(mode["count"].integer(0)),
                                    term(mode["frequency"])});
  }
  emp.linear_prob_at_m1 = ge["linear_prob_at_m1"].number();
  emp.linear_prob_at_m2 = ge["linear_prob_at_m2"].number();
  return out;
}

void save_params(const LmoParams& params, const GatherEmpirical& emp,
                 const std::string& path) {
  obs::save_json(model_json(params, emp), path);
}

LoadedParams load_params(const std::string& path) {
  const Json doc = obs::load_json(path, "lmo_tool estimate");
  try {
    return model_from_json(doc);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace lmo::core
