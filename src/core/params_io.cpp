#include "core/params_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace lmo::core {

namespace {
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Comma-separated finite numbers; anything else (a malformed cell,
/// trailing text, a value out of double's range, nan or inf) throws
/// lmo::Error naming the line and the cell.
std::vector<double> parse_row(const std::string& value, int lineno) {
  std::vector<double> row;
  std::istringstream is(value);
  std::string cell;
  while (std::getline(is, cell, ',')) {
    const std::string text = trim(cell);
    const auto bad = [&](const char* why) {
      return Error("params line " + std::to_string(lineno) + ": " + why +
                   " '" + text + "'");
    };
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &used);
    } catch (const std::invalid_argument&) {
      throw bad("bad number");
    } catch (const std::out_of_range&) {
      throw bad("number out of range");
    }
    if (used != text.size()) throw bad("bad number");
    if (!std::isfinite(v)) throw bad("non-finite number");
    row.push_back(v);
  }
  return row;
}

void emit_row(std::ostringstream& os, const char* key,
              const std::vector<double>& row) {
  os << key << " = ";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) os << ", ";
    os << row[i];
  }
  os << "\n";
}
}  // namespace

std::string to_text(const LmoParams& params) {
  params.validate();
  const int n = params.size();
  std::ostringstream os;
  os.precision(17);
  os << "[lmo]\n";
  os << "size = " << n << "\n";
  emit_row(os, "C", params.C);
  emit_row(os, "t", params.t);
  for (int i = 0; i < n; ++i) {
    std::vector<double> lrow, brow;
    for (int j = 0; j < n; ++j) {
      lrow.push_back(i == j ? 0.0 : params.L(i, j));
      brow.push_back(i == j ? 0.0 : params.inv_beta(i, j));
    }
    emit_row(os, "L", lrow);
    emit_row(os, "inv_beta", brow);
  }
  return os.str();
}

LmoParams lmo_params_from_text(const std::string& text) {
  LmoParams p;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  int n = -1;
  int l_rows = 0, b_rows = 0;
  while (std::getline(is, line)) {
    ++lineno;
    line = trim(line);
    if (line.empty() || line[0] == '#' || line[0] == '[') continue;
    const auto eq = line.find('=');
    LMO_CHECK_MSG(eq != std::string::npos,
                  "params line " + std::to_string(lineno) + ": missing '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "size") {
      n = std::stoi(value);
      LMO_CHECK_MSG(n >= 2, "params: size must be >= 2");
      p.L = models::PairTable(n);
      p.inv_beta = models::PairTable(n);
      continue;
    }
    LMO_CHECK_MSG(n > 0, "params: 'size' must come first");
    const auto row = parse_row(value, lineno);
    LMO_CHECK_MSG(int(row.size()) == n,
                  "params line " + std::to_string(lineno) + ": expected " +
                      std::to_string(n) + " values");
    // Delays, latencies and inverse rates: a negative one is no model.
    for (std::size_t j = 0; j < row.size(); ++j)
      LMO_CHECK_MSG(row[j] >= 0.0, "params line " + std::to_string(lineno) +
                                       ": " + key + " value " +
                                       std::to_string(j) + " is negative");
    if (key == "C") {
      p.C = row;
    } else if (key == "t") {
      p.t = row;
    } else if (key == "L") {
      LMO_CHECK_MSG(l_rows < n, "params: too many L rows");
      for (int j = 0; j < n; ++j)
        if (j != l_rows) p.L(l_rows, j) = row[std::size_t(j)];
      ++l_rows;
    } else if (key == "inv_beta") {
      LMO_CHECK_MSG(b_rows < n, "params: too many inv_beta rows");
      for (int j = 0; j < n; ++j)
        if (j != b_rows) p.inv_beta(b_rows, j) = row[std::size_t(j)];
      ++b_rows;
    } else {
      LMO_CHECK_MSG(false, "params: unknown key " + key);
    }
  }
  LMO_CHECK_MSG(l_rows == n && b_rows == n, "params: missing matrix rows");
  p.validate();
  return p;
}

std::string to_text(const GatherEmpirical& emp) {
  std::ostringstream os;
  os.precision(17);
  os << "[gather_empirical]\n";
  os << "m1 = " << emp.m1 << "\n";
  os << "m2 = " << emp.m2 << "\n";
  os << "linear_prob_at_m1 = " << emp.linear_prob_at_m1 << "\n";
  os << "linear_prob_at_m2 = " << emp.linear_prob_at_m2 << "\n";
  for (const auto& mode : emp.escalation_modes)
    os << "mode = " << mode.value << ", " << mode.count << ", "
       << mode.frequency << "\n";
  return os.str();
}

GatherEmpirical gather_empirical_from_text(const std::string& text) {
  GatherEmpirical emp;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    line = trim(line);
    if (line.empty() || line[0] == '#' || line[0] == '[') continue;
    const auto eq = line.find('=');
    LMO_CHECK_MSG(eq != std::string::npos,
                  "empirical line " + std::to_string(lineno) + ": missing '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "m1") emp.m1 = std::stoll(value);
    else if (key == "m2") emp.m2 = std::stoll(value);
    else if (key == "linear_prob_at_m1") emp.linear_prob_at_m1 = std::stod(value);
    else if (key == "linear_prob_at_m2") emp.linear_prob_at_m2 = std::stod(value);
    else if (key == "mode") {
      const auto row = parse_row(value, lineno);
      LMO_CHECK_MSG(row.size() == 3, "empirical: mode needs 3 values");
      emp.escalation_modes.push_back(
          {row[0], std::size_t(row[1]), row[2]});
    } else {
      LMO_CHECK_MSG(false, "empirical: unknown key " + key);
    }
  }
  return emp;
}

void save_params(const LmoParams& params, const GatherEmpirical& emp,
                 const std::string& path) {
  std::ofstream os(path);
  LMO_CHECK_MSG(os.good(), "cannot open " + path + " for writing");
  os << to_text(params) << to_text(emp);
  LMO_CHECK_MSG(os.good(), "write failed: " + path);
}

LoadedParams load_params(const std::string& path) {
  std::ifstream is(path);
  LMO_CHECK_MSG(is.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  // Split at the [gather_empirical] header; the first part is the model.
  const auto pos = text.find("[gather_empirical]");
  LoadedParams out;
  out.params = lmo_params_from_text(
      pos == std::string::npos ? text : text.substr(0, pos));
  if (pos != std::string::npos)
    out.empirical = gather_empirical_from_text(text.substr(pos));
  return out;
}

namespace {
obs::Json table_json(const models::PairTable& t) {
  obs::Json rows = obs::Json::array();
  for (int i = 0; i < t.size(); ++i) {
    obs::Json row = obs::Json::array();
    for (int j = 0; j < t.size(); ++j) row.push_back(t(i, j));
    rows.push_back(std::move(row));
  }
  return rows;
}
}  // namespace

obs::Json params_json(const LmoParams& params) {
  obs::Json out = obs::Json::object();
  out["size"] = params.size();
  obs::Json c = obs::Json::array(), t = obs::Json::array();
  for (const double v : params.C) c.push_back(v);
  for (const double v : params.t) t.push_back(v);
  out["C"] = std::move(c);
  out["t"] = std::move(t);
  out["L"] = table_json(params.L);
  out["inv_beta"] = table_json(params.inv_beta);
  return out;
}

obs::Json empirical_json(const GatherEmpirical& emp) {
  obs::Json out = obs::Json::object();
  out["m1"] = emp.m1;
  out["m2"] = emp.m2;
  obs::Json modes = obs::Json::array();
  for (const stats::Mode& m : emp.escalation_modes) {
    obs::Json e = obs::Json::object();
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

}  // namespace lmo::core
