#include "obs/exposition.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace lmo::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_line(std::string& out, const std::string& name,
                 const std::string& value) {
  out += name;
  out += ' ';
  out += value;
  out += '\n';
}

constexpr const char* kPrefix = "lmo_";

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

std::string render_prometheus(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = kPrefix + prometheus_name(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    append_line(out, n, std::to_string(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = kPrefix + prometheus_name(name);
    out += "# TYPE " + n + " gauge\n";
    append_line(out, n, fmt_double(value));
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string n = kPrefix + prometheus_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      cum += i < hist.counts.size() ? hist.counts[i] : 0;
      append_line(out,
                  n + "_bucket{le=\"" + fmt_double(hist.bounds[i]) + "\"}",
                  std::to_string(cum));
    }
    append_line(out, n + "_bucket{le=\"+Inf\"}", std::to_string(hist.total));
    append_line(out, n + "_sum", fmt_double(hist.sum));
    append_line(out, n + "_count", std::to_string(hist.total));
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "_p50"},
          {0.95, "_p95"},
          {0.99, "_p99"}}) {
      out += "# TYPE " + n + label + " gauge\n";
      append_line(out, n + label, fmt_double(hist.quantile(q)));
    }
  }
  return out;
}

void write_prometheus(const std::string& path) {
  replace_file(path, render_prometheus(Registry::global().snapshot()));
}

}  // namespace lmo::obs
