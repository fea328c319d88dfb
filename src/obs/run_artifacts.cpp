#include "obs/run_artifacts.hpp"

#include <iostream>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lmo::obs {

RunArtifacts::RunArtifacts(const Cli& cli, std::string tool)
    : report_path_(cli.get("report", "")),
      trace_path_(cli.get("trace", "")),
      fidelity_path_(cli.get("fidelity-save", "")),
      baseline_path_(cli.get("fidelity-baseline", "")),
      flight_path_(cli.get("flight-dump", "")),
      metrics_path_(cli.get("metrics-out", "")) {
  if (!trace_path_.empty()) set_global_trace_enabled(true);
  if (!report_path_.empty())
    report_ = std::make_unique<ReportBuilder>(std::move(tool));
  // Record-only: neither the tracker nor the recorder changes an estimate.
  if (report_ || !fidelity_path_.empty() || !baseline_path_.empty()) {
    residuals_ = std::make_unique<ResidualTracker>();
    set_global_residuals(residuals_.get());
  }
  if (!flight_path_.empty()) flight_ = std::make_unique<FlightRecorder>();
}

RunArtifacts::~RunArtifacts() {
  if (residuals_) set_global_residuals(nullptr);
}

int RunArtifacts::finish() {
  if (report_) {
    if (residuals_->recorded() > 0)
      report_->set("fidelity", residuals_->to_json());
    if (flight_ && flight_->has_dump())
      report_->set("flight", flight_->to_json());
    report_->set("degradation",
                 degradation_json(Registry::global().snapshot()));
    report_->write(report_path_);
    std::cout << "\nreport: " << report_path_ << "\n";
  }
  if (!fidelity_path_.empty()) {
    residuals_->save(fidelity_path_);
    std::cout << "fidelity: " << fidelity_path_ << "\n";
  }
  int rc = 0;
  if (!baseline_path_.empty()) {
    // fidelity_drift's bounds are generous against the deterministic
    // simulator: a trip means the models really changed.
    const Json current = residuals_->to_json();
    for (const std::string& f :
         fidelity_drift(load_fidelity(baseline_path_), current)) {
      std::cout << "fidelity-baseline: FAIL " << f << "\n";
      rc = 1;
    }
    if (rc == 0)
      std::cout << "fidelity-baseline: OK (" << current.at("ranking").size()
                << " models, ranking unchanged, accuracy within bounds)\n";
  }
  if (flight_) {
    flight_->save(flight_path_);
    std::cout << "flight: " << flight_path_
              << (flight_->degraded() ? " (degraded)" : "") << "\n";
  }
  if (!metrics_path_.empty()) {
    write_prometheus(metrics_path_);
    std::cout << "metrics: " << metrics_path_ << "\n";
  }
  if (!trace_path_.empty()) {
    global_sink()->save(trace_path_);
    std::cout << "trace: " << trace_path_ << "\n";
  }
  return rc;
}

}  // namespace lmo::obs
