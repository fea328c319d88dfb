// The artifact files of one run, for the bench binaries and `lmo_tool
// estimate`: --report (lmo.run_report/1), --trace (Perfetto),
// --fidelity-save (lmo.fidelity/1), --fidelity-baseline (exit 1 when the
// model ranking changed or a model's accuracy drifted), --flight-dump
// (lmo.flight/1) and --metrics-out (Prometheus text).
//
// The constructor reads those flags and arms the global trace sink, the
// global residual tracker and a flight recorder, which callers attach
// with ex.set_flight_recorder(art.flight()). Callers add provenance and
// sections through report(). finish() snapshots the global registry, so
// every simulation session must publish its metrics before it is called.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "obs/residuals.hpp"
#include "util/cli.hpp"

namespace lmo::obs {

class RunArtifacts {
 public:
  /// The option names read here, for a binary's list of known flags.
  static constexpr std::array<const char*, 6> kOptions = {
      "report", "trace", "fidelity-save", "fidelity-baseline", "flight-dump",
      "metrics-out"};

  /// `tool` names the run report's tool.
  RunArtifacts(const Cli& cli, std::string tool);
  ~RunArtifacts();  ///< uninstalls the global residual tracker
  RunArtifacts(const RunArtifacts&) = delete;
  RunArtifacts& operator=(const RunArtifacts&) = delete;

  /// nullptr without --report (report()) or --flight-dump (flight()).
  [[nodiscard]] ReportBuilder* report() const { return report_.get(); }
  [[nodiscard]] FlightRecorder* flight() const { return flight_.get(); }

  /// Add the fidelity, flight and degradation report sections, write every
  /// requested file and run the baseline check. Returns the exit code: 1
  /// when the baseline check failed, else 0.
  [[nodiscard]] int finish();

 private:
  std::string report_path_, trace_path_, fidelity_path_, baseline_path_,
      flight_path_, metrics_path_;
  std::unique_ptr<ReportBuilder> report_;
  std::unique_ptr<ResidualTracker> residuals_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace lmo::obs
