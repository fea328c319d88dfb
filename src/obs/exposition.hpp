// Prometheus-text metrics exposition.
//
// render_prometheus() turns a metrics Snapshot into the Prometheus text
// exposition format (version 0.0.4): counters as `lmo_<name>_total`,
// gauges verbatim, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum`/`_count` and p50/p95/p99 gauge lines derived from the
// stored buckets. Metric names are sanitized to [a-zA-Z0-9_:] so dotted
// registry names ("sim.runs") become scrape-safe ("lmo_sim_runs").
//
// write_prometheus() snapshots the global registry and atomically
// replaces a file with the rendering (write temp + rename) — the
// node-exporter textfile pattern, without an HTTP stack.
#pragma once

#include <string>

namespace lmo::obs {

struct Snapshot;

/// Render a snapshot in Prometheus text exposition format.
[[nodiscard]] std::string render_prometheus(const Snapshot& snap);

/// Sanitize one metric name for Prometheus: every character outside
/// [a-zA-Z0-9_:] becomes '_'; a leading digit gains a '_' prefix.
[[nodiscard]] std::string prometheus_name(const std::string& name);

/// Snapshot the global registry, render it, and atomically replace `path`
/// (temp file + rename, so scrapers never see a torn read).
void write_prometheus(const std::string& path);

}  // namespace lmo::obs
