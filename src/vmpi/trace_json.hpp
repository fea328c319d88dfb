// Chrome-tracing JSON export of simulated message traces.
//
// Load the output in chrome://tracing or https://ui.perfetto.dev to see
// each message's wire transfer and receive processing on per-rank tracks —
// gather escalations show up as glaring red gaps. Serialization goes
// through obs::TraceSink, so strings are JSON-escaped and the file uses the
// Chrome *object* form ({"traceEvents": [...]}) with process_name /
// thread_name metadata labelling the tracks ("rank N").
#pragma once

#include <vector>

#include "obs/trace.hpp"
#include "vmpi/session.hpp"

namespace lmo::vmpi {

/// Append a message trace to a shared sink on the simulated-cluster pid
/// (one track per rank, sim-time microsecond timestamps). Per message two
/// complete events: "transfer src->dst" on the sender's track (post to
/// arrival) and "recv src->dst" on the receiver's track (arrival to
/// completion); args carry bytes, tag, and the protocol used.
void append_chrome_trace(obs::TraceSink& sink,
                         const std::vector<MessageTrace>& trace);

}  // namespace lmo::vmpi
