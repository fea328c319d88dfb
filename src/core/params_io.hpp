// Persistence of estimated LMO parameters — lets a tool estimate a cluster
// once and reuse the model across sessions (the paper's software tool
// workflow [13]).
//
// A model file is one JSON document, model_json(). Doubles print with the
// shortest round-tripping representation, so a reloaded model predicts
// bit-identically. Run reports embed the same document as their
// "estimated_parameters".
#pragma once

#include <string>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "obs/json.hpp"

namespace lmo::core {

struct LoadedParams {
  LmoParams params;
  GatherEmpirical empirical;
};

/// The model document:
///   {"schema": "lmo.model/1",
///    "lmo": {"size": n, "C": [...], "t": [...], "L": [[...]],
///            "inv_beta": [[...]]},
///    "gather_empirical": {"m1": ..., "m2": ..., "escalation_modes":
///        [{"value", "count", "frequency"}], "linear_prob_at_m1": ...,
///        "linear_prob_at_m2": ...}}
[[nodiscard]] obs::Json model_json(const LmoParams& params,
                                   const GatherEmpirical& emp);

/// Read a model document back. Throws lmo::Error naming the field path
/// (e.g. "lmo.C[3]", "lmo.L[2][5]",
/// "gather_empirical.escalation_modes[0].count") on a missing section, a
/// row of the wrong length, or a non-finite or negative term.
[[nodiscard]] LoadedParams model_from_json(const obs::Json& doc);

void save_params(const LmoParams& params, const GatherEmpirical& emp,
                 const std::string& path);
/// Errors are prefixed with the path; a file that is not JSON (the removed
/// `key = value` format) is refused, naming `lmo_tool estimate` as the way
/// to regenerate it.
[[nodiscard]] LoadedParams load_params(const std::string& path);

}  // namespace lmo::core
