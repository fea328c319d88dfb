// Model-based optimization of collective operations (paper Figs. 6 and 7).
//
// Two applications of an accurate model:
//  * algorithm selection — pick linear vs. binomial scatter per message
//    size (Fig. 6 shows Hockney picking wrong and LMO picking right). The
//    LMO side compares core::Tuner prices; Hockney's selector is here;
//  * the optimized gather — split medium-size gathers into chunked series
//    that stay out of the escalation band (Fig. 7, "10 times better
//    performance").
#pragma once

#include <vector>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "core/predictions.hpp"
#include "models/hockney.hpp"
#include "util/bytes.hpp"

namespace lmo::core {

enum class ScatterAlgorithm { kLinear, kBinomial };

/// The linear-vs-binomial scatter decision a heterogeneous-Hockney user
/// would make, taking the better of its two flat-tree readings (the paper
/// uses the sequential one, Table II) against its binomial recursion.
[[nodiscard]] ScatterAlgorithm choose_scatter_algorithm_hockney(
    const models::HeteroHockney& h, int root, Bytes m);

struct SplitGatherPlan {
  bool split = false;   ///< false: run the native gather unmodified
  Bytes chunk = 0;      ///< chunk size for the series
  int series = 0;       ///< number of gathers in the series
  double predicted_native = 0.0;     ///< expected native time (escalations in)
  double predicted_split = 0.0;      ///< predicted series time
};

/// Plan the Fig. 7 optimization: if m sits in the escalation band and the
/// chunked series is predicted cheaper than the expected (escalation-
/// weighted) native gather, split into chunks of at most m1.
[[nodiscard]] SplitGatherPlan plan_optimized_gather(const LmoParams& p,
                                                    const GatherEmpirical& emp,
                                                    int root, Bytes m);

}  // namespace lmo::core
