// LogP and LogGP models (paper Section II).
//
// LogP:  point-to-point of a short message costs L + 2o; a series of short
//        messages is paced by the gap g.
// LogGP: adds the gap-per-byte G for long messages:
//        T(M) = L + 2o + (M-1) G, and m sends cost
//        L + 2o + (M-1) G + (m-1) g.
//
// Both models mix processor and network contributions in g and G, which is
// exactly the conflation the paper criticizes. Heterogeneous extension:
// per-pair parameter tables, averaged for the homogeneous view.
#pragma once

#include "models/pair_table.hpp"
#include "util/bytes.hpp"

namespace lmo::models {

struct LogP {
  double L = 0.0;  ///< network latency upper bound [s]
  double o = 0.0;  ///< send/receive overhead [s]
  double g = 0.0;  ///< gap between consecutive messages [s]

  /// Short-message point-to-point: L + 2o.
  [[nodiscard]] double pt2pt() const { return L + 2.0 * o; }
};

struct LogGP {
  double L = 0.0;  ///< latency [s]
  double o = 0.0;  ///< overhead [s]
  double g = 0.0;  ///< gap per message [s]
  double G = 0.0;  ///< gap per byte [s/B]

  [[nodiscard]] double pt2pt(Bytes m) const {
    return L + 2.0 * o + double(m > 0 ? m - 1 : 0) * G;
  }

  /// Linear scatter/gather, Table II:
  /// L + 2o + (n-1)(M-1)G + (n-2)g.
  [[nodiscard]] double flat_collective(int n, Bytes m) const;
};

struct HeteroLogGP {
  PairTable L, o, g, G;

  [[nodiscard]] int size() const { return L.size(); }
  [[nodiscard]] double pt2pt(int i, int j, Bytes m) const {
    return L(i, j) + 2.0 * o(i, j) + double(m > 0 ? m - 1 : 0) * G(i, j);
  }
  /// Averaged homogeneous view.
  [[nodiscard]] LogGP averaged() const;
};

}  // namespace lmo::models
