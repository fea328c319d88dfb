// Ordinary least squares for y = intercept + slope * x.
//
// Used to fit Hockney (alpha, beta) and LogGP (G) parameters from
// message-size sweeps, and to fit the two linear regimes of linear gather.
#pragma once

#include <vector>

namespace lmo::stats {

struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination in [0, 1].
  double r_squared = 0.0;
  /// Root-mean-square residual.
  double rmse = 0.0;

  [[nodiscard]] double operator()(double x) const {
    return intercept + slope * x;
  }
};

/// Fits by OLS; requires >= 2 points with distinct x.
[[nodiscard]] LinearFit fit_linear(const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace lmo::stats
