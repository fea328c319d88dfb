#include "stats/regression.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lmo::stats {

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  LMO_CHECK(x.size() == y.size());
  LMO_CHECK_MSG(x.size() >= 2, "linear fit needs >= 2 points");
  const double n = double(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LMO_CHECK_MSG(sxx > 0, "linear fit needs distinct x values");
  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - f(x[i]);
    ss_res += r * r;
  }
  f.rmse = std::sqrt(ss_res / n);
  f.r_squared = syy == 0 ? 1.0 : 1.0 - ss_res / syy;
  return f;
}

}  // namespace lmo::stats
