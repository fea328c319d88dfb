#include "models/logp.hpp"

namespace lmo::models {

double LogGP::flat_collective(int n, Bytes m) const {
  LMO_CHECK(n >= 2);
  return L + 2.0 * o + double(n - 1) * double(m > 0 ? m - 1 : 0) * G +
         double(n - 2) * g;
}

LogGP HeteroLogGP::averaged() const {
  return LogGP{L.off_diagonal_mean(), o.off_diagonal_mean(),
               g.off_diagonal_mean(), G.off_diagonal_mean()};
}

}  // namespace lmo::models
