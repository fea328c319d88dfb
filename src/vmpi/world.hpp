// World: the classic owning entry point into the simulation stack.
//
// Historically World *was* the simulation core — one global mutable object
// recycled with reset() between repetitions. The machinery now lives in
// SimSession (see session.hpp); a World is simply a session that takes the
// cluster configuration by value and keeps it alive, which is the
// convenient shape for tests, benches and examples that run one simulation
// at a time. Code that fans experiments out across threads keeps one
// SimSession per worker, built from World::shared_config() and reset() per
// experiment, instead.
#pragma once

#include "vmpi/session.hpp"

namespace lmo::vmpi {

class World : public SimSession {
 public:
  /// Noise seeds from cfg.seed.
  explicit World(sim::ClusterConfig cfg);
};

}  // namespace lmo::vmpi
