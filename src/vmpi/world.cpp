#include "vmpi/world.hpp"

#include <memory>
#include <utility>

namespace lmo::vmpi {

World::World(sim::ClusterConfig cfg)
    : SimSession(
          std::make_shared<const sim::ClusterConfig>(std::move(cfg))) {}

}  // namespace lmo::vmpi
