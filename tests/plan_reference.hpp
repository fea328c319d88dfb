// Reference packing rule: pairwise conflict checks and a first-fit that
// visits every member of every open round. PlanBuilder packs the same
// rounds from per-resource bitmaps; this slow, obviously-correct form is
// the oracle the tests compare it against.
#pragma once

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "estimate/plan.hpp"
#include "simnet/topology.hpp"

namespace lmo::reference {

/// True if the i1->j1 and i2->j2 paths share a contended switch.
inline bool paths_conflict(const sim::Topology& topo, int i1, int j1, int i2,
                           int j2) {
  bool conflict = false;
  topo.for_each_contended_segment(i1, j1, [&](int l1, int g1) {
    topo.for_each_contended_segment(i2, j2, [&](int l2, int g2) {
      if (l1 == l2 && g1 == g2) conflict = true;
    });
  });
  return conflict;
}

/// The point-to-point paths an experiment occupies in the resource tree.
inline std::vector<std::pair<int, int>> key_paths(
    const estimate::ExperimentKey& k) {
  if (k.kind == estimate::ExperimentKind::kOneToTwo)
    return {{k.a, k.b}, {k.a, k.c}};
  if (k.b < 0) return {};
  return {{k.a, k.b}};
}

/// True if the two experiments cannot share a measured round on `topo`:
/// a common participant, or paths through a common contended switch. A
/// null topology checks participants only.
inline bool keys_conflict(const sim::Topology* topo,
                          const estimate::ExperimentKey& x,
                          const estimate::ExperimentKey& y) {
  for (const int px : x.participants())
    for (const int py : y.participants())
      if (px == py) return true;
  if (topo == nullptr) return false;
  for (const auto& [xa, xb] : key_paths(x))
    for (const auto& [ya, yb] : key_paths(y))
      if (paths_conflict(*topo, xa, xb, ya, yb)) return true;
  return false;
}

/// The rounds PlanBuilder(topo).build(true) must produce: keys sorted and
/// deduplicated, grouped by (kind, sizes, count), observation kinds one
/// per round, every other group packed first-fit by pairwise checks
/// against each round member. Null `topo` means participants-only
/// conflicts (a flat cluster).
inline std::vector<std::vector<estimate::ExperimentKey>> rounds(
    const sim::Topology* topo, std::vector<estimate::ExperimentKey> keys) {
  using estimate::ExperimentKey;
  using estimate::ExperimentKind;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::map<std::tuple<ExperimentKind, Bytes, Bytes, int>,
           std::vector<ExperimentKey>>
      groups;
  for (const ExperimentKey& k : keys)
    groups[{k.kind, k.m_fwd, k.m_back, k.count}].push_back(k);

  std::vector<std::vector<ExperimentKey>> out;
  for (const auto& [group, members] : groups) {
    const ExperimentKind kind = std::get<0>(group);
    if (kind == ExperimentKind::kScatterObservation ||
        kind == ExperimentKind::kGatherObservation) {
      for (const ExperimentKey& k : members) out.push_back({k});
      continue;
    }
    std::vector<std::vector<ExperimentKey>> fitted;
    for (const ExperimentKey& k : members) {
      auto fits = [&](const std::vector<ExperimentKey>& round) {
        return std::none_of(round.begin(), round.end(),
                            [&](const ExperimentKey& other) {
                              return keys_conflict(topo, k, other);
                            });
      };
      const auto it = std::find_if(fitted.begin(), fitted.end(), fits);
      if (it != fitted.end())
        it->push_back(k);
      else
        fitted.push_back({k});
    }
    out.insert(out.end(), fitted.begin(), fitted.end());
  }
  return out;
}

}  // namespace lmo::reference
