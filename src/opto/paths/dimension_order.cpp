#include "opto/paths/dimension_order.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {

std::vector<NodeId> dimension_order_route(const MeshTopology& topo,
                                          NodeId source, NodeId destination) {
  auto coords = topo.coords_of(source);
  const auto goal = topo.coords_of(destination);
  std::uint32_t hops = 0;
  for (std::uint32_t d = 0; d < topo.dimensions(); ++d) {
    const std::uint32_t gap =
        goal[d] > coords[d] ? goal[d] - coords[d] : coords[d] - goal[d];
    hops += topo.wrap ? std::min(gap, topo.sides[d] - gap) : gap;
  }
  std::vector<NodeId> route;
  route.reserve(hops + 1);
  route.push_back(source);
  for (std::uint32_t d = 0; d < topo.dimensions(); ++d) {
    const std::uint32_t side = topo.sides[d];
    while (coords[d] != goal[d]) {
      std::int64_t step = +1;
      if (topo.wrap) {
        // Shorter wrap direction; ties resolved toward +1.
        const std::uint32_t forward =
            (goal[d] + side - coords[d]) % side;  // steps going +1
        if (forward > side - forward) step = -1;
      } else {
        step = goal[d] > coords[d] ? +1 : -1;
      }
      coords[d] = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(coords[d]) + step + side) % side);
      route.push_back(topo.node_at(coords));
    }
  }
  OPTO_ASSERT(route.back() == destination);
  return route;
}

Path dimension_order_path(const MeshTopology& topo, NodeId source,
                          NodeId destination) {
  const auto route = dimension_order_route(topo, source, destination);
  return Path::from_nodes(topo.graph, route);
}

}  // namespace opto
