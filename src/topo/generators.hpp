// Synthetic WAN generators for scalability sweeps and property tests.
//
// All generators are deterministic for a given seed and always return a
// connected topology (a spanning structure is added first, probabilistic
// extra links second).
#pragma once

#include <cstdint>

#include "topo/topology.hpp"

namespace pm::topo {

/// Waxman random graph over nodes placed uniformly in a square of side
/// `side_km`: edge (u, v) exists with probability
/// alpha * exp(-d(u,v) / (beta * L)), L = max pairwise distance.
/// Nodes are placed on a flat plane; coordinates are stored as pseudo
/// lat/lon so propagation delays still follow distance.
Topology waxman(int nodes, double alpha, double beta, std::uint64_t seed,
                double side_km = 4000.0);

/// Ring of `nodes` plus `chords` random chords — a minimal diverse-path
/// backbone useful in unit tests.
Topology ring_with_chords(int nodes, int chords, std::uint64_t seed);

}  // namespace pm::topo
