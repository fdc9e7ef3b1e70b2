// The local Barnes-Hut oct-tree (Sec. III-A, Figs. 3-4): particles are
// sorted by Morton key, space is subdivided recursively until boxes hold
// at most `leaf_capacity` particles, and every node carries multipole
// moments aggregated bottom-up (M2M). Traversal applies the classical
// multipole acceptance criterion s/d <= theta: larger theta accepts
// bigger clusters (faster, less accurate) — the knob PFASST uses for
// spatial coarsening (Sec. IV-B).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/obs.hpp"
#include "tree/morton.hpp"
#include "tree/multipole.hpp"

namespace stnb::tree {

struct TreeParticle {
  Vec3 x;
  double q = 0.0;        // scalar charge (Coulomb workloads)
  Vec3 a{};              // vector charge (vortex strength)
  std::uint32_t id = 0;  // caller-side index, preserved across sorting
  std::uint64_t key = 0;
};

struct Node {
  std::uint64_t key = kRootKey;
  std::int32_t first = 0;  // particle slice [first, first+count)
  std::int32_t count = 0;
  std::array<std::int32_t, 8> child{-1, -1, -1, -1, -1, -1, -1, -1};
  float box_size = 0.0f;  // geometric side length (float: MAC only)
  bool leaf = true;
  Multipole mp;

  int level() const { return key_level(key); }
};

/// The multipole acceptance criterion every traversal shares (walk,
/// walk_box, the LET cull in tree/parallel and the remote-tree walk in
/// tree/interaction_list): a node of side `box_size` holding `count`
/// particles, expanded about `center`, is accepted for every target in the
/// axis-aligned box [lo, hi] when box_size <= theta * d, where d is the
/// distance from `center` to the box's nearest point (a point target is
/// the box lo = hi). Tested in squared form, without a sqrt. A
/// single-particle node is never accepted: its particle is exact.
inline bool mac_accepts(double box_size, std::int32_t count,
                        const Vec3& center, const Vec3& lo, const Vec3& hi,
                        double theta) {
  if (count <= 1) return false;
  double d2 = 0.0;
  for (int k = 0; k < 3; ++k) {
    const double v = center[k];
    const double d = v < lo[k] ? lo[k] - v : (v > hi[k] ? v - hi[k] : 0.0);
    d2 += d * d;
  }
  return box_size * box_size <= theta * theta * d2;
}

struct TreeStats {
  std::size_t node_count = 0;
  std::size_t leaf_count = 0;
  int max_depth = 0;
};

class Octree {
 public:
  struct Config {
    int leaf_capacity = 8;
    int max_level = kMaxLevel;
    /// Instrumentation sink (counter "tree.build.nodes" = nodes allocated
    /// per build); disabled by default.
    obs::Scope obs{};
  };

  /// Builds the tree over `particles` inside `domain` (which must contain
  /// them; use Domain::bounding_cube). Particles are key-stamped and
  /// sorted internally; use `particles()` for the sorted order and the
  /// stored `id` to map back.
  Octree(std::vector<TreeParticle> particles, const Domain& domain,
         Config config);
  Octree(std::vector<TreeParticle> particles, const Domain& domain)
      : Octree(std::move(particles), domain, Config{}) {}

  const Domain& domain() const { return domain_; }
  const std::vector<TreeParticle>& particles() const { return particles_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& root() const { return nodes_.front(); }
  TreeStats stats() const;

  /// Cell-blocked MAC traversal for an axis-aligned target box [lo, hi]:
  /// one walk serves every target inside the box. The MAC distance is
  /// measured from the node's expansion center to the box's *nearest
  /// point*, which lower-bounds the distance to any individual target, so
  /// an accepted cluster satisfies s/d <= theta for every target in the
  /// box — the per-target error bound is preserved. For every
  /// accepted cluster calls `far(node)`; for every leaf that must be
  /// resolved calls `near_range(first, count)` with the leaf's particle
  /// slice (ascending, tiling exactly the particles a per-target walk
  /// would visit). theta = 0 accepts nothing (exact near field).
  template <typename FarFn, typename NearRangeFn>
  void walk_box(const Vec3& lo, const Vec3& hi, double theta, FarFn&& far,
                NearRangeFn&& near_range) const {
    std::int32_t stack[7 * kMaxLevel + 8];
    int top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const Node& node = nodes_[stack[--top]];
      if (mac_accepts(node.box_size, node.count, node.mp.center, lo, hi,
                      theta)) {
        far(node);
      } else if (node.leaf) {
        if (node.count > 0) near_range(node.first, node.count);
      } else {
        for (int c = 7; c >= 0; --c)
          if (node.child[c] >= 0) stack[top++] = node.child[c];
      }
    }
  }

  /// MAC traversal for a single target: walk_box over the point box
  /// [target, target], calling `near(particle)` per resolved particle.
  /// theta = 0 disables acceptance entirely (exact direct summation).
  template <typename FarFn, typename NearFn>
  void walk(const Vec3& target, double theta, FarFn&& far,
            NearFn&& near) const {
    walk_box(target, target, theta, far,
             [&](std::int32_t first, std::int32_t count) {
               for (std::int32_t p = first; p < first + count; ++p)
                 near(particles_[p]);
             });
  }

  /// Branch nodes: the minimal set of local-tree nodes whose key coverage
  /// tiles the key interval [range_min, range_max] owned by this rank
  /// (Warren-Salmon; these are what PEPC exchanges globally, Fig. 3).
  /// For a serial tree the interval covers the whole domain and this
  /// returns the root's children (or the root itself).
  std::vector<std::int32_t> branch_nodes(std::uint64_t range_min,
                                         std::uint64_t range_max) const;

 private:
  std::int32_t build_recursive(std::uint64_t key, std::int32_t first,
                               std::int32_t count, int level);

  Domain domain_;
  Config config_;
  std::vector<TreeParticle> particles_;
  std::vector<Node> nodes_;
};

}  // namespace stnb::tree
