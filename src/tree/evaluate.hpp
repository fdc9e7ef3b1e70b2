// Force/field evaluation through MAC traversal of an Octree, one target
// at a time: the reference that the batched engine used by the serial and
// distributed solvers (tree/interaction_list.hpp) is tested against.
//
// Each sample returns its own near/far interaction tallies. They are part
// of the result (not an optional side channel) because they drive the
// virtual-time cost model and the Sec. IV-B alpha measurement; callers
// that also want them in the observability layer forward them to an
// obs::Scope (e.g. counters "tree.eval.near" / "tree.eval.far").
#pragma once

#include <cstdint>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {

struct VortexSample {
  Vec3 u{};
  Mat3 grad{};
  std::uint64_t near = 0;  // particle-particle kernel evaluations
  std::uint64_t far = 0;   // particle-multipole evaluations
};

/// Velocity + velocity gradient at `x` induced by all tree particles
/// except the one with id == self_id (pass an out-of-range id to include
/// everything). theta = 0 reproduces direct summation exactly.
VortexSample sample_vortex(const Octree& tree, const Vec3& x,
                           std::uint32_t self_id, double theta,
                           const kernels::AlgebraicKernel& kernel);

struct CoulombSample {
  double phi = 0.0;
  Vec3 e{};
  std::uint64_t near = 0;
  std::uint64_t far = 0;
};

/// Potential + field at `x` from scalar charges (Plummer-softened near
/// field, singular multipole far field).
CoulombSample sample_coulomb(const Octree& tree, const Vec3& x,
                             std::uint32_t self_id, double theta,
                             const kernels::CoulombKernel& kernel);

}  // namespace stnb::tree
