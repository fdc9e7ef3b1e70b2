// Cell-blocked traversal engine (tree/interaction_list) pinned against the
// per-particle reference walk (tree/evaluate): leaf-group invariants,
// bit-identical results at theta = 0, error envelope at theta > 0, tally
// consistency, thread-count determinism, and the remote-tree walk.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>

#include "simd/dispatch.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tree/evaluate.hpp"
#include "tree/interaction_list.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {
namespace {

std::vector<TreeParticle> random_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TreeParticle> ps(n);
  for (std::size_t i = 0; i < n; ++i) {
    ps[i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
    ps[i].q = rng.uniform(-1.0, 1.0);
    ps[i].a = rng.uniform_on_sphere() * rng.uniform(0.1, 1.0);
    ps[i].id = static_cast<std::uint32_t>(i);
  }
  return ps;
}

Octree build_tree(std::size_t n, std::uint64_t seed, int leaf_capacity = 8) {
  auto ps = random_particles(n, seed);
  return Octree(std::move(ps), {{0, 0, 0}, 1.0}, {leaf_capacity, kMaxLevel});
}

TEST(LeafGroups, TileParticlesInAscendingOrder) {
  const Octree tree = build_tree(700, 101, 4);
  for (const int group_size : {1, 8, 32, 100000}) {
    const auto groups = build_leaf_groups(tree, group_size);
    ASSERT_FALSE(groups.empty());
    std::int32_t next = 0;
    for (const LeafGroup& g : groups) {
      EXPECT_EQ(g.first, next);
      EXPECT_GT(g.count, 0);
      // A group only exceeds group_size when a single leaf does (leaf
      // capacity 4 here, so never for group_size >= 4).
      if (group_size >= 4) {
        EXPECT_LE(g.count, group_size);
      }
      for (std::int32_t p = g.first; p < g.first + g.count; ++p) {
        const Vec3& x = tree.particles()[p].x;
        EXPECT_TRUE(x.x >= g.lo.x && x.x <= g.hi.x);
        EXPECT_TRUE(x.y >= g.lo.y && x.y <= g.hi.y);
        EXPECT_TRUE(x.z >= g.lo.z && x.z <= g.hi.z);
      }
      next += g.count;
    }
    EXPECT_EQ(next, static_cast<std::int32_t>(tree.particles().size()));
  }
}

TEST(LeafGroups, GroupMacPreservesPerTargetBound) {
  // Every far-accepted node must satisfy s <= theta * d for EVERY target
  // in the group, not just on average — the nearest-point distance
  // argument behind walk_box.
  const Octree tree = build_tree(600, 102);
  const double theta = 0.5;
  const auto groups = build_leaf_groups(tree, 32);
  InteractionList il;
  for (const LeafGroup& g : groups) {
    collect_interactions(tree, g, theta, il);
    for (const std::int32_t idx : il.far) {
      const Node& node = tree.nodes()[idx];
      for (std::int32_t p = g.first; p < g.first + g.count; ++p) {
        const double d = norm(tree.particles()[p].x - node.mp.center);
        EXPECT_LE(node.box_size, theta * d * (1.0 + 1e-12));
      }
    }
  }
}

TEST(LeafGroups, NearRangesAreMergedAndDisjoint) {
  const Octree tree = build_tree(500, 103);
  const auto groups = build_leaf_groups(tree, 32);
  InteractionList il;
  for (const LeafGroup& g : groups) {
    collect_interactions(tree, g, 0.4, il);
    for (std::size_t r = 1; r < il.near.size(); ++r) {
      // Ascending and non-adjacent (adjacent ranges must have merged).
      EXPECT_GT(il.near[r].first,
                il.near[r - 1].first + il.near[r - 1].count);
    }
    // theta = 0 resolves everything into one range covering all particles.
    collect_interactions(tree, g, 0.0, il);
    ASSERT_EQ(il.near.size(), 1u);
    EXPECT_EQ(il.near[0].first, 0);
    EXPECT_EQ(il.near[0].count,
              static_cast<std::int32_t>(tree.particles().size()));
    EXPECT_TRUE(il.far.empty());
  }
}

class BlockedVortex : public ::testing::TestWithParam<kernels::AlgebraicOrder> {
};

TEST_P(BlockedVortex, BitIdenticalToPerParticleWalkAtThetaZero) {
  // Bit-identity to the per-particle walk is only promised by the scalar
  // dispatch backend (the legacy batch loops); wide backends differ by ulps.
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  const std::size_t n = 400;
  const Octree tree = build_tree(n, 201);
  const kernels::AlgebraicKernel kernel(GetParam(), 0.05);

  const BlockedEvaluator evaluator(tree, {0.0, 32, nullptr});
  const VortexField field = evaluator.evaluate_vortex(kernel);

  std::uint64_t ref_near = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = sample_vortex(tree, tree.particles()[i].x,
                                 tree.particles()[i].id, 0.0, kernel);
    ref_near += s.near;
    EXPECT_EQ(field.u[i].x, s.u.x) << "particle " << i;
    EXPECT_EQ(field.u[i].y, s.u.y) << "particle " << i;
    EXPECT_EQ(field.u[i].z, s.u.z) << "particle " << i;
    for (int c = 0; c < 9; ++c)
      EXPECT_EQ(field.grad[i].m[c], s.grad.m[c])
          << "particle " << i << " grad " << c;
  }
  EXPECT_EQ(field.far, 0u);
  EXPECT_EQ(field.near, ref_near);
  EXPECT_EQ(field.near, static_cast<std::uint64_t>(n) * (n - 1));
}

TEST_P(BlockedVortex, ErrorEnvelopeMatchesPerParticleWalk) {
  const std::size_t n = 400;
  const Octree tree = build_tree(n, 202);
  const kernels::AlgebraicKernel kernel(GetParam(), 0.05);

  // Direct O(n^2) reference over the sorted particles.
  std::vector<Vec3> u_ref(n);
  double u_scale = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    Vec3 u{};
    Mat3 grad{};
    for (std::size_t s = 0; s < n; ++s) {
      if (s == t) continue;
      kernel.accumulate_velocity_and_gradient(
          tree.particles()[t].x - tree.particles()[s].x, tree.particles()[s].a,
          u, grad);
    }
    u_ref[t] = u;
    u_scale = std::max(u_scale, norm(u));
  }

  for (const double theta : {0.3, 0.6}) {
    const BlockedEvaluator evaluator(tree, {theta, 32, nullptr});
    const VortexField field = evaluator.evaluate_vortex(kernel);
    double blocked_err = 0.0, walk_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = sample_vortex(tree, tree.particles()[i].x,
                                   tree.particles()[i].id, theta, kernel);
      walk_err = std::max(walk_err, norm(s.u - u_ref[i]) / u_scale);
      blocked_err = std::max(blocked_err, norm(field.u[i] - u_ref[i]) / u_scale);
    }
    // The group MAC is at least as strict per target as the per-particle
    // MAC, so the blocked error must stay within the reference envelope.
    EXPECT_LE(blocked_err, walk_err + 1e-13)
        << "theta " << theta;
    EXPECT_GT(field.far, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BlockedVortex,
                         ::testing::Values(kernels::AlgebraicOrder::k2,
                                           kernels::AlgebraicOrder::k4,
                                           kernels::AlgebraicOrder::k6),
                         [](const auto& info) {
                           return "order" +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(BlockedCoulomb, BitIdenticalToPerParticleWalkAtThetaZero) {
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  const std::size_t n = 350;
  const Octree tree = build_tree(n, 203);
  const kernels::CoulombKernel kernel(0.01);

  const BlockedEvaluator evaluator(tree, {0.0, 32, nullptr});
  const CoulombField field = evaluator.evaluate_coulomb(kernel);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = sample_coulomb(tree, tree.particles()[i].x,
                                  tree.particles()[i].id, 0.0, kernel);
    EXPECT_EQ(field.phi[i], s.phi) << "particle " << i;
    EXPECT_EQ(field.e[i].x, s.e.x) << "particle " << i;
    EXPECT_EQ(field.e[i].y, s.e.y) << "particle " << i;
    EXPECT_EQ(field.e[i].z, s.e.z) << "particle " << i;
  }
  EXPECT_EQ(field.far, 0u);
  EXPECT_EQ(field.near, static_cast<std::uint64_t>(n) * (n - 1));
}

TEST(BlockedCoulomb, MatchesPerParticleWalkWithinTruncationAtThetaPositive) {
  const std::size_t n = 350;
  const Octree tree = build_tree(n, 204);
  const kernels::CoulombKernel kernel(0.01);
  const BlockedEvaluator evaluator(tree, {0.6, 32, nullptr});
  const CoulombField field = evaluator.evaluate_coulomb(kernel);
  double phi_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    phi_scale = std::max(phi_scale, std::abs(field.phi[i]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = sample_coulomb(tree, tree.particles()[i].x,
                                  tree.particles()[i].id, 0.6, kernel);
    // Both satisfy the same theta bound; they differ only by which
    // clusters each traversal accepts (truncation-level differences).
    EXPECT_NEAR(field.phi[i], s.phi, 0.05 * phi_scale) << "particle " << i;
  }
  EXPECT_GT(field.far, 0u);
}

TEST(BlockedTallies, MatchInteractionListsExactly) {
  const std::size_t n = 500;
  const Octree tree = build_tree(n, 301);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, 0.05);
  for (const double theta : {0.0, 0.3, 0.6}) {
    const BlockedEvaluator evaluator(tree, {theta, 32, nullptr});
    const VortexField field = evaluator.evaluate_vortex(kernel);
    std::uint64_t near = 0, far = 0;
    InteractionList il;
    for (const LeafGroup& g : evaluator.groups()) {
      collect_interactions(tree, g, theta, il);
      for (const SourceRange& r : il.near) {
        const std::int64_t lo = std::max(r.first, g.first);
        const std::int64_t hi =
            std::min(r.first + r.count, g.first + g.count);
        near += static_cast<std::uint64_t>(r.count) * g.count -
                std::max<std::int64_t>(0, hi - lo);
      }
      far += il.far.size() * static_cast<std::uint64_t>(g.count);
    }
    EXPECT_EQ(field.near, near) << "theta " << theta;
    EXPECT_EQ(field.far, far) << "theta " << theta;
  }
}

TEST(BlockedDeterminism, ResultsIndependentOfThreadCount) {
  const std::size_t n = 600;
  const Octree tree = build_tree(n, 302);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k4, 0.05);
  const BlockedEvaluator serial(tree, {0.4, 16, nullptr});
  const VortexField ref = serial.evaluate_vortex(kernel);
  ThreadPool pool(3);
  const BlockedEvaluator threaded(tree, {0.4, 16, &pool});
  const VortexField got = threaded.evaluate_vortex(kernel);
  ASSERT_EQ(got.u.size(), ref.u.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got.u[i].x, ref.u[i].x) << i;
    EXPECT_EQ(got.u[i].y, ref.u[i].y) << i;
    EXPECT_EQ(got.u[i].z, ref.u[i].z) << i;
    for (int c = 0; c < 9; ++c) EXPECT_EQ(got.grad[i].m[c], ref.grad[i].m[c]);
  }
  EXPECT_EQ(got.near, ref.near);
  EXPECT_EQ(got.far, ref.far);
}

TEST(BlockedRemote, LeafRecordsAreNearAndFrontierRecordsAreFar) {
  // A hand-built remote tree over a second cloud: one leaf record must add
  // exactly its particles to every target (the direct sum over both
  // clouds at theta = 0), one frontier record exactly its multipole.
  const std::size_t n = 150;
  const Octree tree = build_tree(n, 305);
  auto sources = random_particles(60, 306);
  for (auto& p : sources) p.x = p.x + Vec3{2.0, 0.0, 0.0};  // disjoint
  const auto m = static_cast<std::int32_t>(sources.size());
  const kernels::CoulombKernel kernel(0.01);
  const BlockedEvaluator evaluator(tree, {0.0, 32, nullptr});

  LetPayload leaf;
  leaf.nodes.push_back(
      {1.0f, m, leaf.add_particles(sources, Charges::kScalar), 1,
       LetKind::kLeaf});
  RemoteTree remote;
  remote.assign({leaf}, Charges::kScalar);
  const CoulombField near = evaluator.finish_coulomb(
      kernel, evaluator.begin_coulomb(kernel), remote);
  double phi_scale = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const TreeParticle& target = tree.particles()[t];
    double phi = 0.0;
    Vec3 e{};
    for (const TreeParticle& s : tree.particles())
      if (s.id != target.id)
        kernel.accumulate_field(target.x - s.x, s.q, phi, e);
    for (const TreeParticle& s : sources)
      kernel.accumulate_field(target.x - s.x, s.q, phi, e);
    phi_scale = std::max(phi_scale, std::abs(phi));
    EXPECT_NEAR(near.phi[t], phi, 1e-12 * std::max(1.0, std::abs(phi))) << t;
  }
  EXPECT_EQ(near.near, n * (n - 1) + n * sources.size());
  EXPECT_EQ(near.far, 0u);

  Multipole mp;
  CenterAccumulator acc;
  for (const auto& p : sources) acc.add(p.x, std::abs(p.q));
  mp.center = acc.center({2.5, 0.5, 0.5});
  for (const auto& p : sources) mp.add_particle(p.x, p.q, p.a);
  LetPayload frontier;
  frontier.nodes.push_back({1.0f, m, frontier.add_multipole(mp, Charges::kScalar),
                            1, LetKind::kFrontier});
  remote.assign({frontier}, Charges::kScalar);
  const CoulombField far = evaluator.finish_coulomb(
      kernel, evaluator.begin_coulomb(kernel), remote);
  const CoulombField local = evaluator.evaluate_coulomb(kernel);
  for (std::size_t t = 0; t < n; ++t) {
    double phi = 0.0;
    Vec3 e{};
    mp.evaluate_coulomb(tree.particles()[t].x, phi, e);
    EXPECT_NEAR(far.phi[t] - local.phi[t], phi, 1e-12 * phi_scale) << t;
  }
  EXPECT_EQ(far.far, n);
  EXPECT_EQ(far.near, local.near);
}

TEST(BlockedRemote, VectorChargesRoundTripThroughThePayload) {
  // The vortex path ships only vector charges and moments: a leaf and a
  // frontier record must reproduce the local particles' and multipole's
  // contributions bit for bit (same sources, same accumulation order).
  const std::size_t n = 120;
  const Octree tree = build_tree(n, 307);
  auto sources = random_particles(40, 308);
  for (auto& p : sources) p.x = p.x + Vec3{0.0, 3.0, 0.0};
  const auto m = static_cast<std::int32_t>(sources.size());
  Multipole mp;
  mp.center = {0.5, 3.5, 0.5};
  for (const auto& p : sources) mp.add_particle(p.x, p.q, p.a);
  LetPayload let;
  let.nodes.push_back({1.0f, m, let.add_multipole(mp, Charges::kVector), 1,
                       LetKind::kFrontier});
  let.nodes.push_back({1.0f, m, let.add_particles(sources, Charges::kVector),
                       2, LetKind::kLeaf});
  RemoteTree remote;
  remote.assign({let}, Charges::kVector);
  Multipole shipped;
  remote.load_multipole(0, shipped);
  EXPECT_EQ(shipped.center.y, mp.center.y);
  EXPECT_EQ(shipped.mono_a.z, mp.mono_a.z);
  EXPECT_EQ(shipped.dip_a.m, mp.dip_a.m);
  EXPECT_EQ(shipped.quad_a, mp.quad_a);
  EXPECT_EQ(shipped.mono_q, 0.0);  // scalar moments not shipped
  for (std::size_t k = 0; k < sources.size(); ++k) {
    EXPECT_EQ(remote.particles.x[k], sources[k].x.x);
    EXPECT_EQ(remote.particles.az[k], sources[k].a.z);
  }
  EXPECT_TRUE(remote.particles.q.empty());  // scalar charges not shipped

  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, 0.05);
  const BlockedEvaluator evaluator(tree, {0.0, 32, nullptr});
  const VortexField field = evaluator.finish_vortex(
      kernel, evaluator.begin_vortex(kernel), remote);
  EXPECT_EQ(field.far, n);
  EXPECT_EQ(field.near, n * (n - 1) + n * sources.size());
}

TEST(BlockedRemote, MalformedPayloadIsRejected) {
  // A record whose skip does not move forward, or whose reference does not
  // resolve, would make the stackless walk loop or read out of bounds.
  const auto kS = Charges::kScalar;
  const std::vector<TreeParticle> ps(3);
  LetPayload three;
  three.add_particles(ps, kS);
  LetPayload one_mp;
  one_mp.add_multipole(Multipole{}, kS);
  RemoteTree remote;
  LetPayload bad = one_mp;
  bad.nodes = {{1.0f, 3, 0, 0, LetKind::kInternal}};  // skip not forward
  EXPECT_THROW(remote.assign({bad}, kS), std::invalid_argument);
  bad = three;
  bad.nodes = {{1.0f, 4, 0, 1, LetKind::kLeaf}};  // 4 of 3 particles
  EXPECT_THROW(remote.assign({bad}, kS), std::invalid_argument);
  bad = three;
  bad.nodes = {{1.0f, -1, 0, 1, LetKind::kLeaf}};  // negative count
  EXPECT_THROW(remote.assign({bad}, kS), std::invalid_argument);
  bad = {};
  bad.nodes = {{1.0f, 3, 0, 1, LetKind::kFrontier}};  // no multipole
  EXPECT_THROW(remote.assign({bad}, kS), std::invalid_argument);
  bad = three;
  bad.particles.pop_back();  // not a whole number of particles
  EXPECT_THROW(remote.assign({bad}, kS), std::invalid_argument);
  // Two well-formed sources: the second is rebased onto the first.
  LetPayload ok = three;
  ok.nodes = {{1.0f, 3, 0, 1, LetKind::kLeaf}};
  remote.assign({ok, ok}, kS);
  ASSERT_EQ(remote.nodes.size(), 2u);
  EXPECT_EQ(remote.nodes[1].ref, 3);
  EXPECT_EQ(remote.nodes[1].skip, 2);
  EXPECT_EQ(remote.particles.size(), 6u);
}

TEST(BlockedFarField, SeparateAndSkipModesComposeToCombined) {
  const std::size_t n = 300;
  const Octree tree = build_tree(n, 304);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, 0.05);
  const BlockedEvaluator evaluator(tree, {0.5, 32, nullptr});
  const VortexField combined =
      evaluator.evaluate_vortex(kernel, FarFieldMode::kCombined);
  const VortexField separate =
      evaluator.evaluate_vortex(kernel, FarFieldMode::kSeparate);
  const VortexField skipped =
      evaluator.evaluate_vortex(kernel, FarFieldMode::kSkip);
  ASSERT_EQ(separate.far_u.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    // combined = near + far, with near identical across modes.
    const Vec3 sum = separate.u[i] + separate.far_u[i];
    EXPECT_LT(norm(sum - combined.u[i]), 1e-15 + 1e-14 * norm(combined.u[i]))
        << i;
    EXPECT_EQ(skipped.u[i].x, separate.u[i].x) << i;
    EXPECT_EQ(skipped.u[i].y, separate.u[i].y) << i;
    EXPECT_EQ(skipped.u[i].z, separate.u[i].z) << i;
  }
  EXPECT_EQ(skipped.far, 0u);
  EXPECT_EQ(separate.far, combined.far);
  EXPECT_GT(combined.far, 0u);
}

TEST(BlockedEdgeCases, SingleParticleAndEmptyTree) {
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k2, 0.1);
  {
    std::vector<TreeParticle> one(1);
    one[0].x = {0.5, 0.5, 0.5};
    one[0].a = {1.0, 0.0, 0.0};
    Octree tree(std::move(one), {{0, 0, 0}, 1.0}, {8, kMaxLevel});
    const BlockedEvaluator evaluator(tree, {0.3, 32, nullptr});
    const VortexField field = evaluator.evaluate_vortex(kernel);
    ASSERT_EQ(field.u.size(), 1u);
    EXPECT_EQ(norm(field.u[0]), 0.0);  // self-interaction excluded
    EXPECT_EQ(field.near, 0u);
    EXPECT_EQ(field.far, 0u);
  }
  {
    Octree tree(std::vector<TreeParticle>{}, {{0, 0, 0}, 1.0},
                {8, kMaxLevel});
    const BlockedEvaluator evaluator(tree, {0.3, 32, nullptr});
    const VortexField field = evaluator.evaluate_vortex(kernel);
    EXPECT_TRUE(field.u.empty());
    EXPECT_TRUE(evaluator.groups().empty());
  }
}

}  // namespace
}  // namespace stnb::tree
