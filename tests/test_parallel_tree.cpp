// Distributed tree solver: rank-count invariance (the parallel solve must
// match the serial tree and, for theta -> 0, direct summation), LET
// correctness near domain boundaries, the pruned remote tree's contract
// (shipped frontier passes the MAC for every receiver group, interaction
// counts stay near the 1-rank value, bit-identical across runs and
// schedulers), phase timing sanity, and the space-parallel RHS wrapper.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>

#include "obs/obs.hpp"

#include "mpsim/comm.hpp"
#include "support/rng.hpp"
#include "tree/parallel.hpp"
#include "vortex/rhs_tree.hpp"
#include "vortex/rhs_direct.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

namespace stnb::tree {
namespace {

std::vector<TreeParticle> sheet_particles(std::size_t n, double* sigma) {
  vortex::SheetConfig config;
  config.n_particles = n;
  *sigma = config.sigma();
  const auto state = vortex::spherical_vortex_sheet(config);
  std::vector<TreeParticle> ps(n);
  for (std::size_t p = 0; p < n; ++p) {
    ps[p].x = vortex::position(state, p);
    ps[p].a = vortex::strength(state, p);
    ps[p].id = static_cast<std::uint32_t>(p);
  }
  return ps;
}

class ParallelVortex : public ::testing::TestWithParam<int> {};

TEST_P(ParallelVortex, MatchesSerialDirectSummationForSmallTheta) {
  const int p_ranks = GetParam();
  const std::size_t n = 400;
  double sigma;
  const auto all = sheet_particles(n, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);

  // Direct reference over all particles.
  std::vector<Vec3> u_ref(n);
  for (std::size_t q = 0; q < n; ++q) {
    Vec3 u{};
    for (std::size_t p = 0; p < n; ++p) {
      if (p == q) continue;
      kernel.accumulate_velocity(all[q].x - all[p].x, all[p].a, u);
    }
    u_ref[q] = u;
  }
  double u_scale = 0.0;
  for (const auto& u : u_ref) u_scale = std::max(u_scale, norm(u));

  mpsim::Runtime rt;
  rt.run(p_ranks, [&](mpsim::Comm& comm) {
    // Contiguous slices of the global array per rank.
    const std::size_t begin = n * comm.rank() / p_ranks;
    const std::size_t end = n * (comm.rank() + 1) / p_ranks;
    std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);

    ParallelConfig config;
    config.theta = 0.0;  // exact: every interaction resolved to particles
    ParallelTree solver(comm, config);
    const auto forces = solver.solve_vortex(local, kernel);

    ASSERT_EQ(forces.u.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_LT(norm(forces.u[i] - u_ref[begin + i]), 1e-12 * u_scale)
          << "rank " << comm.rank() << " particle " << i;
    }
    EXPECT_EQ(forces.timings.far, 0u);
  });
}

TEST_P(ParallelVortex, RankCountInvarianceAtFiniteTheta) {
  // theta = 0.5: results must agree with the single-rank tree solve to a
  // tolerance far below the MAC truncation (the LET is conservative, so
  // the multipole sets differ slightly between decompositions).
  const int p_ranks = GetParam();
  const std::size_t n = 600;
  double sigma;
  const auto all = sheet_particles(n, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);

  // Single-rank tree reference.
  std::vector<Vec3> u_serial(n);
  double u_scale = 0.0;
  {
    mpsim::Runtime rt;
    rt.run(1, [&](mpsim::Comm& comm) {
      ParallelConfig config;
      config.theta = 0.5;
      ParallelTree solver(comm, config);
      const auto forces = solver.solve_vortex(all, kernel);
      u_serial = forces.u;
    });
    for (const auto& u : u_serial) u_scale = std::max(u_scale, norm(u));
  }

  mpsim::Runtime rt;
  rt.run(p_ranks, [&](mpsim::Comm& comm) {
    const std::size_t begin = n * comm.rank() / p_ranks;
    const std::size_t end = n * (comm.rank() + 1) / p_ranks;
    std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);
    ParallelConfig config;
    config.theta = 0.5;
    ParallelTree solver(comm, config);
    const auto forces = solver.solve_vortex(local, kernel);
    for (std::size_t i = 0; i < local.size(); ++i) {
      // Both are theta = 0.5 approximations; they differ only through the
      // decomposition-dependent cluster sets. Bound by the MAC error scale.
      EXPECT_LT(norm(forces.u[i] - u_serial[begin + i]), 0.05 * u_scale);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelVortex, ::testing::Values(1, 2, 4));

TEST(ParallelTree, TimingsArePopulatedAndCausal) {
  const std::size_t n = 500;
  double sigma;
  const auto all = sheet_particles(n, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);
  mpsim::Runtime rt;
  rt.run(4, [&](mpsim::Comm& comm) {
    const std::size_t begin = n * comm.rank() / 4;
    const std::size_t end = n * (comm.rank() + 1) / 4;
    std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);
    ParallelConfig config;
    config.theta = 0.4;
    ParallelTree solver(comm, config);
    const auto forces = solver.solve_vortex(local, kernel);
    const auto& t = forces.timings;
    EXPECT_GT(t.domain, 0.0);
    EXPECT_GT(t.tree_build, 0.0);
    EXPECT_GT(t.branch_exchange, 0.0);
    EXPECT_GT(t.let_exchange, 0.0);
    EXPECT_GT(t.traversal, 0.0);
    EXPECT_GT(t.branch_count, 0u);
    EXPECT_GT(t.let_sent, 0u);
    EXPECT_GT(t.near + t.far, 0u);
    EXPECT_LE(t.total(), comm.clock().now() + 1e-12);
  });
}

TEST(ParallelTree, SolveIsDeterministicAcrossRuns) {
  // The LET travels point-to-point and is drained in ascending source-rank
  // order, so two identical runs must produce bitwise-identical forces and
  // identical interaction tallies regardless of message arrival order.
  const std::size_t n = 500;
  double sigma;
  const auto all = sheet_particles(n, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);
  const int p_ranks = 4;

  auto run_once = [&](std::vector<Vec3>& u, std::uint64_t& near,
                      std::uint64_t& far) {
    u.assign(n, Vec3{});
    std::atomic<std::uint64_t> near_sum{0}, far_sum{0};
    mpsim::Runtime rt;
    rt.run(p_ranks, [&](mpsim::Comm& comm) {
      const std::size_t begin = n * comm.rank() / p_ranks;
      const std::size_t end = n * (comm.rank() + 1) / p_ranks;
      std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);
      ParallelConfig config;
      config.theta = 0.4;
      ParallelTree solver(comm, config);
      const auto forces = solver.solve_vortex(local, kernel);
      for (std::size_t i = 0; i < local.size(); ++i) u[begin + i] = forces.u[i];
      near_sum.fetch_add(forces.timings.near);
      far_sum.fetch_add(forces.timings.far);
    });
    near = near_sum.load();
    far = far_sum.load();
  };

  std::vector<Vec3> u1, u2;
  std::uint64_t near1, far1, near2, far2;
  run_once(u1, near1, far1);
  run_once(u2, near2, far2);
  EXPECT_EQ(near1, near2);
  EXPECT_EQ(far1, far2);
  EXPECT_GT(near1, 0u);
  EXPECT_GT(far1, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(u1[i].x, u2[i].x) << i;
    EXPECT_EQ(u1[i].y, u2[i].y) << i;
    EXPECT_EQ(u1[i].z, u2[i].z) << i;
  }
}

TEST(ParallelTree, TraversalOverlapsLetExchangeInTrace) {
  // The point of the posted-LET restructure: every rank's traversal span
  // must open while its tree.let_exchange span is still open (local near
  // and far field evaluated with the payloads in flight), and the LET
  // window must decompose into the post and wait sub-spans.
  const std::size_t n = 500;
  double sigma;
  const auto all = sheet_particles(n, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);
  const int p_ranks = 4;

  obs::Registry registry;
  mpsim::Runtime rt;
  rt.set_registry(&registry);
  rt.run(p_ranks, [&](mpsim::Comm& comm) {
    const std::size_t begin = n * comm.rank() / p_ranks;
    const std::size_t end = n * (comm.rank() + 1) / p_ranks;
    std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);
    ParallelConfig config;
    config.theta = 0.4;
    ParallelTree solver(comm, config);
    (void)solver.solve_vortex(local, kernel);
  });

  for (const int rank : registry.ranks()) {
    EXPECT_EQ(registry.span_stat(rank, "tree.let_exchange").count, 1u);
    EXPECT_EQ(registry.span_stat(rank, "tree.let_post").count, 1u);
    EXPECT_EQ(registry.span_stat(rank, "tree.let_wait").count, 1u);
    EXPECT_EQ(registry.span_stat(rank, "tree.traversal").count, 1u);

    obs::TraceEvent let{}, traversal{};
    for (const auto& ev : registry.scope(rank).recorder()->events()) {
      if (ev.name == "tree.let_exchange") let = ev;
      if (ev.name == "tree.traversal") traversal = ev;
    }
    // Traversal starts inside the open LET window and outlives it: the
    // two spans overlap, which is exactly what the fig8 trace shows.
    EXPECT_GT(traversal.begin, let.begin) << "rank " << rank;
    EXPECT_LT(traversal.begin, let.end) << "rank " << rank;
    EXPECT_GE(traversal.end, let.end) << "rank " << rank;
  }
}

TEST(ParallelTree, CoulombSolveMatchesDirectSum) {
  const std::size_t n = 300;
  std::vector<TreeParticle> all(n);
  Rng rng(99);
  double q_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    all[i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
    all[i].q = rng.uniform(-1.0, 1.0);
    all[i].id = static_cast<std::uint32_t>(i);
    q_sum += all[i].q;
  }
  const kernels::CoulombKernel kernel(0.01);

  std::vector<double> phi_ref(n, 0.0);
  std::vector<Vec3> e_ref(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      kernel.accumulate_field(all[i].x - all[j].x, all[j].q, phi_ref[i],
                              e_ref[i]);
    }

  mpsim::Runtime rt;
  rt.run(3, [&](mpsim::Comm& comm) {
    const std::size_t begin = n * comm.rank() / 3;
    const std::size_t end = n * (comm.rank() + 1) / 3;
    std::vector<TreeParticle> local(all.begin() + begin, all.begin() + end);
    ParallelConfig config;
    config.theta = 0.0;
    ParallelTree solver(comm, config);
    const auto forces = solver.solve_coulomb(local, kernel);
    for (std::size_t i = 0; i < local.size(); ++i)
      EXPECT_NEAR(forces.phi[i], phi_ref[begin + i], 1e-10);
  });
}

std::vector<TreeParticle> coulomb_cube(std::size_t n, std::uint64_t seed) {
  std::vector<TreeParticle> all(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    all[i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
    all[i].q = (i % 2 == 0) ? 1.0 : -1.0;
    all[i].id = static_cast<std::uint32_t>(i);
  }
  return all;
}

std::vector<TreeParticle> slice(const std::vector<TreeParticle>& all,
                                const mpsim::Comm& comm) {
  const std::size_t n = all.size();
  const auto p = static_cast<std::size_t>(comm.size());
  const auto r = static_cast<std::size_t>(comm.rank());
  return {all.begin() + n * r / p, all.begin() + n * (r + 1) / p};
}

class ParallelCoulombExact : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCoulombExact, ThetaZeroMatchesDirectSummation) {
  // theta = 0: the remote walk must resolve every remote leaf to its
  // particles, so the distributed solve is the direct sum up to rounding.
  const int p_ranks = GetParam();
  const std::size_t n = 600;
  const auto all = coulomb_cube(n, 71);
  const kernels::CoulombKernel kernel(0.01);
  std::vector<double> phi_ref(n, 0.0);
  std::vector<Vec3> e_ref(n);
  double phi_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        kernel.accumulate_field(all[i].x - all[j].x, all[j].q, phi_ref[i],
                                e_ref[i]);
    phi_scale = std::max(phi_scale, std::abs(phi_ref[i]));
  }
  mpsim::Runtime rt;
  rt.run(p_ranks, [&](mpsim::Comm& comm) {
    const std::size_t begin = all.size() * comm.rank() / p_ranks;
    ParallelConfig config;
    config.theta = 0.0;
    ParallelTree solver(comm, config);
    const auto local = slice(all, comm);
    const auto forces = solver.solve_coulomb(local, kernel);
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_LT(std::abs(forces.phi[i] - phi_ref[begin + i]),
                1e-12 * phi_scale);
      EXPECT_LT(norm(forces.e[i] - e_ref[begin + i]),
                1e-12 * std::max(1.0, norm(e_ref[begin + i])));
    }
    EXPECT_EQ(forces.timings.far, 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelCoulombExact, ::testing::Values(2, 4));

TEST(ParallelTree, ShippedFrontierPassesTheMacForEveryReceiverGroup) {
  // A frontier record is accepted by the receiver without a re-test. That
  // is sound only if it passes mac_accepts against the box of every leaf
  // group the receiver evaluates.
  const auto all = coulomb_cube(3000, 72);
  const kernels::CoulombKernel kernel(0.01);
  const double theta = 0.6;
  for (const int p_ranks : {2, 4}) {
    std::mutex mu;
    std::size_t frontier = 0;
    mpsim::Runtime rt;
    rt.run(p_ranks, [&](mpsim::Comm& comm) {
      ParallelConfig config;
      config.theta = theta;
      config.inspect_let = [&](const std::vector<LeafGroup>& groups,
                               const RemoteTree& remote) {
        std::size_t mine = 0;
        for (const LetNode& node : remote.nodes) {
          if (node.kind != LetKind::kFrontier) continue;
          ++mine;
          for (const LeafGroup& g : groups)
            ASSERT_TRUE(mac_accepts(node.box_size, node.count,
                                    remote.center(node.ref), g.lo, g.hi,
                                    theta))
                << "rank " << comm.rank() << " P " << p_ranks;
        }
        const std::lock_guard<std::mutex> lock(mu);
        frontier += mine;
      };
      ParallelTree solver(comm, config);
      (void)solver.solve_coulomb(slice(all, comm), kernel);
    });
    EXPECT_GT(frontier, 0u) << "P " << p_ranks;
  }
}

TEST(ParallelTree, CoulombInteractionsStayNearTheOneRankCount) {
  // Walking the pruned remote tree per leaf group must keep the work per
  // particle close to the serial tree's: at most 1.3x the 1-rank count.
  const std::size_t n = 4000;
  const auto all = coulomb_cube(n, 73);
  const kernels::CoulombKernel kernel(1e-4);
  auto per_particle = [&](int p_ranks) {
    std::atomic<std::uint64_t> total{0};
    mpsim::Runtime rt;
    rt.run(p_ranks, [&](mpsim::Comm& comm) {
      ParallelConfig config;
      config.theta = 0.6;
      ParallelTree solver(comm, config);
      const auto t = solver.solve_coulomb(slice(all, comm), kernel).timings;
      total.fetch_add(t.near + t.far);
    });
    return static_cast<double>(total.load()) / static_cast<double>(n);
  };
  const double one = per_particle(1);
  for (const int p_ranks : {2, 4, 8}) {
    const double got = per_particle(p_ranks);
    EXPECT_LE(got, 1.3 * one) << "P " << p_ranks << ": " << got << " vs "
                              << one << " on 1 rank";
  }
}

TEST(ParallelTree, TwoPhaseSolveIsBitIdenticalAcrossRunsAndSchedulers) {
  // The remote tree is concatenated in ascending source rank and walked
  // in a fixed order, so forces must not change by a bit between runs or
  // between thread-per-rank and fiber scheduling.
  const auto all = coulomb_cube(1500, 74);
  double sigma;
  auto sheet = sheet_particles(800, &sigma);
  const kernels::CoulombKernel ckernel(0.01);
  const kernels::AlgebraicKernel vkernel(kernels::AlgebraicOrder::k6, sigma);
  const int p_ranks = 4;
  auto run_once = [&](mpsim::SchedMode mode) {
    std::vector<double> flat(all.size() * 4 + sheet.size() * 3, 0.0);
    mpsim::Runtime rt;
    mpsim::SchedConfig sched;
    sched.mode = mode;
    sched.workers = 2;
    rt.set_sched(sched);
    rt.run(p_ranks, [&](mpsim::Comm& comm) {
      ParallelConfig config;
      config.theta = 0.5;
      ParallelTree solver(comm, config);
      const auto c = solver.solve_coulomb(slice(all, comm), ckernel);
      const auto v = solver.solve_vortex(slice(sheet, comm), vkernel);
      const std::size_t cb = all.size() * comm.rank() / p_ranks;
      for (std::size_t i = 0; i < c.phi.size(); ++i) {
        flat[4 * (cb + i)] = c.phi[i];
        flat[4 * (cb + i) + 1] = c.e[i].x;
        flat[4 * (cb + i) + 2] = c.e[i].y;
        flat[4 * (cb + i) + 3] = c.e[i].z;
      }
      const std::size_t vb =
          all.size() * 4 + 3 * (sheet.size() * comm.rank() / p_ranks);
      for (std::size_t i = 0; i < v.u.size(); ++i) {
        flat[vb + 3 * i] = v.u[i].x;
        flat[vb + 3 * i + 1] = v.u[i].y;
        flat[vb + 3 * i + 2] = v.u[i].z;
      }
    });
    return flat;
  };
  const auto first = run_once(mpsim::SchedMode::kThreadPerRank);
  EXPECT_EQ(run_once(mpsim::SchedMode::kThreadPerRank), first);
  EXPECT_EQ(run_once(mpsim::SchedMode::kFiber), first);
}

TEST(ParallelTreeRhs, MatchesSerialTreeRhsAcrossDecompositions) {
  const std::size_t n = 400;
  vortex::SheetConfig config;
  config.n_particles = n;
  const auto state = vortex::spherical_vortex_sheet(config);
  const kernels::AlgebraicKernel kernel(config.kernel_order, config.sigma());

  // Serial tree RHS reference at the same theta.
  ode::State f_ref(state.size());
  vortex::TreeRhs serial(kernel, {.theta = 0.3});
  serial(0.0, state, f_ref);

  const int ps = 4;
  mpsim::Runtime rt;
  rt.run(ps, [&](mpsim::Comm& comm) {
    const std::size_t begin = n * comm.rank() / ps;
    const std::size_t end = n * (comm.rank() + 1) / ps;
    ode::State u_local(6 * (end - begin));
    for (std::size_t p = begin; p < end; ++p) {
      vortex::set_position(u_local, p - begin, vortex::position(state, p));
      vortex::set_strength(u_local, p - begin, vortex::strength(state, p));
    }
    tree::ParallelConfig cfg;
    cfg.theta = 0.3;
    vortex::ParallelTreeRhs rhs(comm, kernel, cfg, begin);
    ode::State f_local(u_local.size());
    rhs(0.0, u_local, f_local);

    double f_scale = 1e-30;
    for (double v : f_ref) f_scale = std::max(f_scale, std::abs(v));
    for (std::size_t i = 0; i < f_local.size(); ++i) {
      const double ref = f_ref[6 * begin + i];
      EXPECT_LT(std::abs(f_local[i] - ref), 0.05 * f_scale)
          << "rank " << comm.rank() << " dof " << i;
    }
  });
}

}  // namespace
}  // namespace stnb::tree
