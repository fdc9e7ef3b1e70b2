// PFASST controller and parareal: convergence to the fine collocation
// solution, iteration contraction, order behavior vs serial SDC (the
// scalar-ODE analogue of Fig. 7b), multi-level runs, and the Fig. 6
// communication schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mpsim/comm.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "pfasst/controller.hpp"
#include "pfasst/parareal.hpp"

namespace stnb::pfasst {
namespace {

using ode::NodeType;
using ode::State;

// Nonlinear scalar test problem: u' = -u^2 + sin(t), mildly stiff-free.
void test_rhs(double t, const State& u, State& f) {
  for (std::size_t i = 0; i < u.size(); ++i)
    f[i] = -u[i] * u[i] + std::sin(t);
}

// A "coarser" RHS with a perturbation, standing in for a cheaper spatial
// approximation (like a larger MAC theta in the tree code).
void coarse_rhs(double t, const State& u, State& f) {
  test_rhs(t, u, f);
  for (auto& v : f) v += 1e-3 * std::cos(3 * t);
}

State serial_collocation_reference(double t0, double dt, int nsteps,
                                   const State& u0) {
  ode::SdcSweeper sw(ode::collocation_nodes(NodeType::kGaussLobatto, 3),
                     u0.size());
  return sdc_integrate(sw, test_rhs, u0, t0, dt, nsteps, 25);
}

std::vector<Level> two_levels(int fine_sweeps = 1, int coarse_sweeps = 2,
                              bool perturbed_coarse = true) {
  Level fine{ode::collocation_nodes(NodeType::kGaussLobatto, 3), test_rhs,
             fine_sweeps};
  Level coarse{ode::collocation_nodes(NodeType::kGaussLobatto, 2),
               perturbed_coarse ? coarse_rhs : test_rhs, coarse_sweeps};
  return {fine, coarse};
}

TEST(Pfasst, SingleRankReducesToMultiLevelSdc) {
  // P_T = 1: no pipeline; the controller is a two-level MLSDC that must
  // converge to the fine collocation solution.
  mpsim::Runtime rt;
  rt.run(1, [&](mpsim::Comm& comm) {
    Pfasst pfasst(comm, two_levels(), {/*iterations=*/10, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.25, 4);
    const State ref = serial_collocation_reference(0.0, 0.25, 4, {1.0});
    EXPECT_NEAR(result.u_end[0], ref[0], 1e-10);
  });
}

class PfasstRanks : public ::testing::TestWithParam<int> {};

TEST_P(PfasstRanks, ConvergesToFineCollocationSolution) {
  const int pt = GetParam();
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    Pfasst pfasst(comm, two_levels(), {/*iterations=*/pt + 6, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.2, pt);
    const State ref = serial_collocation_reference(0.0, 0.2, pt, {1.0});
    EXPECT_NEAR(result.u_end[0], ref[0], 1e-9) << "P_T = " << pt;
  });
}

TEST_P(PfasstRanks, IterationDeltasContract) {
  // The inter-iteration increment (the paper's Sec. IV-B residual
  // monitor) must shrink essentially monotonically on every rank.
  const int pt = GetParam();
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    Pfasst pfasst(comm, two_levels(), {/*iterations=*/8, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.2, pt);
    const auto& stats = result.stats.at(0);
    ASSERT_EQ(stats.size(), 8u);
    EXPECT_LT(stats.back().delta, 1e-8);
    EXPECT_LT(stats.back().delta, stats.front().delta * 1e-3 + 1e-14);
  });
}

TEST_P(PfasstRanks, MultipleBlocksMatchSingleLongRun) {
  // Windowed mode: nsteps = 2 blocks of P_T slices each.
  const int pt = GetParam();
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    Pfasst pfasst(comm, two_levels(), {pt + 6, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.2, 2 * pt);
    const State ref = serial_collocation_reference(0.0, 0.2, 2 * pt, {1.0});
    EXPECT_NEAR(result.u_end[0], ref[0], 1e-8);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PfasstRanks, ::testing::Values(2, 4, 8));

TEST(Pfasst, ThreeLevelHierarchyConverges) {
  // 5-3-2 nested Lobatto levels (Eq. 17a-c: cumulative FAS).
  mpsim::Runtime rt;
  rt.run(4, [&](mpsim::Comm& comm) {
    std::vector<Level> levels = {
        {ode::collocation_nodes(NodeType::kGaussLobatto, 5), test_rhs, 1},
        {ode::collocation_nodes(NodeType::kGaussLobatto, 3), test_rhs, 1},
        {ode::collocation_nodes(NodeType::kGaussLobatto, 2), coarse_rhs, 2},
    };
    Pfasst pfasst(comm, levels, {/*iterations=*/12, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.25, 4);

    ode::SdcSweeper sw(ode::collocation_nodes(NodeType::kGaussLobatto, 5), 1);
    const State ref = sdc_integrate(sw, test_rhs, {1.0}, 0.0, 0.25, 4, 30);
    EXPECT_NEAR(result.u_end[0], ref[0], 1e-9);
  });
}

TEST(Pfasst, TwoIterationsReachFourthOrderAccuracy) {
  // The scalar analogue of Fig. 7b: PFASST(2, 2, 8) should track SDC(4)'s
  // error level, and errors should drop steeply under dt refinement.
  auto pfasst_error = [&](double dt) {
    double err = 0.0;
    mpsim::Runtime rt;
    rt.run(8, [&](mpsim::Comm& comm) {
      Pfasst pfasst(comm, two_levels(1, 2, false), {/*iterations=*/2, true});
      const int nsteps = static_cast<int>(std::round(4.0 / dt));
      const auto result = pfasst.run({1.0}, 0.0, dt, nsteps);
      if (comm.rank() == 0) {
        ode::SdcSweeper sw(
            ode::collocation_nodes(NodeType::kGaussLobatto, 3), 1);
        const State ref =
            sdc_integrate(sw, test_rhs, {1.0}, 0.0, dt / 8, nsteps * 8, 8);
        err = std::abs(result.u_end[0] - ref[0]);
      }
    });
    return err;
  };
  const double e1 = pfasst_error(0.5);
  const double e2 = pfasst_error(0.25);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 2.5);  // >= third order observed; nominal ~4
  EXPECT_LT(e2, 5e-5);
}

TEST(Pfasst, RejectsNonDivisibleStepCount) {
  mpsim::Runtime rt;
  rt.run(4, [&](mpsim::Comm& comm) {
    Pfasst pfasst(comm, two_levels(), {2, true});
    EXPECT_THROW(pfasst.run({1.0}, 0.0, 0.1, 5), std::invalid_argument);
  });
}

TEST(Pfasst, RhsEvaluationCountsScaleWithIterations) {
  mpsim::Runtime rt;
  rt.run(2, [&](mpsim::Comm& comm) {
    Pfasst p2(comm, two_levels(), {2, true});
    const auto r2 = p2.run({1.0}, 0.0, 0.2, 2);
    Pfasst p6(comm, two_levels(), {6, true});
    const auto r6 = p6.run({1.0}, 0.0, 0.2, 2);
    EXPECT_GT(r6.rhs_evaluations, 2 * r2.rhs_evaluations);
  });
}

// Per-rank RHS call log: the level of every call, in call order.
ode::RhsFn logged(ode::RhsFn rhs, std::vector<int>& log, int level) {
  return [rhs = std::move(rhs), &log, level](double t, const State& u,
                                             State& f) {
    log.push_back(level);
    rhs(t, u, f);
  };
}

long calls_on(const std::vector<int>& log, int level) {
  return std::count(log.begin(), log.end(), level);
}

TEST(Pfasst, RhsEvaluationCountsAreExact) {
  // F is evaluated only where a sweep, the residual or the FAS assembly
  // reads it, and the up-cycle interpolates the coarse F correction along
  // with U. A sweep re-evaluates the interior nodes and leaves its last
  // node stale. Per rank r and block (M = intervals, n = sweeps, K
  // iterations, fault-free, 2 levels):
  //   fine:   (M_F + 1) + (K - 1)(M_F + [r > 0]), i.e. K(M_F + 1) for
  //           r > 0 and (M_F + 1) + (K - 1)M_F for r = 0. Each iteration
  //           evaluates node 0 (stale after the predictor, and after every
  //           received initial value; rank 0 carries a zero correction
  //           there), the M_F - 1 interior nodes in the sweep, and node M
  //           after the forward-send. Nothing is evaluated after the last
  //           iteration of a block.
  //   coarse: the predictor's 1 + (r + 1)M_C + r - 1, plus 1 for the last
  //           node before its interpolation; per iteration M_C + 1 after
  //           restriction, 1 for a received initial value (r > 0),
  //           n_C M_C - 1 in the sweeps, plus 1 for the last node before
  //           the F correction is interpolated (not in the last iteration).
  const int pt = 4, blocks = 2, k_iter = 3;
  const int mf = 2, mc = 1, nc = 2;  // Lobatto 3 / Lobatto 2, 2 sweeps
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    const int r = comm.rank();
    std::vector<int> log;
    std::vector<Level> levels = two_levels(1, nc);
    for (int l = 0; l < 2; ++l) levels[l].rhs = logged(levels[l].rhs, log, l);
    Pfasst pfasst(comm, levels, {k_iter, true});
    const auto result = pfasst.run({1.0}, 0.0, 0.2, blocks * pt);
    const long per_iteration_coarse = (mc + 1) + (r > 0) + nc * mc - 1;
    EXPECT_EQ(calls_on(log, 0),
              blocks * ((mf + 1) + (k_iter - 1) * (mf + (r > 0))));
    EXPECT_EQ(calls_on(log, 1),
              blocks * (1 + (r + 1) * mc + r - 1 + 1 +
                        k_iter * per_iteration_coarse + (k_iter - 1)));
    EXPECT_EQ(result.rhs_evaluations, static_cast<long>(log.size()));
  });

  // Three levels (5-3-2, M = 4/2/1, the coarsest with 2 sweeps): the
  // predictor interpolates U and F onto the middle level, and the next
  // restriction overwrites both, so the middle level's first call is the
  // refresh after the first restriction, which follows the first fine
  // sweep. Per iteration the middle level makes M + 1 calls at
  // restriction, M in its down sweep and node M, 1 + [r > 0] in its up
  // sweep, and 1 for node M before its F correction goes up to the fine
  // level (not in the last iteration). Its own correction from the
  // coarsest level is always carried, so the coarsest level's node M is
  // refreshed every iteration.
  rt.run(pt, [&](mpsim::Comm& comm) {
    const int r = comm.rank();
    std::vector<int> log;
    std::vector<Level> levels = {
        {ode::collocation_nodes(NodeType::kGaussLobatto, 5), test_rhs, 1},
        {ode::collocation_nodes(NodeType::kGaussLobatto, 3), test_rhs, 1},
        {ode::collocation_nodes(NodeType::kGaussLobatto, 2), coarse_rhs, 2},
    };
    for (int l = 0; l < 3; ++l) levels[l].rhs = logged(levels[l].rhs, log, l);
    Pfasst pfasst(comm, levels, {k_iter, true});
    pfasst.run({1.0}, 0.0, 0.2, pt);
    const auto first = [&](int level) {
      return std::find(log.begin(), log.end(), level) - log.begin();
    };
    EXPECT_LT(first(0), first(1));
    EXPECT_EQ(calls_on(log, 0), 5 + (k_iter - 1) * (4 + (r > 0)));
    EXPECT_EQ(calls_on(log, 1), k_iter * (3 + 3 + (r > 0)) + (k_iter - 1));
    EXPECT_EQ(calls_on(log, 2),
              1 + 2 * r + 1 + k_iter * (2 + (r > 0) + 1 + 1));
  });

  // No predictor: the fine spread is fresh (1 call instead of node 0's),
  // and mirror_to_coarse leaves the coarse F stale for the iteration-0
  // restriction to overwrite.
  rt.run(pt, [&](mpsim::Comm& comm) {
    const int r = comm.rank();
    std::vector<int> log;
    std::vector<Level> levels = two_levels(1, nc);
    for (int l = 0; l < 2; ++l) levels[l].rhs = logged(levels[l].rhs, log, l);
    Pfasst pfasst(comm, levels, {k_iter, false});
    pfasst.run({1.0}, 0.0, 0.2, pt);
    EXPECT_EQ(calls_on(log, 0), (mf + 1) + (k_iter - 1) * (mf + (r > 0)));
    EXPECT_EQ(calls_on(log, 1),
              k_iter * ((mc + 1) + (r > 0) + nc * mc - 1) + (k_iter - 1));
  });
}

TEST(Pfasst, FineResidualFallsOverIterations) {
  // IterationStats::fine_residual is the fine collocation residual right
  // after the fine sweeps; on u' = -u it must fall by 10^3 in 6 iterations
  // on every time slice.
  const ode::RhsFn linear = [](double, const State& u, State& f) {
    for (std::size_t i = 0; i < u.size(); ++i) f[i] = -u[i];
  };
  mpsim::Runtime rt;
  rt.run(4, [&](mpsim::Comm& comm) {
    std::vector<Level> levels = {
        {ode::collocation_nodes(NodeType::kGaussLobatto, 3), linear, 1},
        {ode::collocation_nodes(NodeType::kGaussLobatto, 2), linear, 2},
    };
    Pfasst pfasst(comm, levels, {/*iterations=*/6, true});
    const auto stats = pfasst.run({1.0}, 0.0, 0.2, 4).stats.at(0);
    ASSERT_EQ(stats.size(), 6u);
    EXPECT_GT(stats.front().fine_residual, 0.0);
    EXPECT_LE(stats.back().fine_residual, 1e-3 * stats.front().fine_residual)
        << "time slice " << comm.rank();
  });
}

// ---------------------------------------------------------------------------
// Parareal
// ---------------------------------------------------------------------------

Propagator sdc_propagator(int sweeps, int nodes, ode::RhsFn rhs) {
  return [sweeps, nodes, rhs](double t, double dt, const State& u) {
    ode::SdcSweeper sw(
        ode::collocation_nodes(NodeType::kGaussLobatto, nodes), u.size());
    return sdc_integrate(sw, rhs, u, t, dt, 1, sweeps);
  };
}

TEST(Parareal, ExactAfterAsManyIterationsAsRanks) {
  // Finite-termination property: after K = P_T iterations parareal
  // reproduces the serial fine propagation exactly.
  const int pt = 4;
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    auto fine = sdc_propagator(6, 3, test_rhs);
    auto coarse = sdc_propagator(1, 2, coarse_rhs);
    Parareal parareal(comm, coarse, fine, /*iterations=*/pt);
    const auto result = parareal.run({1.0}, 0.0, 0.25, pt);

    State u = {1.0};
    for (int n = 0; n < pt; ++n) u = fine(0.25 * n, 0.25, u);
    EXPECT_NEAR(result.u_end[0], u[0], 1e-13);
  });
}

TEST(Parareal, IncrementsContractBeforeExactness) {
  const int pt = 8;
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    auto fine = sdc_propagator(6, 3, test_rhs);
    auto coarse = sdc_propagator(1, 2, coarse_rhs);
    Parareal parareal(comm, coarse, fine, /*iterations=*/5);
    const auto result = parareal.run({1.0}, 0.0, 0.2, pt);
    if (comm.rank() == pt - 1) {
      const auto& inc = result.increments.at(0);
      ASSERT_EQ(inc.size(), 5u);
      EXPECT_LT(inc.back(), inc.front());
    }
  });
}

TEST(Parareal, MatchesPfasstOnSameProblem) {
  // Both time-parallel methods must agree with the serial fine solution
  // (and hence each other) once converged.
  const int pt = 4;
  mpsim::Runtime rt;
  rt.run(pt, [&](mpsim::Comm& comm) {
    auto fine = sdc_propagator(20, 3, test_rhs);
    auto coarse = sdc_propagator(1, 2, coarse_rhs);
    Parareal parareal(comm, coarse, fine, pt);
    const auto pr = parareal.run({1.0}, 0.0, 0.25, pt);

    Pfasst pfasst(comm, two_levels(), {pt + 6, true});
    const auto pf = pfasst.run({1.0}, 0.0, 0.25, pt);
    EXPECT_NEAR(pr.u_end[0], pf.u_end[0], 1e-8);
  });
}

}  // namespace
}  // namespace stnb::pfasst
