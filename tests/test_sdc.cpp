// SDC sweeper: convergence orders vs sweep count (paper Fig. 7a is the
// N-body version of exactly this), fixed-point property of the collocation
// solution, residual behavior, and RK baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "ode/nodes.hpp"
#include "ode/rk.hpp"
#include "ode/sdc.hpp"

namespace stnb::ode {
namespace {

// u' = lambda u on a 2-vector (decoupled), exact solution known.
const double kLambda = -1.0;
void linear_rhs(double /*t*/, const State& u, State& f) {
  for (size_t i = 0; i < u.size(); ++i) f[i] = kLambda * u[i];
}

// Nonlinear scalar: u' = -u^2, u(0)=1 -> u(t) = 1/(1+t).
void riccati_rhs(double /*t*/, const State& u, State& f) {
  f[0] = -u[0] * u[0];
}

// Harmonic oscillator (x, v): conserves energy, exact solution known.
void oscillator_rhs(double /*t*/, const State& u, State& f) {
  f[0] = u[1];
  f[1] = -u[0];
}

double convergence_order(const std::function<double(double)>& error_of_dt,
                         double dt0) {
  // Fit the slope between dt0 and dt0/2 (Richardson-style order estimate).
  const double e1 = error_of_dt(dt0);
  const double e2 = error_of_dt(dt0 / 2.0);
  return std::log2(e1 / e2);
}

class SdcOrder : public ::testing::TestWithParam<int> {};

TEST_P(SdcOrder, SweepCountSetsConvergenceOrder) {
  // K sweeps of first-order corrections yield order K (bounded by the
  // quadrature order; 3 Lobatto nodes support up to order 4).
  const int sweeps = GetParam();
  auto error_of_dt = [&](double dt) {
    SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
    const int nsteps = static_cast<int>(std::round(1.0 / dt));
    const State u = sdc_integrate(sw, riccati_rhs, {1.0}, 0.0, dt, nsteps,
                                  sweeps);
    return std::abs(u[0] - 0.5);
  };
  const double order = convergence_order(error_of_dt, 0.05);
  EXPECT_GT(order, sweeps - 0.4) << "SDC(" << sweeps << ")";
  EXPECT_LT(order, sweeps + 0.9) << "SDC(" << sweeps << ")";
}

INSTANTIATE_TEST_SUITE_P(Sweep, SdcOrder, ::testing::Values(1, 2, 3, 4));

TEST(Sdc, ManySweepsReachCollocationAccuracy) {
  // With enough sweeps SDC converges to the collocation solution, whose
  // order for M Lobatto nodes is 2M-2 (= 4 for M = 3): a single dt = 0.1
  // step of the linear problem should be accurate to ~dt^5 locally.
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 2);
  State u0 = {1.0, 2.0};
  const State u = sdc_integrate(sw, linear_rhs, u0, 0.0, 0.1, 1, 12);
  // The collocation solution itself differs from exp by O(dt^5) locally;
  // 1.3e-8 at dt = 0.1 is the collocation error, not an SDC artifact.
  const double exact = std::exp(kLambda * 0.1);
  EXPECT_NEAR(u[0], 1.0 * exact, 5e-8);
  EXPECT_NEAR(u[1], 2.0 * exact, 1e-7);
}

TEST(Sdc, ResidualDecreasesPerSweep) {
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 5), 2);
  sw.set_initial({1.0, 0.0});
  sw.spread(0.0, oscillator_rhs);
  double prev = sw.residual(0.5);
  for (int k = 0; k < 8; ++k) {
    sw.sweep(0.0, 0.5, oscillator_rhs);
    sw.refresh(0.0, 0.5, oscillator_rhs);  // the sweep left F_M stale
    const double r = sw.residual(0.5);
    EXPECT_LT(r, prev * 0.9) << "sweep " << k;
    prev = r;
  }
  // Explicit sweeps contract by roughly dt per sweep; drive further down
  // and check the residual reaches roundoff levels eventually.
  for (int k = 0; k < 24; ++k) sw.sweep(0.0, 0.5, oscillator_rhs);
  sw.refresh(0.0, 0.5, oscillator_rhs);
  EXPECT_LT(sw.residual(0.5), 1e-12);
}

TEST(Sdc, CollocationSolutionIsSweepFixedPoint) {
  // Drive residual to roundoff, then one more sweep must not move the
  // solution (beyond roundoff): Eq. (13)'s correction vanishes at the
  // collocation fixed point.
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  sw.set_initial({1.0});
  sw.spread(0.0, riccati_rhs);
  for (int k = 0; k < 30; ++k) sw.sweep(0.0, 0.3, riccati_rhs);
  const State before = sw.end_value();
  sw.sweep(0.0, 0.3, riccati_rhs);
  EXPECT_NEAR(before[0], sw.end_value()[0], 1e-14);
}

TEST(Sdc, TauShiftsFixedPoint) {
  // A constant FAS correction tau on each interval shifts the computed
  // update by exactly sum(tau) at the end node after convergence for a
  // linear-in-u problem with lambda = 0 (pure quadrature).
  auto zero_rhs = [](double, const State&, State& f) { f[0] = 0.0; };
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  sw.set_initial({1.0});
  sw.set_tau({State{0.25}, State{0.5}});
  sw.spread(0.0, zero_rhs);
  for (int k = 0; k < 5; ++k) sw.sweep(0.0, 1.0, zero_rhs);
  EXPECT_NEAR(sw.end_value()[0], 1.0 + 0.75, 1e-13);
}

TEST(Sdc, RhsEvaluationCountsAreExact) {
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  sw.set_initial({1.0});
  sw.spread(0.0, riccati_rhs);  // 1 eval
  EXPECT_EQ(sw.rhs_evaluations(), 1);
  sw.sweep(0.0, 0.1, riccati_rhs);  // M - 1 = 1 eval, F_M left stale
  EXPECT_EQ(sw.rhs_evaluations(), 2);
  sw.sweep(0.0, 0.1, riccati_rhs);  // stale F_M, then M - 1 again
  EXPECT_EQ(sw.rhs_evaluations(), 4);
  sw.refresh(0.0, 0.1, riccati_rhs);  // F_M for a reader
  EXPECT_EQ(sw.rhs_evaluations(), 5);
}

TEST(Sdc, LazyLastNodeIsBitIdenticalToEagerSweeps) {
  // Leaving F_M stale after a sweep only moves its evaluation: node values
  // must match, bit for bit, a run that refreshes after every sweep (the
  // eager evaluation order).
  SdcSweeper lazy(collocation_nodes(NodeType::kGaussLobatto, 5), 2);
  SdcSweeper eager(collocation_nodes(NodeType::kGaussLobatto, 5), 2);
  for (SdcSweeper* sw : {&lazy, &eager}) {
    sw->set_initial({1.0, 0.0});
    sw->spread(0.0, oscillator_rhs);
  }
  for (int k = 0; k < 6; ++k) {
    lazy.sweep(0.0, 0.5, oscillator_rhs);
    eager.sweep(0.0, 0.5, oscillator_rhs);
    eager.refresh(0.0, 0.5, oscillator_rhs);
    for (int m = 0; m < lazy.num_nodes(); ++m)
      EXPECT_EQ(lazy.u(m), eager.u(m)) << "sweep " << k << " node " << m;
  }
  // The eager run paid for one F_M per sweep that nothing read.
  EXPECT_EQ(eager.rhs_evaluations() - lazy.rhs_evaluations(), 1);

  // Serial SDC(4) on 3 Lobatto nodes: spread 1 + first sweep 1 + three
  // sweeps of stale F_M + 1 = 8 RHS calls per step (9 if eager).
  SdcSweeper sdc4(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  const State u = sdc_integrate(sdc4, riccati_rhs, {1.0}, 0.0, 0.1, 5, 4);
  EXPECT_EQ(sdc4.rhs_evaluations(), 5 * 8);
  SdcSweeper eager4(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  State v = {1.0};
  for (int step = 0; step < 5; ++step) {
    eager4.set_initial(v);
    eager4.spread(step * 0.1, riccati_rhs);
    for (int k = 0; k < 4; ++k) {
      eager4.sweep(step * 0.1, 0.1, riccati_rhs);
      eager4.refresh(step * 0.1, 0.1, riccati_rhs);
    }
    v = eager4.end_value();
  }
  EXPECT_EQ(u, v);
  EXPECT_EQ(eager4.rhs_evaluations(), 5 * 9);
}

TEST(Sdc, StaleNodesAreEvaluatedExactlyOnce) {
  // Writing U marks F stale; refresh/sweep evaluate exactly the stale
  // nodes, in node order, before anything reads F.
  std::vector<double> times;
  const RhsFn rhs = [&](double t, const State& u, State& f) {
    times.push_back(t);
    riccati_rhs(t, u, f);
  };
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  sw.set_initial({1.0});
  sw.spread(0.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{0.0}));

  // A new initial value: the sweep evaluates node 0, then nodes 1..M-1,
  // and leaves node M stale.
  times.clear();
  sw.set_initial({0.9});
  sw.sweep(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5}));
  sw.refresh(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5, 3.0}));

  // New values everywhere: refresh evaluates all M+1 nodes once; a second
  // refresh evaluates nothing, and the sweep only its M-1 inner new nodes.
  times.clear();
  sw.set_values({State{1.0}, State{0.8}, State{0.7}});
  sw.refresh(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5, 3.0}));
  sw.refresh(2.0, 1.0, rhs);
  EXPECT_EQ(times.size(), 3u);
  sw.sweep(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5, 3.0, 2.5}));
  sw.refresh(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5, 3.0, 2.5, 3.0}));
  EXPECT_EQ(sw.rhs_evaluations(), 9);

  EXPECT_THROW(sw.set_values({State{1.0}}), std::invalid_argument);
}

TEST(Sdc, SettingValuesWithFLeavesEveryNodeFresh) {
  // U and F replaced together are fresh: F reads back as set, and nothing
  // is evaluated until set_initial re-stales node 0. A sweep then
  // evaluates node 0 and the interior nodes only, and uses the stored F
  // at nodes 1..M as iterate k's.
  std::vector<double> times;
  const RhsFn rhs = [&](double t, const State& u, State& f) {
    times.push_back(t);
    riccati_rhs(t, u, f);
  };
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  const std::vector<State> u = {State{1.0}, State{0.8}, State{0.7}};
  const std::vector<State> f = {State{-1.0}, State{-0.6}, State{-0.5}};
  sw.set_values_with_f(u, f);
  EXPECT_EQ(sw.values(), u);
  EXPECT_EQ(sw.f_values(), f);
  sw.refresh(2.0, 1.0, rhs);
  EXPECT_TRUE(times.empty());
  EXPECT_NO_THROW(sw.residual(1.0));

  sw.set_initial({0.9});
  EXPECT_THROW(sw.f_values(), std::logic_error);
  EXPECT_THROW(sw.residual(1.0), std::logic_error);
  sw.sweep(2.0, 1.0, rhs);
  EXPECT_EQ(times, (std::vector<double>{2.0, 2.5}));
  EXPECT_EQ(sw.rhs_evaluations(), 2);

  // The sweep read the stored F: the same sweep from U with every F
  // evaluated instead ends elsewhere.
  SdcSweeper evaluated(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  evaluated.set_values(u);
  evaluated.set_initial({0.9});
  evaluated.sweep(2.0, 1.0, riccati_rhs);
  EXPECT_EQ(evaluated.rhs_evaluations(), 4);
  EXPECT_NE(evaluated.end_value(), sw.end_value());

  EXPECT_THROW(sw.set_values_with_f(u, {State{1.0}}), std::invalid_argument);
  EXPECT_THROW(sw.set_values_with_f(u, {State{1.0}, State{}, State{1.0}}),
               std::invalid_argument);
}

TEST(Sdc, ReadingStaleFThrows) {
  SdcSweeper sw(collocation_nodes(NodeType::kGaussLobatto, 3), 1);
  EXPECT_THROW(sw.residual(0.1), std::logic_error);  // F never evaluated
  sw.set_initial({1.0});
  sw.spread(0.0, riccati_rhs);
  EXPECT_NO_THROW(sw.residual(0.1));
  EXPECT_NO_THROW(sw.integrate_node_to_node(0.1, true));

  sw.set_initial({0.5});
  EXPECT_THROW(sw.residual(0.1), std::logic_error);
  EXPECT_THROW(sw.integrate_node_to_node(0.1, false), std::logic_error);
  sw.refresh(0.0, 0.1, riccati_rhs);
  EXPECT_NO_THROW(sw.residual(0.1));

  sw.set_values({State{1.0}, State{0.9}, State{0.8}});
  EXPECT_THROW(sw.integrate_node_to_node(0.1, true), std::logic_error);
  sw.sweep(0.0, 0.1, riccati_rhs);  // leaves F_M stale
  EXPECT_THROW(sw.residual(0.1), std::logic_error);
  sw.refresh(0.0, 0.1, riccati_rhs);
  EXPECT_NO_THROW(sw.integrate_node_to_node(0.1, true));
}

TEST(Sdc, RejectsNodesNotSpanningUnitInterval) {
  EXPECT_THROW(SdcSweeper(collocation_nodes(NodeType::kGaussLegendre, 3), 1),
               std::invalid_argument);
}

struct RkCase {
  const char* name;
  ButcherTableau tableau;
  double expected_order;
};

// Print a case by name. gtest's default byte dump would include the address
// of `name`, so the listed test names would change from run to run.
void PrintTo(const RkCase& c, std::ostream* os) { *os << c.name; }

class RkOrder : public ::testing::TestWithParam<RkCase> {};

TEST_P(RkOrder, ConvergesAtDesignOrder) {
  const auto& param = GetParam();
  auto error_of_dt = [&](double dt) {
    RungeKutta rk(param.tableau, 1);
    const int nsteps = static_cast<int>(std::round(1.0 / dt));
    const State u = rk.integrate(riccati_rhs, {1.0}, 0.0, dt, nsteps);
    return std::abs(u[0] - 0.5);
  };
  const double order = convergence_order(error_of_dt, 0.02);
  EXPECT_GT(order, param.expected_order - 0.35) << param.name;
  EXPECT_LT(order, param.expected_order + 0.9) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RkOrder,
    ::testing::Values(RkCase{"euler", ButcherTableau::forward_euler(), 1.0},
                      RkCase{"heun2", ButcherTableau::heun2(), 2.0},
                      RkCase{"ssp3", ButcherTableau::ssp_rk3(), 3.0},
                      RkCase{"rk4", ButcherTableau::classical_rk4(), 4.0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Rk, OscillatorEnergyDriftIsSmallAtOrder4) {
  RungeKutta rk(ButcherTableau::classical_rk4(), 2);
  const State u = rk.integrate(oscillator_rhs, {1.0, 0.0}, 0.0, 0.01, 628);
  const double energy = u[0] * u[0] + u[1] * u[1];
  EXPECT_NEAR(energy, 1.0, 1e-9);
}

}  // namespace
}  // namespace stnb::ode
