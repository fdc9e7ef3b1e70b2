// PFASST time-transfer operators: nesting requirements, injection
// restriction, integral restriction telescoping, and polynomial
// exactness of correction interpolation — the identities the FAS
// correction (paper Eqs. 16-17) and the carried F correction rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "pfasst/transfer.hpp"

namespace stnb::pfasst {
namespace {

using ode::NodeType;
using ode::State;

std::vector<double> lobatto(int m) {
  return ode::collocation_nodes(NodeType::kGaussLobatto, m);
}

TEST(TimeTransfer, RejectsNonNestedNodeSets) {
  // Lobatto-3 interior node (0.5) is not a Lobatto-4 node.
  EXPECT_THROW(TimeTransfer(lobatto(4), lobatto(3)), std::invalid_argument);
  // Nested cases construct fine.
  EXPECT_NO_THROW(TimeTransfer(lobatto(3), lobatto(2)));
  EXPECT_NO_THROW(TimeTransfer(lobatto(5), lobatto(3)));
  EXPECT_NO_THROW(TimeTransfer(lobatto(5), lobatto(2)));
}

TEST(TimeTransfer, FineIndexMapHitsCoincidentNodes) {
  const TimeTransfer tt(lobatto(5), lobatto(3));
  EXPECT_EQ(tt.fine_index(0), 0);
  EXPECT_EQ(tt.fine_index(1), 2);  // 0.5 is the middle Lobatto-5 node
  EXPECT_EQ(tt.fine_index(2), 4);
}

TEST(TimeTransfer, RestrictionIsInjection) {
  const TimeTransfer tt(lobatto(3), lobatto(2));
  const std::vector<State> fine = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  std::vector<State> coarse(2, State(2));
  tt.restrict_values(fine, coarse);
  EXPECT_EQ(coarse[0], (State{1.0, 10.0}));
  EXPECT_EQ(coarse[1], (State{3.0, 30.0}));
}

TEST(TimeTransfer, IntegralRestrictionTelescopes) {
  // Node-to-node integrals on the fine grid must sum to the coarse
  // intervals they span: with Lobatto 5 -> 3, coarse interval 0 spans
  // fine intervals 0+1, coarse interval 1 spans fine 2+3.
  const TimeTransfer tt(lobatto(5), lobatto(3));
  const std::vector<State> fine_integrals = {{1.0}, {2.0}, {4.0}, {8.0}};
  std::vector<State> coarse(2, State(1));
  tt.restrict_integrals(fine_integrals, coarse);
  EXPECT_DOUBLE_EQ(coarse[0][0], 3.0);
  EXPECT_DOUBLE_EQ(coarse[1][0], 12.0);
}

TEST(TimeTransfer, CorrectionInterpolationIsPolynomialExact) {
  // A coarse correction sampled from a degree-(Mc-1) polynomial must be
  // reproduced exactly at the fine nodes.
  const auto coarse_nodes = lobatto(3);
  const auto fine_nodes = lobatto(5);
  const TimeTransfer tt(fine_nodes, coarse_nodes);
  auto poly = [](double t) { return 2.0 - 3.0 * t + 0.5 * t * t; };

  std::vector<State> delta(3, State(1));
  for (int m = 0; m < 3; ++m) delta[m][0] = poly(coarse_nodes[m]);
  std::vector<State> fine(5, State(1, 0.0));
  tt.interpolate_correction(delta, fine);
  for (int m = 0; m < 5; ++m)
    EXPECT_NEAR(fine[m][0], poly(fine_nodes[m]), 1e-13) << "node " << m;
}

TEST(TimeTransfer, InterpolationAddsRatherThanOverwrites) {
  const TimeTransfer tt(lobatto(3), lobatto(2));
  std::vector<State> delta = {{1.0}, {1.0}};  // constant correction
  std::vector<State> fine = {{10.0}, {20.0}, {30.0}};
  tt.interpolate_correction(delta, fine);
  EXPECT_DOUBLE_EQ(fine[0][0], 11.0);
  EXPECT_DOUBLE_EQ(fine[1][0], 21.0);
  EXPECT_DOUBLE_EQ(fine[2][0], 31.0);
}

TEST(TimeTransfer, RoundTripRestrictionOfInterpolationIsIdentity) {
  // R P = I on the coarse space (injection at nested nodes).
  const TimeTransfer tt(lobatto(5), lobatto(3));
  const std::vector<State> coarse_in = {{0.7}, {-1.3}, {2.2}};
  std::vector<State> fine(5, State(1, 0.0));
  tt.interpolate_correction(coarse_in, fine);
  std::vector<State> coarse_out(3, State(1));
  tt.restrict_values(fine, coarse_out);
  for (int m = 0; m < 3; ++m)
    EXPECT_NEAR(coarse_out[m][0], coarse_in[m][0], 1e-13);
}

TEST(TimeTransfer, CarriedFCorrectionOfALinearRhsIsTheRhsOfCarriedU) {
  // The PFASST up-cycle adds P(U_C - u_pre) to the fine U and
  // P(F_C - f_pre) to the fine F instead of re-evaluating it. With one
  // linear f = lambda u on both levels, F_C - f_pre = lambda (U_C - u_pre),
  // so the carried F is exactly f(U) at every fine node (up to rounding).
  const double lambda = -0.75;
  const ode::RhsFn linear = [&](double, const State& u, State& f) {
    for (std::size_t i = 0; i < u.size(); ++i) f[i] = lambda * u[i];
  };
  const double t0 = 0.5, dt = 0.25;
  const TimeTransfer tt(lobatto(5), lobatto(3));
  ode::SdcSweeper fine(lobatto(5), 2);
  ode::SdcSweeper coarse(lobatto(3), 2);
  fine.set_values({{1.0, -2.0}, {0.9, -1.7}, {0.8, -1.9}, {0.85, -1.6},
                   {0.7, -1.5}});
  fine.refresh(t0, dt, linear);

  std::vector<State> u_pre(3, State(2));
  tt.restrict_values(fine.values(), u_pre);
  coarse.set_values(u_pre);
  coarse.refresh(t0, dt, linear);
  const std::vector<State> f_pre = coarse.f_values();
  coarse.set_initial({1.1, -2.2});  // a received initial value
  coarse.sweep(t0, dt, linear);
  coarse.sweep(t0, dt, linear);
  coarse.refresh(t0, dt, linear);

  std::vector<State> du = coarse.values(), df = coarse.f_values();
  for (int m = 0; m < 3; ++m) {
    ode::axpy(-1.0, u_pre[m], du[m]);
    ode::axpy(-1.0, f_pre[m], df[m]);
  }
  std::vector<State> fine_u = fine.values(), fine_f = fine.f_values();
  tt.interpolate_correction(du, fine_u);
  tt.interpolate_correction(df, fine_f);
  fine.set_values_with_f(fine_u, fine_f);

  for (int m = 0; m < 5; ++m) {
    for (int i = 0; i < 2; ++i) {
      const double expect = lambda * fine.u(m)[i];
      EXPECT_LE(std::abs(fine.f_values()[m][i] - expect),
                1e-13 * std::abs(expect))
          << "node " << m << " component " << i;
    }
  }
}

class TransferPairs
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TransferPairs, UniformAndLobattoFamiliesNestCorrectly) {
  const auto [fine_m, coarse_m] = GetParam();
  const TimeTransfer tt(lobatto(fine_m), lobatto(coarse_m));
  EXPECT_EQ(tt.coarse_count(), coarse_m);
  // Every mapped fine node must coincide with its coarse node.
  const auto fn = lobatto(fine_m);
  const auto cn = lobatto(coarse_m);
  for (int m = 0; m < coarse_m; ++m)
    EXPECT_NEAR(fn[tt.fine_index(m)], cn[m], 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Nested, TransferPairs,
                         // Note: Lobatto sets nest only at endpoints +
                         // midpoint (odd counts); e.g. 5-in-9 does NOT
                         // nest — interior Lobatto nodes differ per M.
                         ::testing::Values(std::pair{3, 2}, std::pair{5, 3},
                                           std::pair{5, 2}, std::pair{9, 3},
                                           std::pair{3, 3}),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param.first) +
                                  "c" + std::to_string(info.param.second);
                         });

}  // namespace
}  // namespace stnb::pfasst
