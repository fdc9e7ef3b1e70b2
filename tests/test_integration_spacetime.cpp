// End-to-end integration: the full space-time parallel stack (simulated
// MPI world split into space x time communicators, distributed tree-code
// RHS with MAC coarsening, PFASST pipeline) must reproduce the serial
// reference (serial tree RHS + serial SDC) on the paper's model problem.
// This is the whole paper in one test.
#include <gtest/gtest.h>

#include <cmath>

#include "mpsim/comm.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "pfasst/controller.hpp"
#include "vortex/diagnostics.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/rhs_tree.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

namespace stnb {
namespace {

struct GridCase {
  int pt;
  int ps;
};

class SpaceTime : public ::testing::TestWithParam<GridCase> {};

TEST_P(SpaceTime, PfasstPlusParallelTreeMatchesSerialReference) {
  const auto [pt, ps] = GetParam();
  const std::size_t n = 240;
  const double dt = 0.5;
  const int nsteps = 4;

  vortex::SheetConfig config;
  config.n_particles = n;
  const ode::State global = vortex::spherical_vortex_sheet(config);
  const kernels::AlgebraicKernel kernel(config.kernel_order, config.sigma());

  // Serial reference: converged SDC with the *fine* tree RHS.
  vortex::TreeRhs serial_rhs(kernel, {.theta = 0.3});
  ode::SdcSweeper sweeper(
      ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3), global.size());
  const ode::State u_ref = ode::sdc_integrate(sweeper, serial_rhs.as_fn(),
                                              global, 0.0, dt, nsteps, 10);
  double x_scale = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    x_scale = std::max(x_scale, norm(vortex::position(u_ref, p)));

  // Space-time parallel run (converged: iterations > P_T).
  std::vector<double> errors(ps, -1.0);
  std::vector<vortex::Invariants> partial(ps);  // per space rank, slice 0
  mpsim::Runtime rt;
  rt.run(pt * ps, [&](mpsim::Comm& world) {
    const int time_slice = world.rank() / ps;
    const int space_rank = world.rank() % ps;
    mpsim::Comm space = world.split(time_slice, space_rank);
    mpsim::Comm time = world.split(space_rank, time_slice);
    ASSERT_EQ(space.size(), ps);
    ASSERT_EQ(time.size(), pt);

    const std::size_t begin = n * space_rank / ps;
    const std::size_t end = n * (space_rank + 1) / ps;
    ode::State u0(6 * (end - begin));
    for (std::size_t p = begin; p < end; ++p) {
      vortex::set_position(u0, p - begin, vortex::position(global, p));
      vortex::set_strength(u0, p - begin, vortex::strength(global, p));
    }

    tree::ParallelConfig fine_cfg, coarse_cfg;
    fine_cfg.theta = 0.3;
    coarse_cfg.theta = 0.6;
    vortex::ParallelTreeRhs fine(space, kernel, fine_cfg, begin);
    vortex::ParallelTreeRhs coarse(space, kernel, coarse_cfg, begin);
    std::vector<pfasst::Level> levels = {
        {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3),
         fine.as_fn(), 1},
        {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 2),
         coarse.as_fn(), 2},
    };
    pfasst::Pfasst controller(time, levels, {pt + 4, true});
    const auto result = controller.run(u0, 0.0, dt, nsteps);

    // Compare this rank's slice of the final state to the reference. The
    // parallel fine RHS differs from the serial one only through the
    // decomposition-dependent cluster sets (both theta = 0.3), so the
    // tolerance is the MAC error scale, not roundoff.
    double worst = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      const Vec3 x_par = vortex::position(result.u_end, p - begin);
      const Vec3 x_ref = vortex::position(u_ref, p);
      worst = std::max(worst, norm(x_par - x_ref));
    }
    if (time_slice == 0) {
      errors[space_rank] = worst / x_scale;
      partial[space_rank] = vortex::compute_invariants(result.u_end);
    }

    // Residuals must have contracted hard by the final iteration.
    EXPECT_LT(result.stats.back().back().delta, 1e-9);
  });
  for (int r = 0; r < ps; ++r) {
    ASSERT_GE(errors[r], 0.0);
    EXPECT_LT(errors[r], 2e-3) << "space rank " << r;
  }

  // Inviscid invariants after the run: total vorticity (relative to
  // sum |alpha|) and the linear impulse I_z must not drift.
  const vortex::Invariants before = vortex::compute_invariants(global);
  vortex::Invariants after{};
  for (const auto& part : partial) {
    after.total_vorticity += part.total_vorticity;
    after.linear_impulse += part.linear_impulse;
  }
  double strength_sum = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    strength_sum += norm(vortex::strength(global, p));
  EXPECT_LE(norm(after.total_vorticity - before.total_vorticity) /
                strength_sum,
            1e-4);
  EXPECT_LE(std::abs(after.linear_impulse.z - before.linear_impulse.z), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Grids, SpaceTime,
                         ::testing::Values(GridCase{2, 1}, GridCase{1, 2},
                                           GridCase{2, 2}, GridCase{4, 2}),
                         [](const auto& info) {
                           return "pt" + std::to_string(info.param.pt) +
                                  "ps" + std::to_string(info.param.ps);
                         });

TEST(SpaceTime, VirtualSpeedupImprovesWithTimeParallelism) {
  // The core claim of the paper in miniature: at fixed P_S, adding time
  // ranks reduces the modeled wall-clock of the same integration.
  const std::size_t n = 160;
  vortex::SheetConfig config;
  config.n_particles = n;
  const ode::State global = vortex::spherical_vortex_sheet(config);
  const kernels::AlgebraicKernel kernel(config.kernel_order, config.sigma());
  const int nsteps = 4;

  auto run_pfasst = [&](int pt) {
    double t_max = 0.0;
    mpsim::Runtime rt;
    rt.run(pt, [&](mpsim::Comm& time) {
      vortex::TreeRhs fine(kernel, {.theta = 0.3});
      vortex::TreeRhs coarse(kernel, {.theta = 0.6});
      // Charge the virtual clock per evaluation so time parallelism shows
      // up in the model (serial tree RHS does not know about the clock).
      auto charged = [&time](vortex::TreeRhs& rhs, double per_eval) {
        return [&rhs, &time, per_eval](double t, const ode::State& u,
                                       ode::State& f) {
          rhs(t, u, f);
          time.compute(per_eval);
        };
      };
      std::vector<pfasst::Level> levels = {
          {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3),
           charged(fine, 1.0), 1},
          {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 2),
           charged(coarse, 0.3), 2},
      };
      pfasst::Pfasst controller(time, levels, {2, true});
      controller.run(global, 0.0, 0.5, nsteps);
      const double t =
          time.allreduce(time.clock().now(), mpsim::ReduceOp::kMax);
      if (time.rank() == 0) t_max = t;
    });
    return t_max;
  };

  const double t1 = run_pfasst(1);
  const double t4 = run_pfasst(4);
  EXPECT_LT(t4, t1);  // time parallelism pays off in modeled time
}

}  // namespace
}  // namespace stnb
