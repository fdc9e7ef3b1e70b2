// The full space-time parallel solver in one small run (the paper's
// Fig. 2 architecture): P_T x P_S simulated ranks, world communicator
// split into PEPC (space) and PFASST (time) communicators, tree-code RHS
// with MAC coarsening on the coarse level. Prints per-iteration residuals
// and the virtual-time speedup over serial SDC(4).
//
// With --trace PATH the PFASST run additionally dumps a Chrome
// trace-event file (one track per simulated rank — open it in Perfetto or
// chrome://tracing) and prints the top per-phase virtual-time totals.
//
// Fault tolerance (src/fault): --drop injects probabilistic loss of the
// PFASST forward-sends, --fault-rank/--fault-begin/--fault-end scripts a
// transient soft-fail of one world rank in virtual time; the controller
// recovers via slice rebuild + extra iterations. --checkpoint-every K
// writes a binary checkpoint after every K windows; --restore resumes a
// run from one.
//
//   ./examples/spacetime_vortex [--pt 4] [--ps 2] [--n 1200] [--blocks 2]
//                               [--trace spacetime.trace.json]
//                               [--check true]
//                               [--drop 0.05] [--seed 42] [--reliable]
//                               [--fault-rank 2 --fault-begin 1.0
//                                --fault-end 1.5]
//                               [--checkpoint-every 1 --checkpoint run.ckpt]
//                               [--restore run.ckpt]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "fault/checkpoint.hpp"
#include "fault/plan.hpp"
#include "mpsim/comm.hpp"
#include "obs/obs.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "pfasst/controller.hpp"
#include "support/cli.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

using namespace stnb;

namespace {

int run(int argc, char** argv) {
  Cli cli;
  cli.add("pt", "4", "time-parallel ranks (P_T)");
  cli.add("ps", "2", "space-parallel ranks per time slice (P_S)");
  cli.add("n", "1200", "total particles");
  cli.add("dt", "0.5", "time step");
  cli.add("blocks", "1", "PFASST windows (each P_T steps of dt)");
  cli.add("iterations", "2", "PFASST iterations");
  cli.add("trace", "", "write a Chrome trace of the PFASST run here");
  cli.add("check", "false",
          "communication-correctness checker: races, deadlocks, collective "
          "mismatches, leaks (equivalent to STNB_CHECK=1)");
  // -- fault injection ------------------------------------------------------
  cli.add("drop", "0", "drop probability for p2p (forward-send) messages");
  cli.add("seed", "42", "fault-plan seed (same seed + plan -> same faults)");
  cli.add("reliable", "false", "ack+retry reliable delivery for p2p sends");
  cli.add("fault-rank", "-1", "world rank to soft-fail (-1 = none)");
  cli.add("fault-begin", "0", "soft-fail window start (virtual seconds)");
  cli.add("fault-end", "0", "soft-fail window end (virtual seconds)");
  // -- checkpoint/restart ---------------------------------------------------
  cli.add("checkpoint-every", "0", "write a checkpoint every K windows (0=off)");
  cli.add("checkpoint", "spacetime_vortex.ckpt", "checkpoint file path");
  cli.add("restore", "", "resume from this checkpoint file");
  // -- scheduling -----------------------------------------------------------
  cli.add("sched", "", "rank scheduler: thread | fiber (default: STNB_SCHED)");
  cli.add("ranks-per-thread", "0",
          "fiber mode: simulated ranks per OS worker (0 = auto; implies "
          "--sched=fiber)");
  if (!cli.parse(argc, argv)) return 1;

  const int pt = cli.get<int>("pt");
  const int ps = cli.get<int>("ps");
  const auto n = cli.get<std::size_t>("n");
  const double dt = cli.get<double>("dt");
  const int blocks = cli.get<int>("blocks");
  const int iterations = cli.get<int>("iterations");
  const std::string trace_path = cli.get<std::string>("trace");
  const double drop = cli.get<double>("drop");
  const int fault_rank = cli.get<int>("fault-rank");
  const int checkpoint_every = cli.get<int>("checkpoint-every");
  const std::string checkpoint_path = cli.get<std::string>("checkpoint");
  const std::string restore_path = cli.get<std::string>("restore");

  vortex::SheetConfig config;
  config.n_particles = n;
  ode::State global = vortex::spherical_vortex_sheet(config);
  const kernels::AlgebraicKernel kernel(config.kernel_order, config.sigma());

  // Resume: the checkpoint replaces the initial condition and fast-forwards
  // past the completed windows.
  int start_block = 0;
  double t_start = 0.0;
  if (!restore_path.empty()) {
    fault::Checkpoint ckpt;
    try {
      ckpt = fault::read_checkpoint(restore_path);
    } catch (const fault::CheckpointError& e) {
      std::fprintf(stderr, "restore failed: %s\n", e.what());
      return 1;
    }
    if (ckpt.state.size() != global.size()) {
      std::fprintf(stderr,
                   "restore failed: checkpoint has %zu state elements, run "
                   "needs %zu (different --n?)\n",
                   ckpt.state.size(), global.size());
      return 1;
    }
    global = std::move(ckpt.state);
    start_block = static_cast<int>(ckpt.step) / pt;
    t_start = ckpt.time;
    std::printf("restored %s: %llu steps done (%d of %d windows), t = %g\n",
                restore_path.c_str(),
                static_cast<unsigned long long>(ckpt.step), start_block,
                blocks, t_start);
    if (start_block >= blocks) {
      std::printf("nothing left to do\n");
      return 0;
    }
  }

  // Fault plan from the CLI flags (empty plan = fault-free run).
  fault::FaultPlan plan;
  if (drop > 0.0) plan.rules.push_back({.drop = drop});
  if (fault_rank >= 0)
    plan.soft_fails.push_back({.rank = fault_rank,
                               .begin = cli.get<double>("fault-begin"),
                               .end = cli.get<double>("fault-end")});
  const bool faulty = !plan.rules.empty() || !plan.soft_fails.empty();
  fault::PlanInjector injector(plan, cli.get<std::size_t>("seed"));

  std::printf("space-time parallel vortex solver: %d x %d = %d ranks, "
              "N = %zu, PFASST(%d, 2), theta fine/coarse = 0.3/0.6\n",
              pt, ps, pt * ps, n, iterations);
  if (faulty)
    std::printf("fault plan: drop = %g, soft-fail rank %d in [%g, %g), "
                "seed = %llu, reliable = %s, recovery on\n",
                drop, fault_rank, cli.get<double>("fault-begin"),
                cli.get<double>("fault-end"),
                static_cast<unsigned long long>(cli.get<std::size_t>("seed")),
                cli.get<bool>("reliable") ? "yes" : "no");

  // Serial SDC(4) baseline on P_S space ranks (skipped when resuming — the
  // speedup comparison only makes sense for a from-scratch run).
  // One checker instance across both runs (the serial baseline and the
  // space-time run); each Runtime::run begins a fresh checked session.
  check::Checker checker;
  const bool checked = cli.get<bool>("check");

  const std::string sched_flag = cli.get<std::string>("sched");
  const int ranks_per_thread = cli.get<int>("ranks-per-thread");

  double t_serial = 0.0;
  if (restore_path.empty()) {
    mpsim::Runtime rt;
    if (checked) rt.set_check_hook(&checker);
    rt.set_sched(
        mpsim::SchedConfig::from_flags(sched_flag, ranks_per_thread, ps));
    rt.run(ps, [&](mpsim::Comm& comm) {
      const std::size_t begin = n * comm.rank() / ps;
      const std::size_t end = n * (comm.rank() + 1) / ps;
      ode::State u(6 * (end - begin));
      for (std::size_t p = begin; p < end; ++p) {
        vortex::set_position(u, p - begin, vortex::position(global, p));
        vortex::set_strength(u, p - begin, vortex::strength(global, p));
      }
      tree::ParallelConfig cfg;
      cfg.theta = 0.3;
      vortex::ParallelTreeRhs rhs(comm, kernel, cfg, begin);
      ode::SdcSweeper sweeper(
          ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3), u.size());
      ode::sdc_integrate(sweeper, rhs.as_fn(), u, 0.0, dt, pt * blocks, 4);
      const double t = comm.allreduce(comm.clock().now(),
                                      mpsim::ReduceOp::kMax);
      if (comm.rank() == 0) t_serial = t;
    });
  }

  double t_parallel = 0.0;
  double final_norm = 0.0;
  int k_extra = 0;
  long rebuilds = 0, lost = 0;
  obs::Registry registry;
  mpsim::Runtime rt;
  rt.set_registry(&registry);
  if (checked) rt.set_check_hook(&checker);
  if (faulty) rt.set_fault_injector(&injector);
  if (cli.get<bool>("reliable")) rt.set_reliable({.enabled = true});
  rt.set_sched(
      mpsim::SchedConfig::from_flags(sched_flag, ranks_per_thread, pt * ps));
  rt.run(pt * ps, [&](mpsim::Comm& world) {
    const int time_slice = world.rank() / ps;
    const int space_rank = world.rank() % ps;
    mpsim::Comm space = world.split(time_slice, space_rank);
    mpsim::Comm time = world.split(space_rank, time_slice);

    const std::size_t begin = n * space_rank / ps;
    const std::size_t end = n * (space_rank + 1) / ps;
    ode::State u(6 * (end - begin));
    for (std::size_t p = begin; p < end; ++p) {
      vortex::set_position(u, p - begin, vortex::position(global, p));
      vortex::set_strength(u, p - begin, vortex::strength(global, p));
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
    pfasst::Config pcfg;
    pcfg.iterations = iterations;
    pcfg.recover = faulty;
    pfasst::Pfasst controller(time, levels, pcfg);
    // The RHS synchronizes over the space comm, so the per-window extra-
    // iteration count must be agreed world-wide (see set_recovery_comm).
    controller.set_recovery_comm(world);
    // The slice state is distributed over the space group, so the rebuild
    // decision must be agreed among its owners.
    controller.set_slice_comm(space);

    pfasst::Result result;
    double t_cur = t_start;
    int my_k_extra = 0;
    long my_rebuilds = 0, my_lost = 0;
    for (int w = start_block; w < blocks; ++w) {
      result = controller.run(u, t_cur, dt, pt);
      u = result.u_end;
      t_cur += pt * dt;
      my_k_extra += result.k_extra;  // identical on all ranks (agreed)
      my_rebuilds += result.slice_rebuilds;
      my_lost += result.lost_messages;
      const bool window_done = w + 1 == blocks;
      if (checkpoint_every > 0 &&
          ((w + 1 - start_block) % checkpoint_every == 0 || window_done)) {
        // u_end is identical on every time rank (end-of-block broadcast),
        // so one space group's gather reassembles the global state.
        const auto full = space.allgatherv(u);
        if (world.rank() == 0) {
          fault::Checkpoint ckpt;
          ckpt.step = static_cast<std::uint64_t>(w + 1) * pt;
          ckpt.time = t_cur;
          ckpt.state = full;
          fault::write_checkpoint(checkpoint_path, ckpt);
          std::printf("  wrote %s after window %d (step %llu)\n",
                      checkpoint_path.c_str(), w + 1,
                      static_cast<unsigned long long>(ckpt.step));
          std::fflush(stdout);
        }
      }
    }

    if (space_rank == 0) {
      // One line per time slice: residual history of the last window.
      for (int r = 0; r < pt; ++r) {
        time.barrier();
        if (time.rank() == r) {
          std::printf("  slice %d residual per iteration:", r + 1);
          for (const auto& it : result.stats.back())
            std::printf("  %.2e", it.delta);
          std::printf("\n");
          std::fflush(stdout);
        }
      }
    }
    const long total_rebuilds =
        world.allreduce(my_rebuilds, mpsim::ReduceOp::kSum);
    const long total_lost = world.allreduce(my_lost, mpsim::ReduceOp::kSum);
    const auto full = space.allgatherv(u);
    const double t = world.allreduce(world.clock().now(),
                                     mpsim::ReduceOp::kMax);
    if (world.rank() == 0) {
      t_parallel = t;
      final_norm = ode::two_norm(full);
      k_extra = my_k_extra;
      rebuilds = total_rebuilds;
      lost = total_lost;
    }
  });

  if (restore_path.empty())
    std::printf("virtual time: serial SDC(4) = %.2f s, PFASST = %.2f s -> "
                "speedup %.2f on %dx more cores\n",
                t_serial, t_parallel, t_serial / t_parallel, pt);
  else
    std::printf("virtual time: PFASST = %.2f s (resumed run)\n", t_parallel);
  std::printf("final state |u|_2 = %.12e after %d steps\n", final_norm,
              pt * blocks);
  if (faulty) {
    const auto stats = injector.stats();
    std::printf("fault recovery: %llu drops / %llu dups / %llu delays "
                "injected; %ld forward-sends lost, %ld slice rebuilds, "
                "K_extra = %d\n",
                static_cast<unsigned long long>(stats.drops),
                static_cast<unsigned long long>(stats.duplicates),
                static_cast<unsigned long long>(stats.delays), lost, rebuilds,
                k_extra);
  }

  if (!trace_path.empty()) {
    if (!registry.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (open in Perfetto or chrome://tracing; one track "
                "per simulated rank)\n",
                trace_path.c_str());
    // Top phases by total virtual time across all ranks.
    std::vector<std::pair<double, std::string>> totals;
    for (const auto& name : registry.span_names()) {
      const auto stat = registry.span_total(name);
      totals.emplace_back(stat.total, name);
    }
    std::sort(totals.rbegin(), totals.rend());
    std::printf("top phases by total virtual time (all ranks):\n");
    for (std::size_t i = 0; i < totals.size() && i < 6; ++i) {
      const auto stat = registry.span_total(totals[i].second);
      std::printf("  %-22s %10.3f s  (%llu spans)\n",
                  totals[i].second.c_str(), totals[i].first,
                  static_cast<unsigned long long>(stat.count));
    }
  }
  return 0;
}

}  // namespace

// A rank error (for example a FaultError from a soft-fail that drops a
// space-communicator message inside a parallel RHS, which slice recovery
// does not cover) aborts the simulated world; report it and fail.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spacetime_vortex: %s\n", e.what());
    return 1;
  }
}
