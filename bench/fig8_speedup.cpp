// Fig. 8: speedup of the full space-time parallel solver (PEPC + PFASST)
// over the space-parallel-only baseline. Baseline: serial SDC(4), dt = 0.5,
// fine tree code (theta = 0.3) on P_S space ranks (the saturation point of
// the spatial parallelization). PFASST(2, 2, P_T) adds P_T time slices on
// top: total ranks = P_T x P_S, exactly the paper's Fig. 2 layout. Times
// are virtual (deterministic cost model, see DESIGN.md); the theory curve
// is Eq. (24) with alpha measured from the coarse/fine sweep cost ratio.
//
// Setups: "small" ~ the paper's 125k-particle/512-node case, "large" ~ the
// 4M-particle/2048-node case, scaled to bench size by the --small-n /
// --large-n / --*-ps / --max-pt flags (defaults fit a 1-core box).
//
// --json PATH writes machine-readable metrics (per-phase virtual-time
// totals per rank and per time-slice group, and each run's alpha from the
// mean virtual cost of a vortex.rhs.coarse / vortex.rhs.fine call) plus a
// Chrome trace-event file of the widest PFASST run at
// `<PATH minus .json>.trace.json` (one track per simulated rank; load in
// Perfetto / chrome://tracing).
#include <cmath>
#include <fstream>
#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "common.hpp"
#include "mpsim/comm.hpp"
#include "obs/obs.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "perf/speedup.hpp"
#include "pfasst/controller.hpp"
#include "support/json.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

using namespace stnb;

namespace {

struct Setup {
  const char* name;
  std::size_t n_particles;
  int p_space;
};

struct PfasstRun {
  int p_time = 0;
  double t_pfasst = 0.0;
  double speedup = 0.0;
  double theory = 0.0;
  double bound = 0.0;
  std::unique_ptr<obs::Registry> registry;
};

struct SetupResult {
  const Setup* setup = nullptr;
  double rhs_ratio = 0.0;
  double alpha = 0.0;
  double t_serial = 0.0;
  std::vector<PfasstRun> runs;
};

// One space-rank body: build the local slice of the sheet state.
ode::State local_slice(const ode::State& global, std::size_t begin,
                       std::size_t end) {
  ode::State u(6 * (end - begin));
  for (std::size_t p = begin; p < end; ++p) {
    vortex::set_position(u, p - begin, vortex::position(global, p));
    vortex::set_strength(u, p - begin, vortex::strength(global, p));
  }
  return u;
}

/// Per-phase breakdown for one run: totals plus per-rank and per
/// time-slice-group series (world rank r belongs to slice r / ps).
void write_phases(JsonWriter& w, const obs::Registry& reg, int ranks,
                  int ps) {
  static constexpr const char* kPhases[] = {
      "pfasst.predictor",    "pfasst.iteration",    "pfasst.sweep.fine",
      "pfasst.sweep.coarse", "vortex.rhs.evaluate", "vortex.rhs.fine",
      "vortex.rhs.coarse",   "tree.traversal",      "tree.let_exchange",
      "tree.branch_exchange", "tree.build",         "tree.domain",
      "mpsim.send",          "mpsim.recv",          "mpsim.barrier"};
  w.key("phases").begin_object();
  for (const char* phase : kPhases) {
    const auto total = reg.span_total(phase);
    if (total.count == 0) continue;
    w.key(phase).begin_object();
    w.member("total_time_s", total.total).member("total_count", total.count);
    w.key("time_per_rank_s").begin_array();
    for (int r = 0; r < ranks; ++r) w.value(reg.span_stat(r, phase).total);
    w.end_array();
    w.key("count_per_rank").begin_array();
    for (int r = 0; r < ranks; ++r) w.value(reg.span_stat(r, phase).count);
    w.end_array();
    // Rank group = time slice (Fig. 2: world ranks [t*ps, (t+1)*ps)).
    w.key("time_per_slice_s").begin_array();
    for (int t = 0; t < ranks / ps; ++t) {
      double slice_total = 0.0;
      for (int s = 0; s < ps; ++s)
        slice_total += reg.span_stat(t * ps + s, phase).total;
      w.value(slice_total);
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

/// Wraps a level's RHS in a span named after the level, so a run's
/// per-level RHS cost can be read back from its registry.
ode::RhsFn level_span(mpsim::Comm& comm, const char* name, ode::RhsFn fn) {
  return [&comm, name, fn = std::move(fn)](double t, const ode::State& u,
                                           ode::State& f) {
    obs::Span span = comm.obs_scope().span(name);
    fn(t, u, f);
  };
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add("setup", "both", "small | large | both");
  cli.add("small-n", "800", "particles, small setup (paper: 125000)");
  cli.add("large-n", "1200", "particles, large setup (paper: 4000000)");
  cli.add("small-ps", "2", "space ranks, small setup (paper: 512 nodes)");
  cli.add("large-ps", "2", "space ranks, large setup (paper: 2048 nodes)");
  cli.add("max-pt", "8", "largest time-parallel width (paper: 32)");
  cli.add("nsteps", "8", "time steps at dt = 0.5 (paper: T = 16)");
  cli.add("check", "false",
          "run under the communication-correctness checker (src/check)");
  cli.add("json", "",
          "write metrics JSON here + a Chrome trace of the widest run "
          "next to it (<path minus .json>.trace.json)");
  cli.add("sched", "", "rank scheduler: thread | fiber (default: STNB_SCHED)");
  cli.add("ranks-per-thread", "0",
          "fiber mode: simulated ranks per OS worker (0 = auto; implies "
          "--sched=fiber); e.g. --small-ps 32 --max-pt 32 "
          "--ranks-per-thread 64 runs 1024 ranks on 16 workers");
  if (!cli.parse(argc, argv)) return 1;
  const std::string sched_flag = cli.get<std::string>("sched");
  const int ranks_per_thread = cli.get<int>("ranks-per-thread");
  // Shared across every measured run; each Runtime::run re-begins it.
  check::Checker checker;
  const bool checked = cli.get<bool>("check");

  bench::print_banner(
      "Fig. 8 — space-time parallel speedup (PEPC + PFASST)",
      "PFASST(2,2,P_T) vs serial SDC(4); fine theta = 0.3, coarse theta = "
      "0.6; virtual time on the simulated machine");

  const double dt = 0.5;
  const int nsteps = cli.get<int>("nsteps");
  const int max_pt = cli.get<int>("max-pt");
  const std::string json_path = cli.get<std::string>("json");

  std::vector<Setup> setups;
  if (cli.get<std::string>("setup") != "large")
    setups.push_back(
        {"small", cli.get<std::size_t>("small-n"), cli.get<int>("small-ps")});
  if (cli.get<std::string>("setup") != "small")
    setups.push_back(
        {"large", cli.get<std::size_t>("large-n"), cli.get<int>("large-ps")});

  std::vector<SetupResult> results;
  for (const auto& setup : setups) {
    SetupResult result;
    result.setup = &setup;
    vortex::SheetConfig config;
    config.n_particles = setup.n_particles;
    const ode::State global = vortex::spherical_vortex_sheet(config);
    const kernels::AlgebraicKernel kernel(config.kernel_order,
                                          config.sigma());
    const int ps = setup.p_space;

    // ---- measure alpha: coarse/fine RHS cost ratio (Sec. IV-B) ----------
    double rhs_ratio = 0.0;
    {
      mpsim::Runtime rt;
      if (checked) rt.set_check_hook(&checker);
      rt.set_sched(
          mpsim::SchedConfig::from_flags(sched_flag, ranks_per_thread, ps));
      rt.run(ps, [&](mpsim::Comm& comm) {
        const std::size_t begin = setup.n_particles * comm.rank() / ps;
        const std::size_t end = setup.n_particles * (comm.rank() + 1) / ps;
        ode::State u = local_slice(global, begin, end);
        ode::State f(u.size());
        tree::ParallelConfig fine_cfg, coarse_cfg;
        fine_cfg.theta = 0.3;
        coarse_cfg.theta = 0.6;
        vortex::ParallelTreeRhs fine(comm, kernel, fine_cfg, begin);
        vortex::ParallelTreeRhs coarse(comm, kernel, coarse_cfg, begin);
        const double t0 = comm.clock().now();
        fine(0.0, u, f);
        comm.barrier();
        const double t1 = comm.clock().now();
        coarse(0.0, u, f);
        comm.barrier();
        const double t2 = comm.clock().now();
        if (comm.rank() == 0) rhs_ratio = (t1 - t0) / (t2 - t1);
      });
    }
    // alpha = (coarse sweep cost)/(fine sweep cost): 2 coarse vs 3 fine
    // node evaluations, each cheaper by the measured RHS ratio (Eq. 26).
    const double alpha = 2.0 / (rhs_ratio * 3.0);
    result.rhs_ratio = rhs_ratio;
    result.alpha = alpha;
    std::printf("\n[%s] N = %zu, P_S = %d: fine/coarse RHS cost ratio = "
                "%.2f -> alpha = %.3f  (paper: 2.65/3.23 -> 0.252/0.206)\n",
                setup.name, setup.n_particles, ps, rhs_ratio, alpha);

    // ---- serial SDC(4) baseline on P_S ranks ------------------------------
    double t_serial = 0.0;
    {
      mpsim::Runtime rt;
      if (checked) rt.set_check_hook(&checker);
      rt.set_sched(
          mpsim::SchedConfig::from_flags(sched_flag, ranks_per_thread, ps));
      rt.run(ps, [&](mpsim::Comm& comm) {
        const std::size_t begin = setup.n_particles * comm.rank() / ps;
        const std::size_t end = setup.n_particles * (comm.rank() + 1) / ps;
        ode::State u = local_slice(global, begin, end);
        tree::ParallelConfig cfg;
        cfg.theta = 0.3;
        vortex::ParallelTreeRhs rhs(comm, kernel, cfg, begin);
        ode::SdcSweeper sweeper(
            ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3),
            u.size());
        ode::sdc_integrate(sweeper, rhs.as_fn(), u, 0.0, dt, nsteps, 4);
        const double t =
            comm.allreduce(comm.clock().now(), mpsim::ReduceOp::kMax);
        if (comm.rank() == 0) t_serial = t;
      });
    }
    result.t_serial = t_serial;
    std::printf("[%s] serial SDC(4) baseline: %.2f virtual seconds on %d "
                "space ranks\n",
                setup.name, t_serial, ps);

    // ---- PFASST(2,2,P_T) sweeps ------------------------------------------
    perf::PfasstCosts costs;
    costs.k_serial = 4;
    costs.k_parallel = 2;
    costs.coarse_sweeps = 2;
    costs.alpha = alpha;

    Table table({"P_T", "ranks", "t_pfasst[s]", "speedup", "theory S(PT;a)",
                 "bound Ks/Kp*PT", "efficiency"});
    for (int pt = 1; pt <= max_pt && pt <= nsteps; pt *= 2) {
      PfasstRun run;
      run.p_time = pt;
      run.registry = std::make_unique<obs::Registry>();
      double t_pfasst = 0.0;
      mpsim::Runtime rt;
      if (checked) rt.set_check_hook(&checker);
      rt.set_registry(run.registry.get());
      rt.set_sched(mpsim::SchedConfig::from_flags(sched_flag,
                                                  ranks_per_thread, pt * ps));
      rt.run(pt * ps, [&](mpsim::Comm& world) {
        const int time_slice = world.rank() / ps;
        const int space_rank = world.rank() % ps;
        mpsim::Comm space = world.split(time_slice, space_rank);
        mpsim::Comm time = world.split(space_rank, time_slice);

        const std::size_t begin = setup.n_particles * space_rank / ps;
        const std::size_t end = setup.n_particles * (space_rank + 1) / ps;
        const ode::State u0 = local_slice(global, begin, end);

        tree::ParallelConfig fine_cfg, coarse_cfg;
        fine_cfg.theta = 0.3;
        coarse_cfg.theta = 0.6;
        vortex::ParallelTreeRhs fine(space, kernel, fine_cfg, begin);
        vortex::ParallelTreeRhs coarse(space, kernel, coarse_cfg, begin);
        std::vector<pfasst::Level> levels = {
            {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3),
             level_span(world, "vortex.rhs.fine", fine.as_fn()), 1},
            {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 2),
             level_span(world, "vortex.rhs.coarse", coarse.as_fn()), 2},
        };
        pfasst::Pfasst controller(time, levels, {2, true});
        controller.run(u0, 0.0, dt, nsteps);
        const double t =
            world.allreduce(world.clock().now(), mpsim::ReduceOp::kMax);
        if (world.rank() == static_cast<int>(world.size()) - 1)
          t_pfasst = t;
      });
      run.t_pfasst = t_pfasst;
      run.speedup = t_serial / t_pfasst;
      run.theory = perf::pfasst_speedup(pt, costs);
      run.bound = perf::pfasst_speedup_bound(pt, costs);
      table.begin_row()
          .cell(static_cast<long long>(pt))
          .cell(static_cast<long long>(pt * ps))
          .cell(run.t_pfasst, 2)
          .cell(run.speedup, 2)
          .cell(run.theory, 2)
          .cell(run.bound, 2)
          .cell(run.speedup / pt, 3);
      result.runs.push_back(std::move(run));
    }
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Fig. 8 (%s) — PFASST(2,2,P_T) speedup vs SDC(4), N = %zu, "
                  "P_S = %d",
                  setup.name, setup.n_particles, ps);
    table.print(title);
    results.push_back(std::move(result));
  }
  std::printf("expected shape: measured speedup follows S(P_T; alpha) and "
              "grows past P_T = 2 toward the K_s/(n_L alpha) asymptote "
              "(factor ~5 small / ~7 large in the paper)\n");

  // ---- machine-readable output -------------------------------------------
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    JsonWriter w(os);
    w.begin_object();
    w.member("figure", "fig8_speedup")
        .member("dt", dt)
        .member("nsteps", nsteps);
    w.key("setups").begin_array();
    for (const auto& result : results) {
      const int ps = result.setup->p_space;
      w.begin_object()
          .member("name", result.setup->name)
          .member("n", result.setup->n_particles)
          .member("p_space", ps)
          .member("rhs_ratio", result.rhs_ratio)
          .member("alpha", result.alpha)
          .member("t_serial_s", result.t_serial);
      w.key("runs").begin_array();
      for (const auto& run : result.runs) {
        const int ranks = run.p_time * ps;
        const auto& reg = *run.registry;
        w.begin_object()
            .member("p_time", run.p_time)
            .member("ranks", ranks)
            .member("t_pfasst_s", run.t_pfasst)
            .member("speedup", run.speedup)
            .member("theory", run.theory)
            .member("bound", run.bound)
            .member("efficiency", run.speedup / run.p_time);
        // Sec. IV-B alpha from this run's RHS calls: 2 coarse vs 3 fine
        // nodes times the mean coarse/fine virtual cost of one call (the
        // Eq. (26) form above). Sweep spans cannot give it: how many stale
        // nodes a sweep evaluates varies from sweep to sweep.
        const auto fine = reg.span_total("vortex.rhs.fine");
        const auto coarse = reg.span_total("vortex.rhs.coarse");
        if (fine.count > 0 && coarse.count > 0) {
          w.member("alpha_from_rhs_costs",
                   2.0 / 3.0 *
                       (coarse.total / static_cast<double>(coarse.count)) /
                       (fine.total / static_cast<double>(fine.count)));
        }
        write_phases(w, reg, ranks, ps);
        w.key("counters").begin_object();
        for (const char* name :
             {"pfasst.forward_sends", "vortex.rhs.evaluations",
              "tree.eval.near", "tree.eval.far", "mpsim.p2p.bytes_sent",
              "mpsim.p2p.messages", "mpsim.collective.bytes"}) {
          w.key(name).begin_object();
          w.member("total", reg.counter_total(name));
          w.key("per_rank").begin_array();
          for (int r = 0; r < ranks; ++r) w.value(reg.counter_value(r, name));
          w.end_array();
          w.end_object();
        }
        w.end_object();
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("wrote %s\n", json_path.c_str());

    // Chrome trace of the widest run of the last setup.
    if (!results.empty() && !results.back().runs.empty()) {
      std::string base = json_path;
      if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0)
        base.resize(base.size() - 5);
      const std::string trace_path = base + ".trace.json";
      const auto& widest = results.back().runs.back();
      if (widest.registry->write_chrome_trace(trace_path)) {
        std::printf("wrote %s (PFASST P_T = %d; load in Perfetto or "
                    "chrome://tracing)\n",
                    trace_path.c_str(), widest.p_time);
      } else {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
