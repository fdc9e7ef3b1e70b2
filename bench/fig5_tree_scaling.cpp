// Fig. 5: strong scaling of the space-parallel Barnes-Hut tree code for a
// homogeneous neutral Coulomb system — total time, tree traversal, and
// branch exchange vs core count for three problem sizes.
//
// Two parts:
//  (1) measured: real runs of the full distributed pipeline on the
//      simulated machine (virtual clock), bench-scale N, P up to
//      --max-ranks simulated ranks;
//  (2) model: the calibrated analytic scaling model evaluated at the
//      paper's N = {0.125, 8, 2048} x 1e6 across 1 ... 262,144 cores,
//      reproducing the saturation/crossover shape of Fig. 5.
//
// --json PATH additionally writes the measured per-phase breakdowns
// (obs-layer span totals per rank group) and the model extrapolation as
// machine-readable JSON.
#include <cmath>
#include <fstream>
#include <vector>

#include "common.hpp"
#include "mpsim/comm.hpp"
#include "obs/obs.hpp"
#include "perf/speedup.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tree/parallel.hpp"

using namespace stnb;

namespace {

struct MeasuredRun {
  int ranks = 0;
  double total = 0, traversal = 0, branch = 0, let = 0;
  double branches = 0, interactions = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add("n", "20000", "particles for the measured runs");
  cli.add("max-ranks", "16", "largest simulated rank count (measured part)");
  cli.add("theta", "0.6", "multipole acceptance parameter");
  cli.add("json", "", "write measured + model results as JSON to this path");
  cli.add("sched", "", "rank scheduler: thread | fiber (default: STNB_SCHED)");
  cli.add("ranks-per-thread", "0",
          "fiber mode: simulated ranks per OS worker (0 = auto; implies "
          "--sched=fiber)");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner(
      "Fig. 5 — PEPC strong scaling (homogeneous neutral Coulomb system)",
      "total / traversal / branch-exchange virtual time vs cores; measured "
      "runs + calibrated model at JUGENE scale");

  const auto n = cli.get<std::size_t>("n");
  const double theta = cli.get<double>("theta");
  const std::string json_path = cli.get<std::string>("json");

  // Homogeneous neutral Coulomb cube.
  std::vector<tree::TreeParticle> all(n);
  {
    Rng rng(7);
    for (std::size_t i = 0; i < n; ++i) {
      all[i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
      all[i].q = (i % 2 == 0) ? 1.0 : -1.0;  // neutral system
      all[i].id = static_cast<std::uint32_t>(i);
    }
  }
  const kernels::CoulombKernel kernel(1e-4);

  // ---- measured part ------------------------------------------------------
  Table measured({"ranks", "particles/rank", "total[s]", "traversal[s]",
                  "branch_ex[s]", "let_ex[s]", "branches/rank",
                  "interactions/particle"});
  double fit_interactions = 0.0;
  double fit_branches_at_max = 0.0;
  const int max_ranks = cli.get<int>("max-ranks");
  std::vector<MeasuredRun> runs;
  // One registry per rank count: clocks restart at 0 for every run.
  std::vector<std::unique_ptr<obs::Registry>> registries;
  for (int p = 1; p <= max_ranks; p *= 2) {
    MeasuredRun run;
    run.ranks = p;
    registries.push_back(std::make_unique<obs::Registry>());
    mpsim::Runtime rt;
    rt.set_registry(registries.back().get());
    rt.set_sched(mpsim::SchedConfig::from_flags(
        cli.get<std::string>("sched"), cli.get<int>("ranks-per-thread"), p));
    rt.run(p, [&](mpsim::Comm& comm) {
      const std::size_t begin = n * comm.rank() / p;
      const std::size_t end = n * (comm.rank() + 1) / p;
      std::vector<tree::TreeParticle> local(all.begin() + begin,
                                            all.begin() + end);
      tree::ParallelConfig config;
      config.theta = theta;
      tree::ParallelTree solver(comm, config);
      const auto forces = solver.solve_coulomb(local, kernel);
      const auto& t = forces.timings;
      // Reduce the slowest-rank phase times (what a wall clock would see).
      const double tot = comm.allreduce(t.total(), mpsim::ReduceOp::kMax);
      const double tra = comm.allreduce(t.traversal, mpsim::ReduceOp::kMax);
      const double bra =
          comm.allreduce(t.branch_exchange, mpsim::ReduceOp::kMax);
      const double le = comm.allreduce(t.let_exchange, mpsim::ReduceOp::kMax);
      const double br = comm.allreduce(static_cast<double>(t.branch_count),
                                       mpsim::ReduceOp::kSum);
      const double ints = comm.allreduce(static_cast<double>(t.near + t.far),
                                         mpsim::ReduceOp::kSum);
      if (comm.rank() == 0) {
        run.total = tot;
        run.traversal = tra;
        run.branch = bra;
        run.let = le;
        run.branches = br / p;
        run.interactions = ints / static_cast<double>(n);
      }
    });
    measured.begin_row()
        .cell(static_cast<long long>(p))
        .cell(static_cast<long long>(n / p))
        .cell_sci(run.total)
        .cell_sci(run.traversal)
        .cell_sci(run.branch)
        .cell_sci(run.let)
        .cell(run.branches, 1)
        .cell(run.interactions, 1);
    // Calibrate traversal work from the single-rank run: the multi-rank
    // counts add the small decomposition overhead of the pruned remote
    // trees (tree/parallel.hpp), which is not part of the model.
    if (p == 1) fit_interactions = run.interactions;
    fit_branches_at_max = run.branches;
    runs.push_back(run);
  }
  measured.print("Fig. 5 (measured) — simulated-machine runs, N = " +
                 std::to_string(n));
  if (!runs.empty() && runs.front().interactions > 0.0)
    std::printf("note: each rank walks the pruned remote trees it receives "
                "per leaf group; interactions/particle at %d ranks = %.2fx "
                "the 1-rank count\n",
                runs.back().ranks,
                runs.back().interactions / runs.front().interactions);

  // ---- calibrate + extrapolate -------------------------------------------
  perf::TreeScalingModel model;
  // interactions/particle ~ a + b log2 N: anchor the fit at the measured N.
  model.interactions_b = 18.0;
  model.interactions_a =
      fit_interactions - model.interactions_b * std::log2(double(n));
  model.branches_d = 6.0;
  model.branches_a = std::max(
      1.0, fit_branches_at_max - model.branches_d * std::log2(double(max_ranks)));
  std::printf("\ncalibration: interactions/particle = %.1f + %.1f log2(N), "
              "branches/rank = %.1f + %.1f log2(P)\n",
              model.interactions_a, model.interactions_b, model.branches_a,
              model.branches_d);

  for (double big_n : {0.125e6, 8e6, 2048e6}) {
    Table t({"cores", "total[s]", "traversal[s]", "branch_ex[s]"});
    for (double p = 1; p <= 262144; p *= 4) {
      if (big_n / p < 1.0) break;  // fewer than 1 particle per core
      const auto times = model.evaluate(big_n, p);
      t.begin_row()
          .cell(static_cast<long long>(p))
          .cell_sci(times.total())
          .cell_sci(times.traversal)
          .cell_sci(times.branch_exchange);
    }
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Fig. 5 (model) — N = %.3g x 1e6 particles",
                  big_n / 1e6);
    t.print(title);
  }
  std::printf("expected shape: traversal falls ~1/P; branch exchange grows "
              "with P and dominates once N/P is small — strong scaling "
              "saturates (paper Fig. 5)\n");

  // ---- machine-readable output -------------------------------------------
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    JsonWriter w(os);
    w.begin_object();
    w.member("figure", "fig5_tree_scaling")
        .member("n", n)
        .member("theta", theta);
    w.key("measured").begin_array();
    static constexpr const char* kPhases[] = {
        "tree.domain", "tree.build", "tree.branch_exchange",
        "tree.let_exchange", "tree.traversal"};
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& run = runs[i];
      const auto& reg = *registries[i];
      w.begin_object()
          .member("ranks", run.ranks)
          .member("particles_per_rank", n / run.ranks)
          .member("total_s", run.total)
          .member("traversal_s", run.traversal)
          .member("branch_exchange_s", run.branch)
          .member("let_exchange_s", run.let)
          .member("branches_per_rank", run.branches)
          .member("interactions_per_particle", run.interactions);
      w.key("phases").begin_object();
      for (const char* phase : kPhases) {
        const auto stat = reg.span_total(phase);
        w.key(phase)
            .begin_object()
            .member("total_time_s", stat.total)
            .member("count", stat.count);
        w.key("time_per_rank_s").begin_array();
        for (int r = 0; r < run.ranks; ++r)
          w.value(reg.span_stat(r, phase).total);
        w.end_array();
        w.end_object();
      }
      w.end_object();
      w.member("eval_near", reg.counter_total("tree.eval.near"))
          .member("eval_far", reg.counter_total("tree.eval.far"))
          .member("collective_bytes",
                  reg.counter_total("mpsim.collective.bytes"));
      w.end_object();
    }
    w.end_array();
    w.key("model").begin_object();
    w.member("interactions_a", model.interactions_a)
        .member("interactions_b", model.interactions_b)
        .member("branches_a", model.branches_a)
        .member("branches_d", model.branches_d);
    w.key("extrapolation").begin_array();
    for (double big_n : {0.125e6, 8e6, 2048e6}) {
      w.begin_object().member("n", big_n);
      w.key("points").begin_array();
      for (double p = 1; p <= 262144; p *= 4) {
        if (big_n / p < 1.0) break;
        const auto times = model.evaluate(big_n, p);
        w.begin_object()
            .member("cores", p)
            .member("total_s", times.total())
            .member("traversal_s", times.traversal)
            .member("branch_exchange_s", times.branch_exchange)
            .end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    os << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
