// stnb_bench: the repository's end-to-end benchmark driver.
//
//   stnb_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans PATH] [--self-test 1]
//
// Runs one workload (see README.md in this directory for why each was
// chosen) through the library's public API only, repeats the timed solve
// for about S seconds, checks every solve against references computed in
// the same run, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced solves; --trace 1
// runs the traced variant (host-clock spans around public calls plus an
// obs::Registry) and reports the per-layer metrics. --self-test 1 also
// proves that every correctness gate fires on a deliberately perturbed
// result, and exits non-zero if one does not.
//
// Ranks always run as fibers on min(nproc, 4) OS workers; the fault and
// check layers stay off.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "mpsim/comm.hpp"
#include "obs/obs.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "perf/speedup.hpp"
#include "pfasst/controller.hpp"
#include "simd/dispatch.hpp"
#include "support/rng.hpp"
#include "tree/interaction_list.hpp"
#include "tree/octree.hpp"
#include "tree/parallel.hpp"
#include "vortex/diagnostics.hpp"
#include "vortex/rhs_direct.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

#ifndef STNB_BENCH_BUILD_TYPE
#define STNB_BENCH_BUILD_TYPE "unknown"
#endif

using namespace stnb;

namespace {

// ---------------------------------------------------------------------------
// Workloads and their correctness tolerances. Each tolerance sits a few
// times above the largest error measured over many seeds with both the
// widest SIMD backend and STNB_SIMD=scalar, and above the 1-rank error
// where an accuracy-neutral change (e.g. culling LET imports) could move
// the P-rank error toward it. PFASST is compared with serial SDC(4) at a
// loose 1e-4: both use the same tree RHS, but the tree RHS is not smooth in
// the positions (a MAC decision flips when a particle crosses an
// acceptance boundary), so two trajectories 1e-9 apart can take different
// tree branches; measured errors span 1e-10 to 1e-5 across seeds.

struct Workload {
  const char* name;
  bool coulomb;
  std::size_t n;
  int pt;           // time-parallel ranks (P_T); 1 for the Coulomb solve
  int ps;           // space-parallel ranks (P_S)
  int windows;      // vortex: PFASST windows per timed solve
  double dt;        // vortex: step size
  int solves;       // coulomb: tree solves per timed solve
  double theta;     // fine / Coulomb MAC parameter
  double theta_coarse;
  double tol_pfasst;  // rel. max position error vs serial SDC(4)
  // Tree RHS at t0 vs vortex::DirectRhs: {velocity, stretching}.
  std::array<double, 2> tol_rhs_fine;
  std::array<double, 2> tol_rhs_coarse;
  double tol_coulomb;  // |phi - phi_direct| / max|phi_direct|
};

constexpr Workload kWorkloads[] = {
    {"spacetime-vortex", false, 4000, 4, 2, 2, 0.5, 0, 0.3, 0.6, 1e-4,
     {5e-4, 5e-2}, {1e-2, 2e-1}, 0},
    {"coulomb-p8", true, 50000, 1, 8, 0, 0, 6, 0.6, 0, 0, {}, {}, 5e-2},
    {"pfasst-pt8", false, 2000, 8, 1, 2, 0.5, 0, 0.3, 0.6, 1e-4,
     {5e-4, 5e-2}, {1e-2, 2e-1}, 0},
};

// Conservation: |Omega_end - Omega_0| relative to sum |alpha_p|, and the
// drift of the linear impulse I_z (exactly -0.5 for the continuous sheet).
constexpr double kTolVorticity = 1e-4;
constexpr double kTolImpulseDrift = 1e-4;
constexpr double kTolImpulseInitial = 1e-4;
constexpr double kImpulseZ = -0.5;
constexpr int kCoulombSamples = 64;
constexpr double kCoulombSoftening = 1e-4;
constexpr int kSerialSweeps = 4;  // SDC(4): the paper's serial baseline
// Set-up is timed in process CPU seconds (all threads), repeated up front
// and once after every timed solve, and reported as the median. Its wall
// time is ~1 ms on the vortex workloads and dominated by cross-thread
// wake-up latency, which moved run medians by 15-70% with host load while
// the CPU time moved by ~2%; work moved into set-up shows in both.
constexpr int kSetupRepeats = 11;

// ---------------------------------------------------------------------------
// Clocks.

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Prints a sample set, in measurement order, to stderr (diagnostics only;
/// not a metric).
void print_samples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "samples %s (n=%zu):", what, v.size());
  for (double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Host-clock spans, kept in memory and written at the end of a traced run.
// Ranks are fibers that migrate between OS threads, so the parent of a span
// is passed explicitly rather than kept in thread-local state.

struct SpanRecord {
  int id = 0;
  int parent = -1;
  int rank = -1;  // world rank; -1 for spans opened outside the ranks
  std::string name;
  double begin = 0.0;  // host seconds since the tracer's epoch
  double end = 0.0;
  double duration() const { return end - begin; }
};

class Tracer {
 public:
  explicit Tracer(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(host_now()) {}

  const std::string& run_id() const { return run_id_; }
  int reserve() { return next_id_.fetch_add(1); }
  double now() const { return host_now() - epoch_; }

  void record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::string run_id_;
  double epoch_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; inert when `tracer` is null (the untraced solves).
class HostSpan {
 public:
  HostSpan(Tracer* tracer, const char* name, int parent, int rank)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    rec_.id = tracer_->reserve();
    rec_.parent = parent;
    rec_.rank = rank;
    rec_.name = name;
    rec_.begin = tracer_->now();
  }
  ~HostSpan() {
    if (tracer_ == nullptr) return;
    rec_.end = tracer_->now();
    tracer_->record(std::move(rec_));
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  int id() const { return tracer_ != nullptr ? rec_.id : -1; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
};

/// Part of span `s` covered by its children (union of their intervals).
double child_cover(const SpanRecord& s, const std::vector<SpanRecord>& all) {
  std::vector<std::pair<double, double>> iv;
  for (const auto& c : all)
    if (c.parent == s.id)
      iv.emplace_back(std::max(c.begin, s.begin), std::min(c.end, s.end));
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (b > hi) {
      if (hi > lo) covered += hi - lo;
      lo = b;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) covered += hi - lo;
  return covered;
}

// ---------------------------------------------------------------------------
// Inputs.

mpsim::SchedConfig sched_config() {
  mpsim::SchedConfig cfg;
  cfg.mode = mpsim::SchedMode::kFiber;
  cfg.workers = std::min(4, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  return cfg;
}

vortex::SheetConfig sheet_config(const Workload& w, std::uint64_t seed) {
  vortex::SheetConfig c;
  c.n_particles = w.n;
  c.seed = seed;  // rotates the lattice, so the tree differs per seed
  return c;
}

using Cloud = std::vector<tree::TreeParticle>;

/// Homogeneous neutral Coulomb cubes (the Fig. 5 system), one per solve of
/// a timed solve. The P-rank virtual time of a single cloud varies by
/// ~13% between seeds (traversal imbalance of the LET imports), so a
/// timed solve covers several clouds rather than repeating one. Fills
/// `clouds` in place, so repeated set-ups reuse its storage.
void coulomb_clouds(std::size_t n, std::uint64_t seed, int count,
                    std::vector<Cloud>& clouds) {
  clouds.resize(count);
  for (int c = 0; c < count; ++c) {
    clouds[c].resize(n);
    std::uint64_t state = seed;
    for (int k = 0; k <= c; ++k) splitmix64(state);
    Rng rng(splitmix64(state));
    for (std::size_t i = 0; i < n; ++i) {
      clouds[c][i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
      clouds[c][i].q = (i % 2 == 0) ? 1.0 : -1.0;
      clouds[c][i].id = static_cast<std::uint32_t>(i);
    }
  }
}

std::size_t slice_begin(std::size_t n, int rank, int ranks) {
  return n * static_cast<std::size_t>(rank) / static_cast<std::size_t>(ranks);
}

ode::State local_slice(const ode::State& global, int rank, int ranks) {
  const std::size_t n = vortex::num_particles(global);
  const std::size_t b = slice_begin(n, rank, ranks);
  const std::size_t e = slice_begin(n, rank + 1, ranks);
  return ode::State(global.begin() + 6 * b, global.begin() + 6 * e);
}

ode::State concat(const std::vector<ode::State>& parts) {
  ode::State out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gates. Each returns the measured error; a gate passes when
// the error is finite and within its tolerance.

bool within(double err, double tol) { return std::isfinite(err) && err <= tol; }

/// Relative maximum error of particle positions (the paper's Fig. 7 metric).
double position_error(const ode::State& u, const ode::State& ref) {
  if (u.size() != ref.size()) return INFINITY;
  double worst = 0.0, scale = 0.0;
  for (std::size_t p = 0; p < vortex::num_particles(ref); ++p) {
    scale = std::max(scale, norm(vortex::position(ref, p)));
    worst = std::max(worst, norm(vortex::position(u, p) -
                                 vortex::position(ref, p)));
  }
  return worst / std::max(scale, 1e-300);
}

/// Max error of one half of a packed RHS (0: velocity, 1: stretching)
/// relative to that half's max magnitude in the reference.
double rhs_error(const ode::State& f, const ode::State& ref, int half) {
  if (f.size() != ref.size()) return INFINITY;
  double err = 0.0, scale = 0.0;
  for (std::size_t p = 0; p < vortex::num_particles(ref); ++p) {
    const Vec3 a = half == 0 ? vortex::position(f, p) : vortex::strength(f, p);
    const Vec3 b =
        half == 0 ? vortex::position(ref, p) : vortex::strength(ref, p);
    err = std::max(err, norm(a - b));
    scale = std::max(scale, norm(b));
  }
  return err / std::max(scale, 1e-300);
}

struct ConservationError {
  double vorticity = 0.0;        // |Omega_end - Omega_0| / sum |alpha|
  double impulse_drift = 0.0;    // |I_z(end) - I_z(0)|
  double impulse_initial = 0.0;  // |I_z(0) - (-0.5)|
};

ConservationError conservation_error(const ode::State& u0,
                                     const ode::State& u1) {
  const auto i0 = vortex::compute_invariants(u0);
  const auto i1 = vortex::compute_invariants(u1);
  double total = 0.0;
  for (std::size_t p = 0; p < vortex::num_particles(u0); ++p)
    total += norm(vortex::strength(u0, p));
  ConservationError e;
  if (u0.size() != u1.size()) {
    e.vorticity = INFINITY;
    return e;
  }
  e.vorticity = norm(i1.total_vorticity - i0.total_vorticity) /
                std::max(total, 1e-300);
  e.impulse_drift = std::fabs(i1.linear_impulse.z - i0.linear_impulse.z);
  e.impulse_initial = std::fabs(i0.linear_impulse.z - kImpulseZ);
  return e;
}

/// Coulomb potential error on the sampled targets, relative to max |phi|.
double coulomb_error(const std::vector<double>& phi,
                     const std::vector<double>& ref) {
  if (phi.size() != ref.size()) return INFINITY;
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::fabs(phi[i] - ref[i]));
    scale = std::max(scale, std::fabs(ref[i]));
  }
  return err / std::max(scale, 1e-300);
}

// ---------------------------------------------------------------------------
// Traced-run state: the tracer, the obs registry and per-rank call logs.

struct RhsLog {
  std::array<std::vector<double>, 2> virt;  // per call, [fine, coarse]
  std::array<long, 2> calls{};
  std::array<std::uint64_t, 2> near{}, far{};
};

struct Trace {
  Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  int solve_span = -1;  // parent of every rank-level span of one solve
};

/// A traced timed solve, with its registry and the id of its "solve" span.
template <typename Solve>
struct Traced {
  Solve solve;
  std::unique_ptr<obs::Registry> registry;
  int span = -1;
};

// ---------------------------------------------------------------------------
// Vortex workloads: PFASST(2 iterations, 2 levels) over P_T x P_S ranks.

struct VortexSolve {
  std::vector<ode::State> window_end;  // global state after each window
  double host_s = 0.0, cpu_s = 0.0, virtual_s = 0.0;
  std::vector<RhsLog> logs;            // traced only, per world rank
  double final_delta = 0.0;            // last window, last iteration
};

/// One PFASST solve. With windows == 0 only the set-up part runs
/// (communicator split, RHS/level/controller construction).
VortexSolve run_vortex(const Workload& w, const ode::State& global,
                       const kernels::AlgebraicKernel& kernel, int windows,
                       const Trace& trace) {
  const int pt = w.pt, ps = w.ps, nranks = pt * ps;
  VortexSolve out;
  out.logs.resize(trace.tracer != nullptr ? nranks : 0);
  std::vector<std::vector<ode::State>> ends(
      ps, std::vector<ode::State>(windows));
  std::vector<double> vtime(nranks, 0.0), delta(nranks, 0.0);
  double h0 = 0, h1 = 0, c0 = 0, c1 = 0;

  mpsim::Runtime rt;
  rt.set_sched(sched_config());
  if (trace.registry != nullptr) rt.set_registry(trace.registry);
  rt.run(nranks, [&](mpsim::Comm& world) {
    const int rank = world.rank();
    const int slice = rank / ps, srank = rank % ps;
    mpsim::Comm space = world.split(slice, srank);
    mpsim::Comm time = world.split(srank, slice);
    ode::State u = local_slice(global, srank, ps);

    tree::ParallelConfig fine_cfg, coarse_cfg;
    fine_cfg.theta = w.theta;
    coarse_cfg.theta = w.theta_coarse;
    const std::size_t offset = slice_begin(w.n, srank, ps);
    vortex::ParallelTreeRhs fine(space, kernel, fine_cfg, offset);
    vortex::ParallelTreeRhs coarse(space, kernel, coarse_cfg, offset);

    int parent = trace.solve_span;
    auto level_fn = [&](vortex::ParallelTreeRhs& rhs, int level,
                        const char* name) -> ode::RhsFn {
      if (trace.tracer == nullptr) return rhs.as_fn();
      // Everything captured by reference lives in this rank body, which
      // outlives the controller that calls the level RHS.
      return [&, r = &rhs, level, name](double t, const ode::State& x,
                                        ode::State& f) {
        RhsLog& log = out.logs[rank];
        HostSpan span(trace.tracer, name, parent, rank);
        const double v0 = space.clock().now();
        (*r)(t, x, f);
        log.virt[level].push_back(space.clock().now() - v0);
        ++log.calls[level];
        log.near[level] += r->last_timings().near;
        log.far[level] += r->last_timings().far;
      };
    };
    std::vector<pfasst::Level> levels = {
        {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3),
         level_fn(fine, 0, "vortex.rhs.fine"), 1},
        {ode::collocation_nodes(ode::NodeType::kGaussLobatto, 2),
         level_fn(coarse, 1, "vortex.rhs.coarse"), 2},
    };
    pfasst::Config pcfg;
    pcfg.iterations = 2;
    pfasst::Pfasst controller(time, levels, pcfg);
    if (windows == 0) return;

    world.barrier();
    if (rank == 0) {
      h0 = host_now();
      c0 = cpu_now();
    }
    const double v0 = world.clock().now();
    double t = 0.0;
    pfasst::Result result;
    for (int win = 0; win < windows; ++win) {
      HostSpan span(trace.tracer, "pfasst.run", trace.solve_span, rank);
      parent = span.id();
      result = controller.run(u, t, w.dt, pt);
      u = result.u_end;
      t += pt * w.dt;
      if (slice == 0) ends[srank][win] = u;
    }
    vtime[rank] = world.clock().now() - v0;
    if (!result.stats.empty() && !result.stats.back().empty())
      delta[rank] = result.stats.back().back().delta;
    world.barrier();
    if (rank == 0) {
      h1 = host_now();
      c1 = cpu_now();
    }
  });

  for (int win = 0; win < windows; ++win) {
    std::vector<ode::State> parts(ps);
    for (int s = 0; s < ps; ++s) parts[s] = ends[s][win];
    out.window_end.push_back(concat(parts));
  }
  out.host_s = h1 - h0;
  out.cpu_s = c1 - c0;
  out.virtual_s = *std::max_element(vtime.begin(), vtime.end());
  out.final_delta = *std::max_element(delta.begin(), delta.end());
  return out;
}

struct SerialSdc {
  std::vector<ode::State> window_end;
  double host_s = 0.0, virtual_s = 0.0;
};

/// The accuracy reference and speedup denominator: serial SDC(4) with the
/// fine RHS on P_S space ranks, sampled at the same window ends.
SerialSdc run_serial_sdc(const Workload& w, const ode::State& global,
                         const kernels::AlgebraicKernel& kernel) {
  const int ps = w.ps;
  std::vector<std::vector<ode::State>> ends(
      ps, std::vector<ode::State>(w.windows));
  SerialSdc out;
  mpsim::Runtime rt;
  rt.set_sched(sched_config());
  const double h0 = host_now();
  const auto clocks = rt.run(ps, [&](mpsim::Comm& comm) {
    ode::State u = local_slice(global, comm.rank(), ps);
    tree::ParallelConfig cfg;
    cfg.theta = w.theta;
    vortex::ParallelTreeRhs rhs(comm, kernel, cfg,
                                slice_begin(w.n, comm.rank(), ps));
    ode::SdcSweeper sweeper(
        ode::collocation_nodes(ode::NodeType::kGaussLobatto, 3), u.size());
    double t = 0.0;
    for (int win = 0; win < w.windows; ++win) {
      u = ode::sdc_integrate(sweeper, rhs.as_fn(), u, t, w.dt, w.pt,
                             kSerialSweeps);
      t += w.pt * w.dt;
      ends[comm.rank()][win] = u;
    }
  });
  out.host_s = host_now() - h0;
  out.virtual_s = *std::max_element(clocks.begin(), clocks.end());
  for (int win = 0; win < w.windows; ++win) {
    std::vector<ode::State> parts(ps);
    for (int s = 0; s < ps; ++s) parts[s] = ends[s][win];
    out.window_end.push_back(concat(parts));
  }
  return out;
}

/// One distributed tree RHS evaluation at t0 on `ranks` ranks.
struct RhsProbe {
  ode::State f;
  std::vector<tree::SolveTimings> timings;  // per rank
  std::vector<double> host_s;               // per rank
};

RhsProbe probe_rhs(const Workload& w, const ode::State& global,
                   const kernels::AlgebraicKernel& kernel, double theta,
                   int ranks) {
  RhsProbe out;
  out.timings.resize(ranks);
  out.host_s.resize(ranks);
  std::vector<ode::State> parts(ranks);
  mpsim::Runtime rt;
  rt.set_sched(sched_config());
  rt.run(ranks, [&](mpsim::Comm& comm) {
    const ode::State u = local_slice(global, comm.rank(), ranks);
    tree::ParallelConfig cfg;
    cfg.theta = theta;
    vortex::ParallelTreeRhs rhs(comm, kernel, cfg,
                                slice_begin(w.n, comm.rank(), ranks));
    ode::State f(u.size());
    const double h0 = host_now();
    rhs(0.0, u, f);
    out.host_s[comm.rank()] = host_now() - h0;
    out.timings[comm.rank()] = rhs.last_timings();
    parts[comm.rank()] = std::move(f);
  });
  out.f = concat(parts);
  return out;
}

// ---------------------------------------------------------------------------
// coulomb-p8: repeated distributed Coulomb solves on P_S ranks.

struct CoulombSolve {
  std::vector<std::vector<double>> phi;  // [solve][sample]
  double host_s = 0.0, cpu_s = 0.0, virtual_s = 0.0;
  // traced only: [solve][rank]
  std::vector<std::vector<tree::SolveTimings>> timings;
};

/// Each rank's slice of every cloud, [rank][cloud], cut in place on the
/// calling thread (repeated set-ups reuse the storage), so the timed solves
/// copy no particles.
void slice_clouds(const std::vector<Cloud>& clouds, int ranks,
                  std::vector<std::vector<Cloud>>& out) {
  out.resize(ranks);
  for (int r = 0; r < ranks; ++r) {
    out[r].resize(clouds.size());
    for (std::size_t c = 0; c < clouds.size(); ++c)
      out[r][c].assign(
          clouds[c].begin() + slice_begin(clouds[c].size(), r, ranks),
          clouds[c].begin() + slice_begin(clouds[c].size(), r + 1, ranks));
  }
}

/// `solves` distributed solves on as many ranks as `slices` has, solve s on
/// cloud s (mod the cloud count). With solves == 0 only the rank start-up
/// runs.
CoulombSolve run_coulomb(const Workload& w,
                         const std::vector<std::vector<Cloud>>& slices,
                         const std::vector<std::size_t>& samples,
                         const kernels::CoulombKernel& kernel, int solves,
                         const Trace& trace) {
  const int ranks = static_cast<int>(slices.size());
  CoulombSolve out;
  out.phi.assign(solves, std::vector<double>(samples.size(), 0.0));
  out.timings.assign(solves, std::vector<tree::SolveTimings>(ranks));
  std::vector<double> vtime(ranks, 0.0);
  double h0 = 0, h1 = 0, c0 = 0, c1 = 0;
  mpsim::Runtime rt;
  rt.set_sched(sched_config());
  if (trace.registry != nullptr) rt.set_registry(trace.registry);
  rt.run(ranks, [&](mpsim::Comm& comm) {
    const int rank = comm.rank();
    const std::size_t b = slice_begin(w.n, rank, ranks);
    const std::size_t e = slice_begin(w.n, rank + 1, ranks);
    const std::vector<Cloud>& local = slices[rank];
    tree::ParallelConfig cfg;
    cfg.theta = w.theta;
    if (solves == 0) return;

    comm.barrier();
    if (rank == 0) {
      h0 = host_now();
      c0 = cpu_now();
    }
    const double v0 = comm.clock().now();
    for (int s = 0; s < solves; ++s) {
      HostSpan span(trace.tracer, "tree.solve", trace.solve_span, rank);
      tree::ParallelTree solver(comm, cfg);
      const auto forces =
          solver.solve_coulomb(local[s % local.size()], kernel);
      for (std::size_t k = 0; k < samples.size(); ++k)
        if (samples[k] >= b && samples[k] < e)
          out.phi[s][k] = forces.phi[samples[k] - b];
      out.timings[s][rank] = forces.timings;
    }
    vtime[rank] = comm.clock().now() - v0;
    comm.barrier();
    if (rank == 0) {
      h1 = host_now();
      c1 = cpu_now();
    }
  });
  out.host_s = h1 - h0;
  out.cpu_s = c1 - c0;
  out.virtual_s = *std::max_element(vtime.begin(), vtime.end());
  return out;
}

/// Direct-sum potential at the sampled targets (the Coulomb reference).
std::vector<double> coulomb_direct(const Cloud& all,
                                   const std::vector<std::size_t>& samples,
                                   const kernels::CoulombKernel& kernel) {
  std::vector<double> phi(samples.size(), 0.0);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const Vec3 x = all[samples[k]].x;
    for (std::size_t j = 0; j < all.size(); ++j)
      if (j != samples[k])
        kernel.accumulate_potential(x - all[j].x, all[j].q, phi[k]);
  }
  return phi;
}

std::vector<std::size_t> coulomb_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x5a5a5a5aULL);
  std::vector<std::size_t> s(kCoulombSamples);
  for (auto& i : s)
    i = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
  return s;
}

// ---------------------------------------------------------------------------
// Single-thread layer probes on the workload's own particles.

std::vector<tree::TreeParticle> tree_particles(const ode::State& u) {
  std::vector<tree::TreeParticle> out(vortex::num_particles(u));
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p].x = vortex::position(u, p);
    out[p].a = vortex::strength(u, p);
    out[p].id = static_cast<std::uint32_t>(p);
  }
  return out;
}

/// Calls `body` until ~`seconds` of host time have passed (at least
/// `min_calls` times); returns the median seconds per call.
double time_calls(double seconds, int min_calls,
                  const std::function<void()>& body) {
  std::vector<double> t;
  const double start = host_now();
  while (static_cast<int>(t.size()) < min_calls ||
         host_now() - start < seconds) {
    const double h0 = host_now();
    body();
    t.push_back(host_now() - h0);
  }
  return median(t);
}

struct TreeProbe {
  double build_host_s = 0.0, eval_host_s = 0.0;
  double near_rate = 0.0, far_rate = 0.0;  // interactions per host second
};

/// Octree build + BlockedEvaluator timed directly on the 1-rank cloud,
/// and the batched kernels' single-thread rates on blocks of its
/// particles (near: 64 targets x all sources; far: every multipole of the
/// tree against 64 targets).
TreeProbe probe_tree(const std::vector<tree::TreeParticle>& particles,
                     bool coulomb, double theta,
                     const kernels::AlgebraicKernel* vkernel,
                     const kernels::CoulombKernel& ckernel) {
  TreeProbe out;
  std::vector<Vec3> xs(particles.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = particles[i].x;
  const auto domain = tree::Domain::bounding_cube(xs.data(), xs.size());
  std::unique_ptr<tree::Octree> octree;
  out.build_host_s = time_calls(0.2, 3, [&] {
    octree = std::make_unique<tree::Octree>(particles, domain);
  });
  tree::BlockedEvaluator::Config ecfg;
  ecfg.theta = theta;
  const tree::BlockedEvaluator eval(*octree, ecfg);
  out.eval_host_s = time_calls(0.5, 2, [&] {
    if (coulomb)
      (void)eval.evaluate_coulomb(ckernel);
    else
      (void)eval.evaluate_vortex(*vkernel);
  });

  const auto& sorted = octree->particles();
  const std::size_t ns = sorted.size();
  std::vector<double> sx(ns), sy(ns), sz(ns), sq(ns), sax(ns), say(ns),
      saz(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    sx[i] = sorted[i].x.x;
    sy[i] = sorted[i].x.y;
    sz[i] = sorted[i].x.z;
    sq[i] = sorted[i].q;
    sax[i] = sorted[i].a.x;
    say[i] = sorted[i].a.y;
    saz[i] = sorted[i].a.z;
  }
  constexpr std::size_t kTargets = 64;
  const std::size_t nt = std::min(kTargets, ns);
  std::vector<const tree::Multipole*> mps;
  for (const auto& node : octree->nodes())
    if (node.count > 1) mps.push_back(&node.mp);
  const auto self = static_cast<std::int64_t>(nt);  // excludes nothing
  if (coulomb) {
    kernels::CoulombBatch b;
    b.resize(nt);
    for (std::size_t t = 0; t < nt; ++t) {
      b.x[t] = sx[t];
      b.y[t] = sy[t];
      b.z[t] = sz[t];
    }
    b.zero();
    const double tn = time_calls(0.2, 3, [&] {
      ckernel.accumulate_batch(sx.data(), sy.data(), sz.data(), sq.data(), ns,
                               self, b);
    });
    const double tf = time_calls(0.2, 3, [&] {
      for (const auto* mp : mps) mp->evaluate_coulomb_batch(b);
    });
    out.near_rate = static_cast<double>(nt * ns) / tn;
    out.far_rate = static_cast<double>(nt * mps.size()) / tf;
  } else {
    kernels::VortexBatch b;
    b.resize(nt);
    for (std::size_t t = 0; t < nt; ++t) {
      b.x[t] = sx[t];
      b.y[t] = sy[t];
      b.z[t] = sz[t];
    }
    b.zero();
    const double tn = time_calls(0.2, 3, [&] {
      vkernel->accumulate_batch(sx.data(), sy.data(), sz.data(), sax.data(),
                                say.data(), saz.data(), ns, self, b);
    });
    const double tf = time_calls(0.2, 3, [&] {
      for (const auto* mp : mps) mp->evaluate_biot_savart_batch(b, vkernel);
    });
    out.near_rate = static_cast<double>(nt * ns) / tn;
    out.far_rate = static_cast<double>(nt * mps.size()) / tf;
  }
  return out;
}

// Approximate floating-point operations per interaction, read off the
// explicit-SIMD kernel bodies (src/simd/kernels_impl.hpp; an FMA counts 2,
// the Newton-refined rsqrt 16). kernels.flops is computed from these and
// the interaction counts, not measured.
constexpr double kFlopsVortexNear = 90;    // order-6 velocity + gradient
constexpr double kFlopsVortexFar = 490;    // quadrupole velocity + gradient
constexpr double kFlopsCoulombNear = 36;   // potential + field
constexpr double kFlopsCoulombFar = 290;   // quadrupole potential + field

// ---------------------------------------------------------------------------
// Tree phase metrics shared by the vortex probe and the Coulomb solve.

void tree_metrics(const std::vector<tree::SolveTimings>& tp,
                  const std::vector<tree::SolveTimings>& t1, std::size_t n,
                  double host_s, std::map<std::string, double>& m) {
  auto max_of = [&](auto field) {
    double v = 0.0;
    for (const auto& t : tp) v = std::max(v, field(t));
    return v;
  };
  m["tree.domain_virtual_s"] = max_of([](auto& t) { return t.domain; });
  m["tree.build_virtual_s"] = max_of([](auto& t) { return t.tree_build; });
  m["tree.branch_exchange_virtual_s"] =
      max_of([](auto& t) { return t.branch_exchange; });
  m["tree.let_exchange_virtual_s"] =
      max_of([](auto& t) { return t.let_exchange; });
  m["tree.traversal_virtual_s"] = max_of([](auto& t) { return t.traversal; });
  m["tree.solve_host_s"] = host_s;
  double inter = 0.0, let = 0.0, trav_sum = 0.0;
  for (const auto& t : tp) {
    inter += static_cast<double>(t.near + t.far);
    let += static_cast<double>(t.let_sent);
    trav_sum += t.traversal;
  }
  const double ipp = inter / static_cast<double>(n);
  double inter1 = 0.0;
  for (const auto& t : t1) inter1 += static_cast<double>(t.near + t.far);
  m["tree.interactions_per_particle"] = ipp;
  m["tree.let_entries"] = let;
  m["tree.interaction_inflation"] =
      inter1 > 0 ? ipp / (inter1 / static_cast<double>(n)) : 0.0;
  const double trav_mean = trav_sum / static_cast<double>(tp.size());
  m["tree.traversal_imbalance"] =
      trav_mean > 0 ? m["tree.traversal_virtual_s"] / trav_mean : 0.0;
  double tp_total = 0.0;
  for (const auto& t : tp) tp_total = std::max(tp_total, t.total());
  const double t1_total = t1.empty() ? 0.0 : t1.front().total();
  m["tree.virtual_efficiency"] =
      tp_total > 0 ? t1_total / (static_cast<double>(tp.size()) * tp_total)
                   : 0.0;
}

/// Per-step mpsim counters and sched counters from a traced solve.
void comm_metrics(const obs::Registry& reg, double steps,
                  std::map<std::string, double>& m) {
  m["mpsim.p2p_messages"] =
      static_cast<double>(reg.counter_total("mpsim.p2p.messages")) / steps;
  m["mpsim.p2p_bytes"] =
      static_cast<double>(reg.counter_total("mpsim.p2p.bytes_sent")) / steps;
  m["mpsim.collective_bytes"] =
      static_cast<double>(reg.counter_total("mpsim.collective.bytes")) / steps;
  double wait = 0.0;
  for (const char* s : {"mpsim.recv", "mpsim.barrier", "mpsim.allgatherv",
                        "mpsim.allreduce", "mpsim.broadcast",
                        "mpsim.alltoallv"})
    wait += reg.span_total(s).total;
  const auto ranks = static_cast<double>(reg.ranks().size());
  m["mpsim.wait_virtual_s"] = ranks > 0 ? wait / ranks : 0.0;
  m["sched.context_switches"] =
      static_cast<double>(reg.counter_total("sched.context_switches"));
}

// ---------------------------------------------------------------------------
// Output.

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, std::pair<double, const char*>> metrics;

  void gate(const std::string& what, double err, double tol) {
    const bool ok = within(err, tol);
    if (!ok) correct = false;
    std::fprintf(stderr, "gate %-34s err %.3e  tol %.1e  %s\n", what.c_str(),
                 err, tol, ok ? "ok" : "FAILED");
  }
};

void print_result(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              o.correct && o.failed == 0 ? "true" : "false", o.attempted,
              o.failed);
  bool first = true;
  for (const auto& [name, v] : o.metrics) {
    const double value = std::isfinite(v.first) ? v.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, v.second);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool optimized_build() {
  const std::string bt = STNB_BENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel";
}

std::string metadata_json(const Workload& w, std::uint64_t seed,
                          double seconds, bool traced) {
  const auto sched = sched_config();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"simd_backend\": \"%s\", \"sched_mode\": \"fiber\", "
      "\"sched_workers\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
      "\"optimized\": %s}",
      w.name, static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0,
      simd::backend_name(simd::active_backend()), sched.workers,
      sysconf(_SC_NPROCESSORS_ONLN), STNB_BENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false");
  return buf;
}

bool write_spans(const std::string& path, const Tracer& tracer,
                 const std::string& meta) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"run_id\": \"" << tracer.run_id() << "\", \"metadata\": " << meta
     << ", \"spans\": [\n";
  const auto spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"run_id\": \"%s\", \"id\": %d, \"parent\": %d, "
                  "\"rank\": %d, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f}%s\n",
                  tracer.run_id().c_str(), s.id, s.parent, s.rank,
                  s.name.c_str(), s.begin, s.end,
                  i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------
// The runs.

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string spans;
  std::string meta;  // run metadata, also written into the span file
};

/// Repeats `rep` until the next repetition would end past `seconds`
/// (at least once).
void repeat_for(double seconds, const std::function<void()>& rep) {
  const double start = host_now();
  double last = 0.0;
  do {
    const double h0 = host_now();
    rep();
    last = host_now() - h0;
  } while (host_now() - start + last <= seconds);
}

/// Runs `fn`, counting `ops` attempted operations and all of them failed
/// if it throws.
template <typename Fn>
void guarded(Outcome& o, long ops, Fn&& fn) {
  o.attempted += ops;
  try {
    fn();
    return;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation failed: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "operation failed: unknown exception\n");
  }
  o.failed += ops;
}

/// One traced timed solve: a fresh registry and a "solve" span around
/// `run(trace)`.
template <typename Solve, typename Run>
void run_traced(Outcome& o, long ops, Tracer& tracer,
                std::vector<Traced<Solve>>& out, Run&& run) {
  auto registry = std::make_unique<obs::Registry>();
  const Trace t{&tracer, registry.get(), tracer.reserve()};
  const double begin = tracer.now();
  guarded(o, ops, [&] {
    Solve solve = run(t);
    out.push_back({std::move(solve), std::move(registry), t.solve_span});
  });
  tracer.record({t.solve_span, -1, -1, "solve", begin, tracer.now()});
}

/// The traced solve with the median wall time, whose spans and registry
/// give the per-layer breakdown; nullptr when none succeeded.
template <typename Solve>
const Traced<Solve>* median_traced(const std::vector<Traced<Solve>>& traced) {
  if (traced.empty()) return nullptr;
  std::vector<const Traced<Solve>*> by;
  for (const auto& t : traced) by.push_back(&t);
  std::sort(by.begin(), by.end(), [](const auto* x, const auto* y) {
    return x->solve.host_s < y->solve.host_s;
  });
  return by[by.size() / 2];
}

template <typename Solve>
double median_of(const std::vector<Solve>& solves, double Solve::*field) {
  std::vector<double> v;
  for (const auto& s : solves) v.push_back(s.*field);
  return median(v);
}

template <typename Solve>
double median_traced_host(const std::vector<Traced<Solve>>& traced) {
  std::vector<double> v;
  for (const auto& t : traced) v.push_back(t.solve.host_s);
  return median(v);
}

/// The end-to-end metrics, from the untraced solves.
template <typename Solve>
void report_end_to_end(Outcome& o, const std::vector<Solve>& solves,
                       const std::vector<double>& setup, double rss) {
  std::vector<double> host;
  for (const auto& s : solves) host.push_back(s.host_s);
  print_samples("setup_s", setup);
  print_samples("solve_s", host);
  o.metrics["solve_s"] = {median(host), "s"};
  o.metrics["cpu_s"] = {median_of(solves, &Solve::cpu_s), "s"};
  o.metrics["virtual_s"] = {solves.empty() ? 0.0 : solves.back().virtual_s,
                            "s"};
  o.metrics["setup_s"] = {median(setup), "s"};
  o.metrics["peak_rss_mb"] = {rss, "MB"};
}

int self_test_failures = 0;

/// Self-test: the gate must reject a perturbed result.
void expect_fires(const char* gate, double err, double tol) {
  const bool fired = !within(err, tol);
  std::fprintf(stderr, "self-test %-28s perturbed err %.3e tol %.1e: %s\n",
               gate, err, tol, fired ? "gate fires" : "GATE DID NOT FIRE");
  if (!fired) ++self_test_failures;
}

ode::State perturbed_positions(ode::State u, double rel) {
  // Moves one particle by `rel` times the configuration's extent.
  double scale = 0.0;
  for (std::size_t p = 0; p < vortex::num_particles(u); ++p)
    scale = std::max(scale, norm(vortex::position(u, p)));
  vortex::set_position(u, 0, vortex::position(u, 0) + Vec3{rel * scale, 0, 0});
  return u;
}

void run_vortex_workload(const Args& a, Outcome& o) {
  const Workload& w = *a.workload;
  const auto sheet = sheet_config(w, a.seed);
  const kernels::AlgebraicKernel kernel(sheet.kernel_order, sheet.sigma());
  const long ops_per_solve = w.windows;  // one PFASST window = one operation

  // Set-up: initial condition, communicator split, RHS/level/controller
  // construction (see kSetupRepeats for how it is timed).
  std::vector<double> setup;
  ode::State global;
  auto set_up = [&] {
    const double c0 = cpu_now();
    global = vortex::spherical_vortex_sheet(sheet);
    run_vortex(w, global, kernel, 0, Trace{});
    setup.push_back(cpu_now() - c0);
  };
  for (int i = 0; i < (a.trace ? 1 : kSetupRepeats); ++i) set_up();

  // Timed solves. The traced run alternates untraced and traced solves so
  // obs.tracing_overhead compares like with like.
  std::vector<VortexSolve> solves;
  std::vector<Traced<VortexSolve>> traced;
  Tracer tracer(std::string(w.name) + "-seed" + std::to_string(a.seed) +
                "-pid" + std::to_string(getpid()));
  repeat_for(a.seconds, [&] {
    guarded(o, ops_per_solve, [&] {
      solves.push_back(run_vortex(w, global, kernel, w.windows, Trace{}));
    });
    if (!a.trace) {
      set_up();
      return;
    }
    run_traced(o, ops_per_solve, tracer, traced, [&](const Trace& t) {
      return run_vortex(w, global, kernel, w.windows, t);
    });
  });
  const double rss = peak_rss_mb();

  // References, computed after the timed solves.
  const SerialSdc serial = run_serial_sdc(w, global, kernel);
  auto check_solve = [&](const VortexSolve& s) {
    for (int win = 0; win < w.windows; ++win) {
      const double err = win < static_cast<int>(s.window_end.size())
                             ? position_error(s.window_end[win],
                                              serial.window_end[win])
                             : INFINITY;
      if (!within(err, w.tol_pfasst)) {
        ++o.failed;
        std::fprintf(stderr, "window %d: position error %.3e > %.1e\n", win,
                     err, w.tol_pfasst);
      }
    }
  };
  for (const auto& s : solves) check_solve(s);
  for (const auto& t : traced) check_solve(t.solve);
  if (!solves.empty())
    o.gate("pfasst vs serial SDC(4)",
           position_error(solves.back().window_end.back(),
                          serial.window_end.back()),
           w.tol_pfasst);

  const RhsProbe fine = probe_rhs(w, global, kernel, w.theta, w.ps);
  const RhsProbe coarse = probe_rhs(w, global, kernel, w.theta_coarse, w.ps);
  ode::State direct(global.size());
  const vortex::DirectRhs direct_rhs(kernel);
  direct_rhs(0.0, global, direct);
  for (int half = 0; half < 2; ++half) {
    const std::string what = half == 0 ? " RHS velocity" : " RHS stretching";
    o.gate("fine" + what, rhs_error(fine.f, direct, half),
           w.tol_rhs_fine[half]);
    o.gate("coarse" + what, rhs_error(coarse.f, direct, half),
           w.tol_rhs_coarse[half]);
  }
  const ode::State& u_end =
      solves.empty() ? global : solves.back().window_end.back();
  const auto cons = conservation_error(global, u_end);
  o.gate("total vorticity", cons.vorticity, kTolVorticity);
  o.gate("linear impulse drift", cons.impulse_drift, kTolImpulseDrift);
  o.gate("linear impulse I_z = -0.5", cons.impulse_initial,
         kTolImpulseInitial);
  if (solves.empty()) o.correct = false;

  if (a.self_test && !solves.empty()) {
    const auto& end = solves.back().window_end.back();
    expect_fires("pfasst vs serial SDC(4)",
                 position_error(perturbed_positions(end, 1e-3),
                                serial.window_end.back()),
                 w.tol_pfasst);
    // One particle's RHS off by half the reference's largest magnitude.
    const std::size_t mid = vortex::num_particles(global) / 2;
    for (int half = 0; half < 2; ++half) {
      double scale = 0.0;
      for (std::size_t i = half * 3; i < direct.size(); i += 6)
        scale = std::max(scale, std::fabs(direct[i]));
      ode::State bad = fine.f;
      bad[6 * mid + 3 * half] += 0.5 * scale;
      const std::string what = half == 0 ? " RHS velocity" : " RHS stretching";
      expect_fires(("fine" + what).c_str(), rhs_error(bad, direct, half),
                   w.tol_rhs_fine[half]);
      expect_fires(("coarse" + what).c_str(), rhs_error(bad, direct, half),
                   w.tol_rhs_coarse[half]);
    }
    double total = 0.0;
    for (std::size_t p = 0; p < vortex::num_particles(end); ++p)
      total += norm(vortex::strength(end, p));
    ode::State bad_u = end;
    vortex::set_strength(bad_u, mid, vortex::strength(bad_u, mid) +
                                         Vec3{0.01 * total, 0, 0});
    expect_fires("total vorticity",
                 conservation_error(global, bad_u).vorticity, kTolVorticity);
    bad_u = end;
    for (std::size_t p = 0; p < vortex::num_particles(end); ++p)
      vortex::set_position(bad_u, p, 1.01 * vortex::position(end, p));
    expect_fires("linear impulse drift",
                 conservation_error(global, bad_u).impulse_drift,
                 kTolImpulseDrift);
    ode::State bad_u0 = global;
    for (std::size_t p = 0; p < vortex::num_particles(global); ++p)
      vortex::set_strength(bad_u0, p, 1.01 * vortex::strength(global, p));
    expect_fires("linear impulse I_z = -0.5",
                 conservation_error(bad_u0, end).impulse_initial,
                 kTolImpulseInitial);
  }

  if (!a.trace) {
    report_end_to_end(o, solves, setup, rss);
    return;
  }

  // ---- per-layer metrics from the traced solves --------------------------
  const auto* pick = median_traced(traced);
  if (pick == nullptr || solves.empty()) {
    o.correct = false;
    return;
  }
  std::map<std::string, double> m;
  const auto spans = tracer.spans();
  const double solve_s = median_of(solves, &VortexSolve::host_s);
  const double cpu_s = median_of(solves, &VortexSolve::cpu_s);
  const int nranks = w.pt * w.ps;
  const auto workers = static_cast<double>(sched_config().workers);

  std::vector<double> run_r(nranks, 0.0), child_r(nranks, 0.0);
  std::array<std::vector<double>, 2> rhs_host;
  for (const auto& s : spans) {
    if (s.name != "pfasst.run" || s.parent != pick->span) continue;
    run_r[s.rank] += s.duration();
    child_r[s.rank] += child_cover(s, spans);
    for (const auto& c : spans)
      if (c.parent == s.id)
        rhs_host[c.name == "vortex.rhs.fine" ? 0 : 1].push_back(c.duration());
  }
  const double run_host = mean(run_r), child_host = mean(child_r);
  m["pfasst.run_host_s"] = run_host;
  m["pfasst.self_host_s"] = run_host - child_host;
  m["pfasst.rhs_child_host_s"] = child_host;

  const VortexSolve& tv = pick->solve;
  std::array<double, 2> evals{}, near{}, far{};
  std::array<std::vector<double>, 2> rhs_virt;
  for (int r = 0; r < static_cast<int>(tv.logs.size()); ++r) {
    const auto& log = tv.logs[r];
    for (int l = 0; l < 2; ++l) {
      if (r % w.ps == 0) evals[l] += static_cast<double>(log.calls[l]);
      near[l] += static_cast<double>(log.near[l]);
      far[l] += static_cast<double>(log.far[l]);
      rhs_virt[l].insert(rhs_virt[l].end(), log.virt[l].begin(),
                         log.virt[l].end());
    }
  }
  m["pfasst.rhs_evals.fine"] = evals[0];
  m["pfasst.rhs_evals.coarse"] = evals[1];
  m["pfasst.final_delta"] = tv.final_delta;
  m["vortex.rhs_host_s.fine"] = median(rhs_host[0]);
  m["vortex.rhs_host_s.coarse"] = median(rhs_host[1]);
  m["vortex.rhs_virtual_s.fine"] = median(rhs_virt[0]);
  m["vortex.rhs_virtual_s.coarse"] = median(rhs_virt[1]);
  // Repository convention (bench/fig8_speedup): alpha is the coarse/fine
  // sweep cost ratio, 2 coarse vs 3 fine nodes times the per-call ratio.
  const double alpha = m["vortex.rhs_virtual_s.fine"] > 0
                           ? 2.0 / 3.0 * m["vortex.rhs_virtual_s.coarse"] /
                                 m["vortex.rhs_virtual_s.fine"]
                           : 0.0;
  m["pfasst.alpha"] = alpha;
  const double speedup = tv.virtual_s > 0 ? serial.virtual_s / tv.virtual_s : 0;
  m["pfasst.virtual_speedup"] = speedup;
  perf::PfasstCosts costs;
  costs.alpha = alpha;
  m["pfasst.speedup_vs_model"] = speedup / perf::pfasst_speedup(w.pt, costs);
  m["ode.serial_sdc_host_s"] = serial.host_s;
  m["ode.serial_sdc_virtual_s"] = serial.virtual_s;

  const RhsProbe one = probe_rhs(w, global, kernel, w.theta, 1);
  std::fprintf(stderr, "info: 1-rank fine RHS error: velocity %.3e, "
               "stretching %.3e\n", rhs_error(one.f, direct, 0),
               rhs_error(one.f, direct, 1));
  tree_metrics(fine.timings, one.timings, w.n, mean(fine.host_s), m);
  const auto probe = probe_tree(tree_particles(global), false, w.theta,
                                &kernel, kernels::CoulombKernel{});
  m["tree.build_host_s"] = probe.build_host_s;
  m["tree.eval_host_s"] = probe.eval_host_s;
  m["kernels.near_rate"] = probe.near_rate;
  m["kernels.far_rate"] = probe.far_rate;
  const double n_near = near[0] + near[1], n_far = far[0] + far[1];
  m["kernels.flops"] = kFlopsVortexNear * n_near + kFlopsVortexFar * n_far;
  m["kernels.share"] =
      cpu_s > 0 ? (n_near / probe.near_rate + n_far / probe.far_rate) / cpu_s
                : 0.0;

  comm_metrics(*pick->registry, static_cast<double>(w.pt * w.windows), m);
  m["sched.cpu_util"] = solve_s > 0 ? cpu_s / (solve_s * workers) : 0.0;
  m["obs.tracing_overhead"] =
      solve_s > 0 ? median_traced_host(traced) / solve_s : 0;

  std::fprintf(stderr,
               "accounting (rank mean, picked traced solve): pfasst.run %.4f s"
               " = self %.4f s + rhs children %.4f s\n",
               run_host, run_host - child_host, child_host);
  for (const auto& [k, v] : m) o.metrics[k] = {v, ""};
  if (!a.spans.empty()) {
    if (!write_spans(a.spans, tracer, a.meta))
      std::fprintf(stderr, "cannot write %s\n", a.spans.c_str());
  }
}

void run_coulomb_workload(const Args& a, Outcome& o) {
  const Workload& w = *a.workload;
  const kernels::CoulombKernel kernel(kCoulombSoftening);
  const auto samples = coulomb_samples(w.n, a.seed);
  std::vector<double> setup;
  std::vector<Cloud> clouds;
  std::vector<std::vector<Cloud>> slices;
  auto set_up = [&] {
    const double c0 = cpu_now();
    coulomb_clouds(w.n, a.seed, w.solves, clouds);
    slice_clouds(clouds, w.ps, slices);
    run_coulomb(w, slices, samples, kernel, 0, Trace{});
    setup.push_back(cpu_now() - c0);
  };
  for (int i = 0; i < (a.trace ? 1 : kSetupRepeats); ++i) set_up();

  std::vector<CoulombSolve> solves;
  std::vector<Traced<CoulombSolve>> traced;
  Tracer tracer(std::string(w.name) + "-seed" + std::to_string(a.seed) +
                "-pid" + std::to_string(getpid()));
  repeat_for(a.seconds, [&] {
    guarded(o, w.solves, [&] {
      solves.push_back(
          run_coulomb(w, slices, samples, kernel, w.solves, Trace{}));
    });
    if (!a.trace) {
      set_up();
      return;
    }
    run_traced(o, w.solves, tracer, traced, [&](const Trace& t) {
      return run_coulomb(w, slices, samples, kernel, w.solves, t);
    });
  });
  const double rss = peak_rss_mb();

  std::vector<std::vector<double>> ref;
  for (const auto& cloud : clouds)
    ref.push_back(coulomb_direct(cloud, samples, kernel));
  auto check = [&](const CoulombSolve& s) {
    for (std::size_t k = 0; k < s.phi.size(); ++k) {
      const double err = coulomb_error(s.phi[k], ref[k % ref.size()]);
      if (!within(err, w.tol_coulomb)) {
        ++o.failed;
        std::fprintf(stderr, "coulomb solve: error %.3e > %.1e\n", err,
                     w.tol_coulomb);
      }
    }
  };
  for (const auto& s : solves) check(s);
  for (const auto& t : traced) check(t.solve);
  if (solves.empty()) {
    o.correct = false;
  } else {
    o.gate("coulomb potential vs direct sum",
           coulomb_error(solves.back().phi.front(), ref.front()),
           w.tol_coulomb);
    if (a.self_test) {
      // One sampled potential off by a tenth of the largest |phi|.
      double scale = 0.0;
      for (double v : ref.front()) scale = std::max(scale, std::fabs(v));
      auto bad = solves.back().phi.front();
      bad[0] += 0.1 * scale;
      expect_fires("coulomb potential vs direct",
                   coulomb_error(bad, ref.front()), w.tol_coulomb);
    }
  }

  if (!a.trace) {
    report_end_to_end(o, solves, setup, rss);
    return;
  }

  const auto* pick = median_traced(traced);
  if (pick == nullptr || solves.empty()) {
    o.correct = false;
    return;
  }
  std::map<std::string, double> m;
  const double solve_s = median_of(solves, &CoulombSolve::host_s);
  const double cpu_s = median_of(solves, &CoulombSolve::cpu_s);
  const auto spans = tracer.spans();
  std::vector<double> rank_solve(w.ps, 0.0);
  for (const auto& s : spans)
    if (s.name == "tree.solve" && s.parent == pick->span)
      rank_solve[s.rank] += s.duration();
  const CoulombSolve& ts = pick->solve;

  // 1-rank reference solve: T_1 and the interaction count without LET.
  // Tree metrics are those of cloud 0 (the first solve).
  std::vector<std::vector<Cloud>> whole;
  slice_clouds(clouds, 1, whole);
  const auto one = run_coulomb(w, whole, samples, kernel, 1, Trace{});
  tree_metrics(ts.timings.front(), one.timings.front(), w.n,
               mean(rank_solve) / w.solves, m);
  const auto probe =
      probe_tree(clouds.front(), true, w.theta, nullptr, kernel);
  m["tree.build_host_s"] = probe.build_host_s;
  m["tree.eval_host_s"] = probe.eval_host_s;
  m["kernels.near_rate"] = probe.near_rate;
  m["kernels.far_rate"] = probe.far_rate;
  double n_near = 0, n_far = 0;
  for (const auto& per_solve : ts.timings)
    for (const auto& t : per_solve) {
      n_near += static_cast<double>(t.near);
      n_far += static_cast<double>(t.far);
    }
  m["kernels.flops"] = kFlopsCoulombNear * n_near + kFlopsCoulombFar * n_far;
  m["kernels.share"] =
      cpu_s > 0 ? (n_near / probe.near_rate + n_far / probe.far_rate) / cpu_s
                : 0.0;
  comm_metrics(*pick->registry, static_cast<double>(w.solves), m);
  m["sched.cpu_util"] =
      solve_s > 0 ? cpu_s / (solve_s * sched_config().workers) : 0.0;
  m["obs.tracing_overhead"] =
      solve_s > 0 ? median_traced_host(traced) / solve_s : 0;

  // pfasst, ode and vortex are bypassed on this workload: reported as 0.
  for (const char* k :
       {"pfasst.run_host_s", "pfasst.self_host_s", "pfasst.rhs_child_host_s",
        "pfasst.rhs_evals.fine", "pfasst.rhs_evals.coarse",
        "pfasst.final_delta", "pfasst.alpha", "pfasst.virtual_speedup",
        "pfasst.speedup_vs_model", "ode.serial_sdc_host_s",
        "ode.serial_sdc_virtual_s", "vortex.rhs_host_s.fine",
        "vortex.rhs_host_s.coarse", "vortex.rhs_virtual_s.fine",
        "vortex.rhs_virtual_s.coarse"})
    m[k] = 0.0;
  for (const auto& [k, v] : m) o.metrics[k] = {v, ""};
  if (!a.spans.empty()) {
    if (!write_spans(a.spans, tracer, a.meta))
      std::fprintf(stderr, "cannot write %s\n", a.spans.c_str());
  }
}

// Units of the per-layer metrics (BENCHMARK.json lists the same).
const char* layer_unit(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"pfasst.rhs_evals.fine", "count"},
      {"pfasst.rhs_evals.coarse", "count"},
      {"pfasst.final_delta", "norm"},
      {"pfasst.alpha", "ratio"},
      {"pfasst.virtual_speedup", "ratio"},
      {"pfasst.speedup_vs_model", "ratio"},
      {"tree.interactions_per_particle", "count"},
      {"tree.let_entries", "count"},
      {"tree.interaction_inflation", "ratio"},
      {"tree.traversal_imbalance", "ratio"},
      {"tree.virtual_efficiency", "ratio"},
      {"kernels.near_rate", "1/s"},
      {"kernels.far_rate", "1/s"},
      {"kernels.flops", "flop.computed"},
      {"kernels.share", "ratio"},
      {"mpsim.p2p_messages", "count/step"},
      {"mpsim.p2p_bytes", "B/step"},
      {"mpsim.collective_bytes", "B/step"},
      {"sched.context_switches", "count"},
      {"sched.cpu_util", "ratio"},
      {"obs.tracing_overhead", "ratio"},
  };
  const auto it = units.find(name);
  return it != units.end() ? it->second : "s";
}

bool parse_args(int argc, char** argv, Args& a) {
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        return false;
    } else if (key == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (key == "--self-test") {
      if (v != "0" && v != "1") return false;
      a.self_test = v == "1";
    } else if (key == "--spans") {
      a.spans = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  for (const auto& w : kWorkloads)
    if (workload == w.name) a.workload = &w;
  if (a.workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (one of:", workload.c_str());
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, ")\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: stnb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--self-test 0|1]\n");
    return 2;
  }
  if (!optimized_build())
    std::fprintf(stderr, "WARNING: non-optimised build (%s); timings are "
                 "not comparable\n", STNB_BENCH_BUILD_TYPE);
  a.meta = metadata_json(*a.workload, a.seed, a.seconds, a.trace);
  std::printf("{\"meta\": %s}\n", a.meta.c_str());

  Outcome o;
  try {
    if (a.workload->coulomb)
      run_coulomb_workload(a, o);
    else
      run_vortex_workload(a, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (auto& [name, v] : o.metrics)
    if (v.second[0] == '\0') v.second = layer_unit(name);
  print_result(o);
  if (!a.self_test) return 0;
  const bool pass = self_test_failures == 0 && o.correct && o.failed == 0;
  std::fprintf(stderr, "self-test: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
