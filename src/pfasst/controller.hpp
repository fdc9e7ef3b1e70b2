// The PFASST controller (paper Sec. III-B3, Algorithm 1, Fig. 6): a
// multi-level SDC hierarchy pipelined over the ranks of a *time*
// communicator. Each rank owns one time slice per block; iterations
// intertwine fine sweeps, FAS-corrected coarse sweeps, and forward sends
// of updated initial values.
//
// Levels are ordered finest (0) to coarsest (L-1). Spatial coarsening is
// expressed through each level's RHS (e.g. a TreeRhs with larger MAC
// theta); time coarsening through nested collocation node sets.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "mpsim/comm.hpp"
#include "ode/sdc.hpp"
#include "pfasst/transfer.hpp"

namespace stnb::pfasst {

struct Level {
  std::vector<double> nodes;  // collocation nodes on [0,1], incl. endpoints
  ode::RhsFn rhs;
  int sweeps = 1;  // n_ell: SDC sweeps per PFASST iteration on this level
};

struct Config {
  int iterations = 2;   // K_p
  bool predict = true;  // coarse burn-in initialization stage (Fig. 6)

  // -- algorithm-based fault recovery (only active when the Runtime has a
  // fault injector installed; zero-cost otherwise) ------------------------
  /// Recover from lost forward-sends and rank soft-fails instead of
  /// propagating FaultError: a lost message falls back to the last good
  /// value, a soft-failed rank rebuilds its slice from the predecessor's
  /// last forward-send, and the pipeline re-converges with extra
  /// iterations (reported as Result::k_extra).
  bool recover = false;
  /// Extra coarse sweeps sharpening a rebuilt slice before it rejoins the
  /// iteration (the coarse level is cheap; this is the paper's
  /// MAC-coarsened propagator doing double duty as recovery propagator).
  int recovery_sweeps = 2;
  /// Extra full PFASST iterations appended to a block in which any rank
  /// recovered, agreed collectively so the pipeline stays in lockstep.
  int recovery_iterations = 2;
};

/// Per-iteration convergence diagnostics of one rank (time slice).
struct IterationStats {
  /// Collocation residual of the fine level (SdcSweeper::residual) right
  /// after its sweeps in this iteration, where U and F agree: before the
  /// coarse correction is interpolated onto it.
  double fine_residual = 0.0;
  double delta = 0.0;           // |u_end^k - u_end^{k-1}|_inf, the paper's
                                // Sec. IV-B "residual" between iterations
};

struct Result {
  ode::State u_end;  // solution at the end of the last slice (every rank)
  /// stats[b][k] = diagnostics of block b, iteration k on *this* rank.
  /// Recovery iterations appear as extra entries past Config::iterations.
  std::vector<std::vector<IterationStats>> stats;
  long rhs_evaluations = 0;  // this rank, all levels

  // -- fault-recovery overhead (all zero on fault-free runs) --------------
  int k_extra = 0;           // extra iterations run for recovery, all blocks
  long slice_rebuilds = 0;   // times this rank rebuilt its slice state
  long lost_messages = 0;    // forward-sends this rank lost and replaced
};

class Pfasst {
 public:
  /// `time_comm`: the temporal communicator (P_T ranks). Levels must have
  /// nested node sets (every level's nodes nested in the finer one).
  Pfasst(mpsim::Comm time_comm, std::vector<Level> levels, Config config);

  /// Integrates u' = f(t, u) from (t0, u0) over `nsteps` uniform steps of
  /// size dt. nsteps must be a multiple of the communicator size; each
  /// block of P_T consecutive steps runs in parallel (one per rank),
  /// blocks run sequentially (windowed PFASST).
  Result run(const ode::State& u0, double t0, double dt, int nsteps);

  /// Communicator over which the per-block extra-iteration count is
  /// agreed when recovering (default: the time communicator). In
  /// space-time runs whose RHS evaluations synchronize over a *space*
  /// communicator, pass the world comm here — otherwise time groups that
  /// saw different faults would disagree on the iteration count and their
  /// interleaved space collectives would mismatch.
  void set_recovery_comm(mpsim::Comm comm);

  /// Communicator spanning the ranks that jointly own this rank's slice
  /// state (the *space* communicator in space-time runs). When set, the
  /// soft-fail rebuild decision is agreed over it so a distributed slice
  /// rebuilds on every owner at once — the rebuild sweeps evaluate the RHS,
  /// and a space-collective RHS deadlocks if only some owners sweep.
  void set_slice_comm(mpsim::Comm comm);

 private:
  struct LevelState {
    Level config;
    std::unique_ptr<ode::SdcSweeper> sweeper;
    // Snapshots at restriction, after the FAS refresh: the coarse
    // corrections interpolated up are U - u_pre and F - f_pre.
    std::vector<ode::State> u_pre;
    std::vector<ode::State> f_pre;
  };

  void predictor(double t_slice, double dt);
  /// One Algorithm-1 V-cycle; returns the fine residual (IterationStats).
  double iteration(int k, double t_slice, double dt);
  /// Evaluates the coarse level's stale F, snapshots it as f_pre, then
  /// sets its FAS correction.
  void compute_fas(int coarse_level, double t_slice, double dt);

  // -- fault recovery ------------------------------------------------------
  /// Restriction of the fine provisional solution down the hierarchy (also
  /// the non-predictor initialization path).
  void mirror_to_coarse();
  /// Interpolation of the provisional coarsest solution, U and F, up the
  /// hierarchy (also the predictor's final stage).
  void interpolate_to_fine(double t_slice, double dt);
  /// Receive a forward-send, falling back to nullopt (recovery mode) when
  /// the message was lost to a fault.
  std::optional<ode::State> recv_initial(int source, int tag);
  /// Detects a soft-fail window crossed since the last check and rebuilds
  /// this rank's slice from the last good initial value.
  void maybe_rebuild(double t_slice, double dt);
  void rebuild_slice(double t_slice, double dt);

  mpsim::Comm comm_;
  Config config_;
  std::vector<LevelState> levels_;
  std::vector<TimeTransfer> transfer_;  // [l]: level l <-> level l+1
  std::size_t dof_ = 0;

  mpsim::Comm recovery_comm_;
  bool has_recovery_comm_ = false;
  mpsim::Comm slice_comm_;
  bool has_slice_comm_ = false;
  bool fault_aware_ = false;      // recover requested AND injector present
  bool block_recovered_ = false;  // any recovery event in the current block
  double t_fail_check_ = 0.0;     // virtual time of the last soft-fail scan
  ode::State u_restart_;          // last known-good slice initial value
  int k_extra_ = 0;
  long slice_rebuilds_ = 0;
  long lost_messages_ = 0;
};

}  // namespace stnb::pfasst
