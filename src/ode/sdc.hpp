// Explicit spectral deferred corrections (SDC) on one time step, following
// Dutt/Greengard/Rokhlin and the sweep form of the paper's Eq. (13):
//
//   U^{k+1}_{m+1} = U^{k+1}_m
//                 + dt_m [ f(t_m, U^{k+1}_m) - f(t_m, U^k_m) ]
//                 + \int_{t_m}^{t_{m+1}} f(s, U^k(s)) ds  (+ FAS tau)
//
// The sweeper owns node values U and function values F for one step and is
// reused by the serial SDC driver, parareal's fine/coarse propagators, and
// the PFASST levels (which add FAS corrections via `set_tau`). It keeps one
// freshness bit per node. A node is fresh when its F is the value the
// sweep should use there: f(t_m, U_m), or an F transferred together with U
// (`set_values_with_f`, or `spread`'s copy of F_0). Writing U alone marks F
// stale, and F is evaluated only when a sweep or an integral reads it, so
// no caller computes an F that nobody reads. A sweep re-evaluates every
// interior node and leaves its last node stale, so a caller can send
// end_value() before paying for that F. Reading stale F throws instead of
// using old values. `residual` and the FAS integrals read whatever F is
// stored; the PFASST controller only calls them after every transferred F
// has been replaced by an evaluation: the sweep re-evaluates the interior,
// node 0 is re-evaluated after `set_initial` (or carries a zero correction
// on the first time slice), and node M is refreshed before both readers.
#pragma once

#include <functional>
#include <vector>

#include "ode/quadrature.hpp"
#include "ode/vspace.hpp"

namespace stnb::ode {

/// Right-hand side callback: f(t, u) -> f. `f` is pre-sized to u.size().
using RhsFn =
    std::function<void(double t, const State& u, State& f)>;

class SdcSweeper {
 public:
  /// `nodes` are collocation points on [0,1]; the first/last node must be
  /// 0/1 (Lobatto or uniform) so the end value is a node value. `dof` is
  /// the state dimension.
  SdcSweeper(std::vector<double> nodes, std::size_t dof);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<double>& nodes() const { return nodes_; }
  std::size_t dof() const { return dof_; }

  /// Sets U_0 (value at the left endpoint) and marks F_0 stale. Does not
  /// touch other nodes.
  void set_initial(const State& u0);

  /// Replaces all M+1 node values (after a restriction or interpolation)
  /// and marks every F stale.
  void set_values(const std::vector<State>& values);

  /// Replaces all M+1 node values and function values together (a PFASST
  /// interpolation that carries the coarse F correction along with U) and
  /// leaves every node fresh.
  void set_values_with_f(const std::vector<State>& values,
                         const std::vector<State>& f_values);

  /// Spreads U_0 to all nodes and copies F_0 = f(t0, U_0) to every node:
  /// the cheapest provisional solution (iteration 0). Leaves every node
  /// fresh. Counts 1 RHS evaluation.
  void spread(double t0, const RhsFn& rhs);

  /// Evaluates F at exactly the stale nodes, in node order, and leaves
  /// every node fresh (Algorithm 1's FEval, done only where F will be
  /// read). Counts 1 RHS evaluation per stale node.
  void refresh(double t0, double dt, const RhsFn& rhs);

  /// One correction sweep (Eq. 13): `refresh`, then uses the stored
  /// (U, F) as iterate k and replaces them with iterate k+1. Evaluates F
  /// at nodes 1..M-1 and leaves node M stale: the sweep never reads it.
  /// Counts M - 1 RHS evaluations plus 1 per stale node.
  void sweep(double t0, double dt, const RhsFn& rhs);

  /// FAS correction: tau[m] is the node-to-node integral correction added
  /// on the interval [t_m, t_{m+1}] during sweeps (empty = none). Sized
  /// (M) x dof.
  void set_tau(std::vector<State> tau);
  const std::vector<State>& tau() const { return tau_; }
  void clear_tau() { tau_.clear(); }

  /// Node values (m in [0, M]).
  const State& u(int m) const { return u_[m]; }
  const std::vector<State>& values() const { return u_; }

  const State& end_value() const { return u_.back(); }

  /// Function values F_m (m in [0, M]). Throws std::logic_error if any F is
  /// stale.
  const std::vector<State>& f_values() const;

  /// Collocation residual r_m = U_0 + dt * (Q F)_m - U_m for m = 1..M;
  /// returns max_m ||r_m||_inf. This is the convergence monitor used in
  /// Sec. IV-B (difference of successive iterates is reported separately
  /// by the PFASST controller). Throws std::logic_error if any F is stale.
  double residual(double dt) const;

  /// Node-to-node integrals I_m = dt * sum_j s_{m,j} F_j of the *current*
  /// function values, including tau if present. Used by the FAS assembly.
  /// Throws std::logic_error if any F is stale.
  std::vector<State> integrate_node_to_node(double dt,
                                            bool include_tau) const;

  /// Total number of RHS evaluations performed through this sweeper.
  long rhs_evaluations() const { return rhs_evals_; }

 private:
  std::vector<double> nodes_;
  Matrix q_;  // cumulative (M+1)x(M+1)
  Matrix s_;  // node-to-node M x (M+1)
  std::size_t dof_;
  std::vector<State> u_;    // M+1 node values
  std::vector<State> f_;    // M+1 function values
  std::vector<State> tau_;  // M node-to-node FAS corrections (or empty)
  std::vector<bool> stale_;  // M+1 flags: F_m is not for the sweep to use
  long rhs_evals_ = 0;

  void require_fresh() const;
  void check_node_values(const std::vector<State>& values) const;
};

/// Serial SDC time integrator: `sweeps` corrections per step over nsteps
/// uniform steps on [t0, t0 + nsteps*dt]. This is the paper's SDC(K)
/// baseline. Returns the final state; `sweeper` provides node layout and
/// is reused across steps. Costs 1 + K M - 1 RHS evaluations per step
/// (8 for SDC(4) on 3 Lobatto nodes): the last sweep's F_M is never read.
State sdc_integrate(SdcSweeper& sweeper, const RhsFn& rhs, State u0,
                    double t0, double dt, int nsteps, int sweeps);

}  // namespace stnb::ode
