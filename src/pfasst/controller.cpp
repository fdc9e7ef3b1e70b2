#include "pfasst/controller.hpp"

#include <stdexcept>
#include <utility>

namespace stnb::pfasst {

namespace {
// Tag spaces: the predictor pipeline and the main iteration sends must not
// collide. All messages are consumed within their block (the end-of-block
// broadcast is synchronizing), so tags can be reused across blocks.
constexpr int kTagPredictor = 10000;
constexpr int kTagMain = 20000;
}  // namespace

Pfasst::Pfasst(mpsim::Comm time_comm, std::vector<Level> levels,
               Config config)
    : comm_(time_comm), config_(config) {
  if (levels.empty()) throw std::invalid_argument("need at least one level");
  levels_.reserve(levels.size());
  for (auto& l : levels) {
    LevelState state;
    state.config = std::move(l);
    levels_.push_back(std::move(state));
  }
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l)
    transfer_.emplace_back(levels_[l].config.nodes,
                           levels_[l + 1].config.nodes);
}

void Pfasst::set_recovery_comm(mpsim::Comm comm) {
  recovery_comm_ = comm;
  has_recovery_comm_ = true;
}

void Pfasst::set_slice_comm(mpsim::Comm comm) {
  slice_comm_ = comm;
  has_slice_comm_ = true;
}

Result Pfasst::run(const ode::State& u0, double t0, double dt, int nsteps) {
  const int pt = comm_.size();
  const int rank = comm_.rank();
  if (nsteps % pt != 0)
    throw std::invalid_argument("nsteps must be a multiple of the number of "
                                "time ranks (windowed PFASST)");
  const int blocks = nsteps / pt;

  dof_ = u0.size();
  for (auto& level : levels_) {
    level.sweeper =
        std::make_unique<ode::SdcSweeper>(level.config.nodes, dof_);
    level.u_pre.assign(level.config.nodes.size(), ode::State(dof_, 0.0));
  }
  fault_aware_ = config_.recover && comm_.fault_injector() != nullptr;
  t_fail_check_ = comm_.clock().now();
  k_extra_ = 0;
  slice_rebuilds_ = 0;
  lost_messages_ = 0;

  Result result;
  result.stats.resize(blocks);
  ode::State u_block = u0;

  for (int b = 0; b < blocks; ++b) {
    const double t_slice = t0 + (static_cast<double>(b) * pt + rank) * dt;
    block_recovered_ = false;
    u_restart_ = u_block;

    // Initialize all levels from the block's initial value.
    for (auto& level : levels_) level.sweeper->set_initial(u_block);
    if (config_.predict && levels_.size() > 1) {
      predictor(t_slice, dt);
    } else {
      levels_.front().sweeper->spread(t_slice, levels_.front().config.rhs);
      mirror_to_coarse();
    }

    ode::State prev_end = levels_.front().sweeper->end_value();
    auto& block_stats = result.stats[b];
    block_stats.clear();
    const auto run_iteration = [&](int k) {
      if (fault_aware_) maybe_rebuild(t_slice, dt);
      IterationStats it;
      it.fine_residual = iteration(k, t_slice, dt);
      it.delta =
          ode::inf_distance(levels_.front().sweeper->end_value(), prev_end);
      prev_end = levels_.front().sweeper->end_value();
      block_stats.push_back(it);
    };
    for (int k = 0; k < config_.iterations; ++k) run_iteration(k);

    if (fault_aware_) {
      // Re-converge after recoveries: the pipeline must agree on the extra
      // iteration count (lockstep sends/recvs), over the widest
      // communicator whose collectives interleave with our sweeps.
      mpsim::Comm& agree = has_recovery_comm_ ? recovery_comm_ : comm_;
      const int extra =
          agree.allreduce(block_recovered_ ? config_.recovery_iterations : 0,
                          mpsim::ReduceOp::kMax);
      if (extra > 0) comm_.obs_scope().add("pfasst.recovery.k_extra", extra);
      for (int e = 0; e < extra; ++e)
        run_iteration(config_.iterations + e);
      k_extra_ += extra;
    }

    // The last rank's fine end value seeds the next block on every rank.
    ode::State u_next = levels_.front().sweeper->end_value();
    comm_.broadcast(u_next, pt - 1);
    u_block = std::move(u_next);
  }

  result.u_end = u_block;
  for (const auto& level : levels_)
    result.rhs_evaluations += level.sweeper->rhs_evaluations();
  result.k_extra = k_extra_;
  result.slice_rebuilds = slice_rebuilds_;
  result.lost_messages = lost_messages_;
  return result;
}

void Pfasst::mirror_to_coarse() {
  // Mirror the fine state on the coarser levels. Their F stays stale until
  // a sweep or the next restriction's FAS assembly reads it.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    auto& coarse = *levels_[l + 1].sweeper;
    std::vector<ode::State> coarse_u(coarse.num_nodes());
    transfer_[l].restrict_values(levels_[l].sweeper->values(), coarse_u);
    coarse.set_values(coarse_u);
  }
}

void Pfasst::predictor(double t_slice, double dt) {
  const obs::Scope scope = comm_.obs_scope();
  obs::Span predictor_span = scope.span("pfasst.predictor");
  const int pt = comm_.size();
  const int rank = comm_.rank();
  auto& coarse = levels_.back();
  auto& sweeper = *coarse.sweeper;

  // Burn-in (Fig. 6): rank n performs n+1 coarse sweeps; between stages it
  // receives the previous rank's stage end value as an improved initial
  // condition. Total pipeline latency equals one sweep per rank, but the
  // extra sweeps sharpen the provisional solution (Sec. III-B3). Each
  // sweep leaves its last node stale, so every stage's send goes out with
  // no RHS call in front of it; the next stage's sweep, or the final
  // interpolation, evaluates that node.
  sweeper.spread(t_slice, coarse.config.rhs);
  for (int j = 0; j <= rank; ++j) {
    if (j > 0) {
      if (const auto u_in = recv_initial(rank - 1, kTagPredictor + j))
        sweeper.set_initial(*u_in);
    }
    {
      obs::Span sweep_span = scope.span("pfasst.sweep.coarse");
      sweeper.sweep(t_slice, dt, coarse.config.rhs);
    }
    if (rank < pt - 1) {
      scope.add("pfasst.forward_sends");
      comm_.send(rank + 1, kTagPredictor + j + 1, sweeper.end_value());
    }
  }

  interpolate_to_fine(t_slice, dt);
}

void Pfasst::interpolate_to_fine(double t_slice, double dt) {
  // Interpolate the provisional coarse solution, U and F, up the hierarchy
  // (from zero), so the next fine sweep evaluates only the nodes it
  // re-evaluates anyway.
  auto& coarsest = levels_.back();
  coarsest.sweeper->refresh(t_slice, dt, coarsest.config.rhs);
  for (int l = static_cast<int>(levels_.size()) - 2; l >= 0; --l) {
    const auto& coarse = *levels_[l + 1].sweeper;
    auto& fine = *levels_[l].sweeper;
    const ode::State zero(dof_, 0.0);
    std::vector<ode::State> fine_u(fine.num_nodes(), zero);
    std::vector<ode::State> fine_f(fine.num_nodes(), zero);
    transfer_[l].interpolate_correction(coarse.values(), fine_u);
    transfer_[l].interpolate_correction(coarse.f_values(), fine_f);
    fine.set_values_with_f(fine_u, fine_f);
  }
  // The next fine sweep re-evaluates every node but 0 and M, and refreshes
  // M before the residual reads it. Node 0 is left stale so that no F of a
  // coarser level's right-hand side reaches the fine residual.
  auto& finest = *levels_.front().sweeper;
  finest.set_initial(finest.u(0));
}

std::optional<ode::State> Pfasst::recv_initial(int source, int tag) {
  if (!fault_aware_) return comm_.recv<double>(source, tag);
  try {
    return comm_.recv<double>(source, tag);
  } catch (const mpsim::FaultError&) {
    // The forward-send was lost: fall back to the value already in place
    // (the predecessor's last *delivered* forward-send) and flag the block
    // for extra re-convergence iterations.
    comm_.obs_scope().add("pfasst.recovery.lost_recv");
    ++lost_messages_;
    block_recovered_ = true;
    return std::nullopt;
  }
}

void Pfasst::maybe_rebuild(double t_slice, double dt) {
  const double now = comm_.clock().now();
  int failed = comm_.soft_failed_in(t_fail_check_, now) ? 1 : 0;
  // A distributed slice rebuilds on all of its owners or none: the rebuild
  // sweeps evaluate the RHS, and a space-collective RHS deadlocks if only
  // some owners sweep. All owners reach this agreement point every
  // iteration (the iteration count per block is itself agreed), so the
  // collective is always matched.
  if (has_slice_comm_)
    failed = slice_comm_.allreduce(failed, mpsim::ReduceOp::kMax);
  t_fail_check_ = now;  // pre-allreduce: keeps the check intervals gapless
  if (failed != 0) rebuild_slice(t_slice, dt);
}

void Pfasst::rebuild_slice(double t_slice, double dt) {
  const obs::Scope scope = comm_.obs_scope();
  obs::Span span = scope.span("pfasst.recovery.rebuild");
  scope.add("pfasst.recovery.rebuilds");
  ++slice_rebuilds_;
  block_recovered_ = true;

  // The soft-fail wiped this slice's node values. Rebuild the hierarchy
  // from the last known-good initial value (the predecessor's last
  // delivered forward-send, or the block initial): spread on the fine
  // level, restrict down, then sharpen with cheap coarse sweeps before
  // rejoining the pipeline — the same machinery as the predictor, applied
  // mid-flight.
  for (auto& level : levels_) {
    level.sweeper->clear_tau();
    level.sweeper->set_initial(u_restart_);
  }
  auto& fine = levels_.front();
  fine.sweeper->spread(t_slice, fine.config.rhs);
  mirror_to_coarse();
  if (levels_.size() > 1) {
    auto& coarse = levels_.back();
    for (int s = 0; s < config_.recovery_sweeps; ++s) {
      obs::Span sweep_span = scope.span("pfasst.sweep.coarse");
      coarse.sweeper->sweep(t_slice, dt, coarse.config.rhs);
    }
    interpolate_to_fine(t_slice, dt);
  } else {
    for (int s = 0; s < config_.recovery_sweeps; ++s) {
      obs::Span sweep_span = scope.span("pfasst.sweep.fine");
      fine.sweeper->sweep(t_slice, dt, fine.config.rhs);
    }
  }
}

void Pfasst::compute_fas(int lc, double t_slice, double dt) {
  // tau_C = restrict(I_F incl. tau_F) - I_C(F(restrict U_F)), node-to-node
  // (paper Eqs. (16)-(17); cumulative across levels through tau_F).
  auto& fine = *levels_[lc - 1].sweeper;
  auto& coarse = *levels_[lc].sweeper;
  coarse.refresh(t_slice, dt, levels_[lc].config.rhs);
  levels_[lc].f_pre = coarse.f_values();
  const auto fine_integrals = fine.integrate_node_to_node(dt, true);
  const auto coarse_integrals = coarse.integrate_node_to_node(dt, false);
  std::vector<ode::State> tau(coarse.num_nodes() - 1, ode::State(dof_, 0.0));
  transfer_[lc - 1].restrict_integrals(fine_integrals, tau);
  for (std::size_t m = 0; m < tau.size(); ++m)
    ode::axpy(-1.0, coarse_integrals[m], tau[m]);
  coarse.set_tau(std::move(tau));
}

double Pfasst::iteration(int k, double t_slice, double dt) {
  const obs::Scope scope = comm_.obs_scope();
  obs::Span iteration_span = scope.span("pfasst.iteration");
  const int num_levels = static_cast<int>(levels_.size());
  const int pt = comm_.size();
  const int rank = comm_.rank();
  const auto tag = [&](int level) { return kTagMain + k * num_levels + level; };
  const auto sweep_name = [&](int level) {
    return level == 0 ? "pfasst.sweep.fine" : "pfasst.sweep.coarse";
  };
  double fine_residual = 0.0;

  // ---- down the V-cycle: sweep, send forward, restrict, FAS ----
  // Each send goes out before the sweep's stale last node is evaluated:
  // the successor waits for the value, not for F.
  for (int l = 0; l < num_levels - 1; ++l) {
    auto& level = levels_[l];
    for (int s = 0; s < level.config.sweeps; ++s) {
      obs::Span sweep_span = scope.span(sweep_name(l));
      level.sweeper->sweep(t_slice, dt, level.config.rhs);
    }
    if (rank < pt - 1) {
      scope.add("pfasst.forward_sends");
      comm_.send(rank + 1, tag(l), level.sweeper->end_value());
    }
    // The residual and the FAS assembly below read this level's F.
    level.sweeper->refresh(t_slice, dt, level.config.rhs);
    if (l == 0) fine_residual = level.sweeper->residual(dt);

    // u_pre keeps the restricted values for the coarse correction.
    auto& coarse = levels_[l + 1];
    transfer_[l].restrict_values(level.sweeper->values(), coarse.u_pre);
    coarse.sweeper->set_values(coarse.u_pre);
    compute_fas(l + 1, t_slice, dt);
  }

  // ---- coarsest level: receive, sweep, send ----
  {
    auto& level = levels_.back();
    if (rank > 0) {
      if (const auto u_in = recv_initial(rank - 1, tag(num_levels - 1))) {
        level.sweeper->set_initial(*u_in);
        // Single-level runs have no up-cycle: this receive is the fine
        // forward-send and doubles as the recovery restart value.
        if (num_levels == 1) u_restart_ = *u_in;
      }
    }
    for (int s = 0; s < level.config.sweeps; ++s) {
      obs::Span sweep_span = scope.span(sweep_name(num_levels - 1));
      level.sweeper->sweep(t_slice, dt, level.config.rhs);
    }
    if (rank < pt - 1) {
      scope.add("pfasst.forward_sends");
      comm_.send(rank + 1, tag(num_levels - 1), level.sweeper->end_value());
    }
    // With more than one level nothing reads the coarsest F again before
    // the next restriction overwrites it, so it is never evaluated.
    if (num_levels == 1) {
      level.sweeper->refresh(t_slice, dt, level.config.rhs);
      fine_residual = level.sweeper->residual(dt);
    }
  }

  // ---- up the V-cycle: interpolate corrections, receive new initials ----
  for (int l = num_levels - 2; l >= 0; --l) {
    auto& level = levels_[l];
    auto& coarse = levels_[l + 1];
    auto& sweeper = *level.sweeper;

    // delta = U_coarse(after sweeps) - U_coarse(at restriction)
    std::vector<ode::State> delta = coarse.sweeper->values();
    for (std::size_t m = 0; m < delta.size(); ++m)
      ode::axpy(-1.0, coarse.u_pre[m], delta[m]);
    std::vector<ode::State> fine_u = sweeper.values();
    transfer_[l].interpolate_correction(delta, fine_u);

    // The F correction F_coarse - f_pre rides along, so the next sweep on
    // this level evaluates only node 0 (after a new initial value), the
    // interior nodes and node M. Nothing reads the finest F after the last
    // iteration of a block, so its correction is not carried there; a
    // recovery iteration that follows finds that F stale and evaluates it.
    if (l > 0 || k + 1 < config_.iterations) {
      coarse.sweeper->refresh(t_slice, dt, coarse.config.rhs);
      const auto& coarse_f = coarse.sweeper->f_values();
      for (std::size_t m = 0; m < delta.size(); ++m) {
        delta[m] = coarse_f[m];
        ode::axpy(-1.0, coarse.f_pre[m], delta[m]);
      }
      std::vector<ode::State> fine_f = sweeper.f_values();
      transfer_[l].interpolate_correction(delta, fine_f);
      sweeper.set_values_with_f(fine_u, fine_f);
    } else {
      sweeper.set_values(fine_u);
    }

    // Receive the new initial value from the previous rank (sent during
    // its down-cycle at this level) and add the coarse node-0 correction.
    // The correction base must be the *received* value, not this rank's
    // old initial (libpfasst's interp_q0): delta0 = u_c(0) - R(u_recv).
    // Using the old initial as base gives a non-contracting (-1
    // eigenvalue) update at the slice boundary. Node 0's F is re-evaluated
    // even when the message was lost, so the residual never reads a
    // transferred F there; on rank 0 the coarse node-0 correction is zero.
    if (rank > 0) {
      ode::State u0 = sweeper.u(0);
      if (auto u_in = recv_initial(rank - 1, tag(l))) {
        ode::State delta0 = coarse.sweeper->u(0);
        ode::axpy(-1.0, *u_in, delta0);  // identity spatial restriction
        ode::axpy(1.0, delta0, *u_in);
        u0 = std::move(*u_in);
        // The corrected fine initial is the best restart value for a
        // later soft-fail of this slice.
        if (l == 0) u_restart_ = u0;
      }
      sweeper.set_initial(u0);
    }

    // Interior levels sweep on the way up (Algorithm 1); the finest level
    // sweeps at the start of the next iteration, which evaluates its stale
    // F. Forward sends happen in the down-cycle only.
    if (l > 0) {
      obs::Span sweep_span = scope.span(sweep_name(l));
      sweeper.sweep(t_slice, dt, level.config.rhs);
    }
  }
  return fine_residual;
}

}  // namespace stnb::pfasst
