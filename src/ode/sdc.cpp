#include "ode/sdc.hpp"

#include <cmath>
#include <stdexcept>

namespace stnb::ode {

SdcSweeper::SdcSweeper(std::vector<double> nodes, std::size_t dof)
    : nodes_(std::move(nodes)),
      q_(q_matrix(nodes_)),
      s_(s_matrix(nodes_)),
      dof_(dof) {
  if (nodes_.size() < 2 || std::abs(nodes_.front()) > 1e-14 ||
      std::abs(nodes_.back() - 1.0) > 1e-14) {
    throw std::invalid_argument(
        "SdcSweeper requires nodes spanning [0,1] incl. endpoints");
  }
  u_.assign(nodes_.size(), State(dof_, 0.0));
  f_.assign(nodes_.size(), State(dof_, 0.0));
  stale_.assign(nodes_.size(), true);
}

void SdcSweeper::set_initial(const State& u0) {
  if (u0.size() != dof_) throw std::invalid_argument("bad u0 size");
  u_[0] = u0;
  stale_[0] = true;
}

void SdcSweeper::check_node_values(const std::vector<State>& values) const {
  if (values.size() != u_.size())
    throw std::invalid_argument("need one value per node");
  for (const State& v : values)
    if (v.size() != dof_) throw std::invalid_argument("bad node value size");
}

void SdcSweeper::set_values(const std::vector<State>& values) {
  check_node_values(values);
  u_ = values;
  stale_.assign(u_.size(), true);
}

void SdcSweeper::set_values_with_f(const std::vector<State>& values,
                                   const std::vector<State>& f_values) {
  check_node_values(values);
  check_node_values(f_values);
  u_ = values;
  f_ = f_values;
  stale_.assign(u_.size(), false);
}

void SdcSweeper::spread(double t0, const RhsFn& rhs) {
  rhs(t0, u_[0], f_[0]);
  ++rhs_evals_;
  for (std::size_t m = 1; m < u_.size(); ++m) {
    u_[m] = u_[0];
    f_[m] = f_[0];
  }
  stale_.assign(u_.size(), false);
}

void SdcSweeper::refresh(double t0, double dt, const RhsFn& rhs) {
  for (int m = 0; m < num_nodes(); ++m) {
    if (!stale_[m]) continue;
    rhs(t0 + dt * nodes_[m], u_[m], f_[m]);
    ++rhs_evals_;
    stale_[m] = false;
  }
}

void SdcSweeper::sweep(double t0, double dt, const RhsFn& rhs) {
  const int m_nodes = num_nodes();
  refresh(t0, dt, rhs);
  // Node-to-node spectral integrals of the previous iterate (incl. tau).
  const std::vector<State> integrals = integrate_node_to_node(dt, true);

  // f_old holds f(t_m, U^k_m) for the node we are about to overwrite.
  State f_old = f_[0];
  for (int m = 0; m + 1 < m_nodes; ++m) {
    const double dtm = dt * (nodes_[m + 1] - nodes_[m]);
    // U^{k+1}_{m+1} = U^{k+1}_m + dtm (F^{k+1}_m - F^k_m) + I_m
    State next = u_[m];
    axpy(dtm, f_[m], next);   // + dtm * f(U^{k+1}_m)  (f_[m] is updated)
    axpy(-dtm, f_old, next);  // - dtm * f(U^k_m)
    axpy(1.0, integrals[m], next);

    f_old = f_[m + 1];  // save f(U^k_{m+1}) before overwriting
    u_[m + 1] = std::move(next);
    if (m + 2 < m_nodes) {
      rhs(t0 + dt * nodes_[m + 1], u_[m + 1], f_[m + 1]);
      ++rhs_evals_;
    }
  }
  // The sweep itself never reads the last node's F: leave it to whoever
  // does (the next sweep, the residual, the FAS assembly), so a caller can
  // forward-send end_value() before paying for it.
  stale_.back() = true;
}

void SdcSweeper::require_fresh() const {
  for (bool stale : stale_)
    if (stale)
      throw std::logic_error(
          "SdcSweeper: F read at a stale node (refresh or sweep first)");
}

const std::vector<State>& SdcSweeper::f_values() const {
  require_fresh();
  return f_;
}

void SdcSweeper::set_tau(std::vector<State> tau) {
  if (!tau.empty() && static_cast<int>(tau.size()) != num_nodes() - 1)
    throw std::invalid_argument("tau must have M entries");
  tau_ = std::move(tau);
}

double SdcSweeper::residual(double dt) const {
  require_fresh();
  double worst = 0.0;
  State r(dof_);
  for (int m = 1; m < num_nodes(); ++m) {
    r = u_[0];
    for (int j = 0; j < num_nodes(); ++j) axpy(dt * q_(m, j), f_[j], r);
    axpy(-1.0, u_[m], r);
    worst = std::max(worst, inf_norm(r));
  }
  return worst;
}

std::vector<State> SdcSweeper::integrate_node_to_node(
    double dt, bool include_tau) const {
  require_fresh();
  std::vector<State> integrals(num_nodes() - 1, State(dof_, 0.0));
  for (int m = 0; m + 1 < num_nodes(); ++m) {
    for (int j = 0; j < num_nodes(); ++j)
      axpy(dt * s_(m, j), f_[j], integrals[m]);
    if (include_tau && !tau_.empty()) axpy(1.0, tau_[m], integrals[m]);
  }
  return integrals;
}

State sdc_integrate(SdcSweeper& sweeper, const RhsFn& rhs, State u0,
                    double t0, double dt, int nsteps, int sweeps) {
  for (int step = 0; step < nsteps; ++step) {
    const double t = t0 + step * dt;
    sweeper.set_initial(u0);
    sweeper.spread(t, rhs);
    for (int k = 0; k < sweeps; ++k) sweeper.sweep(t, dt, rhs);
    u0 = sweeper.end_value();
  }
  return u0;
}

}  // namespace stnb::ode
