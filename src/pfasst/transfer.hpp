// Transfer operators between PFASST levels. Spatial coarsening in this
// code is the tree code's MAC parameter (same particle set, different
// theta — Sec. IV-B), so spatial transfer is the identity and the
// operators here act in *time* only:
//   - restriction: pointwise injection at coincident nodes (coarse node
//     sets must be nested inside fine ones, e.g. Lobatto 2 in Lobatto 3),
//     plus summation of node-to-node integrals for the FAS term;
//   - interpolation: Lagrange polynomial evaluation of coarse corrections
//     at the fine nodes.
// A level with its own spatial representation (fewer particles, a coarser
// grid) would need a spatial restriction/interpolation pair next to these;
// none exists because every level here shares the particle set.
#pragma once

#include <vector>

#include "ode/quadrature.hpp"
#include "ode/vspace.hpp"

namespace stnb::pfasst {

class TimeTransfer {
 public:
  /// Both node sets live on [0,1]; every coarse node must coincide with a
  /// fine node (throws std::invalid_argument otherwise).
  TimeTransfer(const std::vector<double>& fine_nodes,
               const std::vector<double>& coarse_nodes);

  int coarse_count() const { return static_cast<int>(map_.size()); }
  /// Index of the fine node coinciding with coarse node m.
  int fine_index(int m) const { return map_[m]; }

  /// Injection restriction of node values.
  void restrict_values(const std::vector<ode::State>& fine,
                       std::vector<ode::State>& coarse) const;

  /// Restriction of node-to-node integrals: coarse interval m gets the sum
  /// of the fine-interval integrals it spans.
  void restrict_integrals(const std::vector<ode::State>& fine,
                          std::vector<ode::State>& coarse) const;

  /// fine[i] += sum_j P(i, j) * delta_coarse[j]  (polynomial interpolation
  /// of a coarse-level correction onto the fine nodes).
  void interpolate_correction(const std::vector<ode::State>& delta_coarse,
                              std::vector<ode::State>& fine) const;

 private:
  int n_fine_ = 0;
  std::vector<int> map_;   // coarse node -> fine node index
  ode::Matrix interp_;     // (fine x coarse) Lagrange matrix
};

}  // namespace stnb::pfasst
