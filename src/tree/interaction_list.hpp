// Cell-blocked tree traversal (the batched force-evaluation engine): the
// sorted particle array is partitioned into Morton-contiguous *leaf
// groups*, the tree is walked once per group with the MAC tested against
// the group's bounding box (distance to the box's nearest point, so the
// per-target s/d <= theta bound of the per-particle walk is preserved),
// and the resulting interaction lists are evaluated in batched SoA inner
// loops (kernels::{VortexBatch, CoulombBatch}) that carry no callback and
// no branch — the compiler auto-vectorizes them. A distributed caller
// (tree/parallel) adds the locally essential tree received from other
// ranks as a RemoteTree, walked per group with the same MAC.
//
// The per-particle walk (tree/evaluate.hpp sample_*) remains the reference
// implementation; tests/test_blocked.cpp pins this engine against it:
// bit-identical at theta = 0, within the per-particle error envelope at
// theta > 0.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace_pool.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {

/// A Morton-contiguous run of whole leaves used as one evaluation target
/// block (and one thread-pool work item).
struct LeafGroup {
  std::int32_t first = 0;  // particle slice [first, first+count), sorted order
  std::int32_t count = 0;
  Vec3 lo, hi;  // tight AABB over the group's particles (not the leaf boxes)
};

/// Partitions the tree's sorted particles into leaf groups of up to
/// `group_size` particles. Groups never split a leaf, so a single leaf
/// larger than group_size forms its own group; together the groups tile
/// [0, n) in ascending order.
std::vector<LeafGroup> build_leaf_groups(const Octree& tree, int group_size);

/// A contiguous slice of the sorted source-particle array to be evaluated
/// directly (near field).
struct SourceRange {
  std::int32_t first = 0;
  std::int32_t count = 0;
};

/// The interactions of one target group: source-particle ranges (adjacent
/// ranges merged, ascending) and accepted far-field node indices.
struct InteractionList {
  std::vector<SourceRange> near;
  std::vector<std::int32_t> far;

  void clear() {
    near.clear();
    far.clear();
  }
  /// Appends a source range, merged into the previous one when adjacent.
  void add_near(std::int32_t first, std::int32_t count) {
    if (!near.empty() && near.back().first + near.back().count == first) {
      near.back().count += count;
    } else {
      near.push_back({first, count});
    }
  }
};

/// Source particles in the SoA layout the batched kernels read:
/// positions, scalar and vector charges.
struct SourceSoA {
  std::vector<double> x, y, z, q, ax, ay, az;

  std::size_t size() const { return x.size(); }
  void append(std::span<const TreeParticle> ps);
};

/// The charge kind of a solve; a remote tree ships only that kind.
enum class Charges : std::uint8_t { kScalar, kVector };

/// Kind of a node of a pruned remote tree.
enum class LetKind : std::uint8_t {
  kInternal,  // multipole shipped; its children follow in pre-order
  kFrontier,  // accepted against the receiver's whole box: multipole only
  kLeaf,      // particles shipped, no multipole: always near field
};

/// One skeleton record of a pruned remote tree, in pre-order: no
/// multipole, so the skeleton stays small. `ref` indexes the node's
/// multipole (internal, frontier) or its first particle (leaf); `skip` is
/// the index one past the node's subtree. A shipped leaf of more than one
/// particle is an internal record over a leaf record, so a receiver group
/// can still accept it whole.
struct LetNode {
  float box_size = 0.0f;
  std::int32_t count = 0;
  std::int32_t ref = 0;
  std::int32_t skip = 0;
  LetKind kind = LetKind::kLeaf;
};

/// One source rank's pruned tree as shipped, indices local to the source.
/// Multipoles (center + moments) and particles (position + charge) are
/// flat doubles of the solve's charge kind only.
struct LetPayload {
  std::vector<LetNode> nodes;
  std::vector<double> mp;
  std::vector<double> particles;

  /// Appends a multipole, or a leaf's particles; returns the index of
  /// the (first) entry appended.
  std::int32_t add_multipole(const Multipole& m, Charges charges);
  std::int32_t add_particles(std::span<const TreeParticle> ps,
                             Charges charges);
};

/// The locally essential tree one rank receives (tree/parallel): every
/// source's pruned tree, concatenated into one pre-order forest.
/// Multipoles keep the shipped layout; `particles` fills only the charge
/// kind's columns.
struct RemoteTree {
  Charges charges = Charges::kScalar;
  std::vector<LetNode> nodes;
  std::vector<double> moments;  // shipped multipoles, back to back
  SourceSoA particles;

  /// Expansion center of multipole `ref`.
  Vec3 center(std::int32_t ref) const;
  /// Writes the shipped members of multipole `ref` into `m`; the others
  /// keep their values (zero in a fresh Multipole).
  void load_multipole(std::int32_t ref, Multipole& m) const;
  /// Concatenates `sources` in order (sized once, `ref`/`skip` rebased,
  /// each payload freed once appended). Throws std::invalid_argument on a
  /// malformed payload.
  void assign(std::vector<LetPayload> sources, Charges kind);
};

/// Fills `out` with the group's interactions via one walk_box traversal
/// (clears it first). Exposed separately from the evaluator for tests; the
/// evaluator fuses collection with evaluation per group.
void collect_interactions(const Octree& tree, const LeafGroup& group,
                          double theta, InteractionList& out);

/// The remote counterpart: fills `out` (near ranges index
/// remote.particles, far entries remote multipoles) by one stackless
/// pre-order walk. Frontier records are far and leaf records near without
/// a test; an internal record is far when mac_accepts it against the
/// group's box, and is otherwise descended by stepping to the next record.
void collect_remote_interactions(const RemoteTree& remote,
                                 const LeafGroup& group, double theta,
                                 InteractionList& out);

/// Far-field handling of the vortex evaluation (mirrors the refresh logic
/// of vortex::TreeRhs's cached far field).
enum class FarFieldMode {
  kCombined,  // far contributions added into u/grad
  kSeparate,  // far kept apart in far_u/far_grad (near-only u/grad)
  kSkip,      // far not evaluated at all (caller reuses a frozen cache)
};

/// Results indexed by *sorted* particle position (tree.particles() order);
/// use the stored particle ids to map back to caller indices.
struct VortexField {
  std::vector<Vec3> u;
  std::vector<Mat3> grad;
  std::vector<Vec3> far_u;     // filled under kSeparate only
  std::vector<Mat3> far_grad;  // filled under kSeparate only
  std::uint64_t near = 0;  // particle-particle kernel evaluations
  std::uint64_t far = 0;   // particle-multipole evaluations
};

struct CoulombField {
  std::vector<double> phi;
  std::vector<Vec3> e;
  std::uint64_t near = 0;
  std::uint64_t far = 0;
};

/// Snapshot of a half-finished evaluation (BlockedEvaluator::begin_* ->
/// finish_*): the batch accumulators of the local contributions per
/// sorted particle, stored and reloaded losslessly, so accumulation runs
/// local near, then remote near; local far nodes, then remote multipoles.
struct EvalPartial {
  FarFieldMode mode = FarFieldMode::kCombined;
  std::vector<double> near_acc;  // near-field accumulators, n per block
  std::vector<double> far_acc;   // far-field accumulators, n per block
  std::vector<std::int32_t> group_far;  // local far nodes per leaf group
  std::uint64_t near = 0;  // local particle-particle evaluations
  std::uint64_t far = 0;   // local particle-multipole evaluations
};

/// Evaluates all tree particles as targets, one blocked traversal per leaf
/// group. Holds an SoA mirror of the sorted particle array so near-field
/// source ranges are addressed in place (no per-call gather of sources).
/// Safe to call concurrently only from one thread at a time; the work
/// itself is parallelized over Config::pool (leaf groups are the work
/// items).
class BlockedEvaluator {
 public:
  struct Config {
    double theta = 0.3;
    /// Target particles per leaf group (block). Groups never split a leaf.
    int group_size = 8;
    /// Optional pool; nullptr evaluates groups serially on the caller.
    ThreadPool* pool = nullptr;
  };

  BlockedEvaluator(const Octree& tree, Config config);

  const std::vector<LeafGroup>& groups() const { return groups_; }

  /// Velocity + gradient for every tree particle (self-interactions
  /// excluded by index).
  VortexField evaluate_vortex(const kernels::AlgebraicKernel& kernel,
                              FarFieldMode mode = FarFieldMode::kCombined) const;

  /// Coulomb potential + field for every tree particle.
  CoulombField evaluate_coulomb(const kernels::CoulombKernel& kernel) const;

  /// Two-phase evaluation, so a distributed caller (tree/parallel) can
  /// evaluate the local tree while the LET is in flight: begin_* does all
  /// local work; finish_* walks `remote` per leaf group and adds its
  /// interactions. Remote ids never match a local one (the partition is
  /// disjoint), so no remote pair is excluded. `evaluate_*` is
  /// `finish_*(kernel, begin_*(kernel))` with no remote tree.
  EvalPartial begin_vortex(const kernels::AlgebraicKernel& kernel,
                           FarFieldMode mode = FarFieldMode::kCombined) const;
  VortexField finish_vortex(const kernels::AlgebraicKernel& kernel,
                            const EvalPartial& partial,
                            const RemoteTree& remote = {}) const;
  EvalPartial begin_coulomb(const kernels::CoulombKernel& kernel) const;
  CoulombField finish_coulomb(const kernels::CoulombKernel& kernel,
                              const EvalPartial& partial,
                              const RemoteTree& remote = {}) const;

 private:
  // Per-work-item scratch. Pool-owned (not thread_local) so a leaf-group
  // work item that suspends under the fiber scheduler keeps its buffers
  // when it resumes on a different OS thread; the pools amortize the
  // allocations to the peak number of concurrent groups.
  template <typename Batch>
  struct Workspace {
    Batch batch;
    Batch far_batch;
    InteractionList il;
    Multipole mp;  // remote multipole being evaluated
  };
  // One kernel-generic implementation behind begin_* / finish_*; `Ops`
  // (interaction_list.cpp) supplies the batch type and the kernel calls.
  template <typename Ops>
  EvalPartial begin(const Ops& ops, FarFieldMode mode,
                    WorkspacePool<Workspace<typename Ops::Batch>>& pool) const;
  template <typename Ops, typename StoreFn>
  std::pair<std::uint64_t, std::uint64_t> finish(
      const Ops& ops, const EvalPartial& partial, const RemoteTree& remote,
      WorkspacePool<Workspace<typename Ops::Batch>>& pool,
      StoreFn&& store) const;

  const Octree& tree_;
  Config config_;
  std::vector<LeafGroup> groups_;
  SourceSoA src_;  // SoA mirror of tree_.particles()
  // mutable: evaluate_* are logically const (results are returned, the
  // tree is untouched); the pools only recycle scratch buffers.
  mutable WorkspacePool<Workspace<kernels::VortexBatch>> vortex_ws_;
  mutable WorkspacePool<Workspace<kernels::CoulombBatch>> coulomb_ws_;
};

}  // namespace stnb::tree
