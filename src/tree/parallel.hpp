// The distributed Barnes-Hut solver over an mpsim space communicator —
// the reproduction of PEPC's parallel layer (Sec. III-A):
//   1. global bounding cube (allreduce)
//   2. space-filling-curve repartition: Morton sort + sampled splitters +
//      alltoallv of particles (Warren-Salmon hashed oct-tree scheme)
//   3. local tree build with bottom-up multipole moments
//   4. *branch node exchange*: allgather of the coarsest local covers —
//      the communication step whose growth with P saturates strong
//      scaling in Fig. 5
//   5. locally-essential-tree (LET) exchange: for every other rank, a
//      pre-order walk of the local tree against that rank's bounding box
//      with the MAC (mac_accepts) emits a *pruned tree*: skeleton records
//      (tree/interaction_list.hpp LetNode) for internal nodes (multipole
//      shipped, children follow), frontier nodes (accepted against the
//      whole box: multipole shipped, no children) and leaves (particles
//      shipped). This replaces PEPC's asynchronous request-driven node
//      fetching with a deterministic pre-exchange (DESIGN.md
//      substitutions). Each payload is posted point-to-point as soon as it
//      is built and freed; it is drained later, so the transfer overlaps
//      the local half of phase 6
//   6. force evaluation, split for communication overlap: the local near
//      and far field are evaluated while the LET payloads are in flight
//      (BlockedEvaluator::begin_*); the payloads are then drained into one
//      RemoteTree (ascending source rank) and walked per leaf group with
//      the same MAC (finish_*), so each group evaluates only the remote
//      nodes and particles it needs. Parallelized over the per-rank
//      thread pool (PEPC's hybrid MPI/Pthreads layer)
//   7. routing of results back to the callers' particle layout.
//
// Every phase advances the rank's virtual clock (communication through
// mpsim's cost model, computation through explicit counters), so phase
// timings reproduce the Fig. 5 breakdown deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "mpsim/comm.hpp"
#include "support/thread_pool.hpp"
#include "tree/evaluate.hpp"
#include "tree/interaction_list.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {

struct ParallelConfig {
  double theta = 0.6;
  int leaf_capacity = 8;
  /// Modeled threads of the node-local Pthreads traversal layer (divides
  /// the modeled traversal time; PEPC uses cores-1 worker threads/node).
  int model_threads = 4;
  /// Optional real thread pool to execute traversal work concurrently.
  ThreadPool* pool = nullptr;
  /// Target particles per blocked-traversal leaf group (the thread-pool
  /// work item of the force phase; see tree/interaction_list.hpp).
  int group_size = 8;
  /// Test hook: called on every rank after the LET drain with its leaf
  /// groups and received remote tree.
  std::function<void(const std::vector<LeafGroup>&, const RemoteTree&)>
      inspect_let;
};

/// Per-phase modeled wall-clock (virtual seconds) — the Fig. 5 series.
struct SolveTimings {
  double domain = 0.0;           // bbox + SFC repartition
  double tree_build = 0.0;       // local build + moments
  double branch_exchange = 0.0;  // branch allgather + top aggregation
  double let_exchange = 0.0;     // essential-node shipping
  double traversal = 0.0;        // force computation
  double total() const {
    return domain + tree_build + branch_exchange + let_exchange + traversal;
  }

  std::uint64_t near = 0;  // particle-particle kernel evaluations
  std::uint64_t far = 0;   // particle-multipole evaluations
  std::size_t local_particles = 0;  // after repartition
  std::size_t branch_count = 0;     // this rank's branches
  std::size_t let_sent = 0;  // shipped LET records + particles (all remotes)
};

struct VortexForces {
  std::vector<Vec3> u;     // per input particle, caller's order
  std::vector<Mat3> grad;
  SolveTimings timings;
};

struct CoulombForces {
  std::vector<double> phi;
  std::vector<Vec3> e;
  SolveTimings timings;
};

class ParallelTree {
 public:
  ParallelTree(mpsim::Comm space_comm, ParallelConfig config);

  /// Computes regularized Biot-Savart velocities + gradients for the
  /// caller's local particles (every rank passes its slice; `id` fields
  /// must be globally unique — they key self-interaction exclusion).
  VortexForces solve_vortex(const std::vector<TreeParticle>& local,
                            const kernels::AlgebraicKernel& kernel);

  /// Coulomb potential + field (the Fig. 5 workload).
  CoulombForces solve_coulomb(const std::vector<TreeParticle>& local,
                              const kernels::CoulombKernel& kernel);

 private:
  struct Exchanged;
  /// Phases 1-5 (LET sends posted, not yet received), shared by both
  /// kernels; the LET carries only `charges`. Returns the partitioned
  /// local tree plus routing info; the remote tree arrives via
  /// receive_let.
  Exchanged exchange(const std::vector<TreeParticle>& local, Charges charges,
                     SolveTimings& timings);
  /// Drains the posted LET payloads into ex.remote in ascending source
  /// rank, so the remote tree (and every result) is deterministic.
  void receive_let(Exchanged& ex, SolveTimings& timings);
  /// Phase 6: `begin(evaluator)` evaluates the local tree while the LET
  /// is in flight; after receive_let, `finish(evaluator, partial,
  /// remote)` walks the remote tree and its field is returned.
  template <typename BeginFn, typename FinishFn>
  auto traverse(Exchanged& ex, SolveTimings& timings, BeginFn&& begin,
                FinishFn&& finish);

  mpsim::Comm comm_;
  ParallelConfig config_;
};

}  // namespace stnb::tree
