#include "tree/parallel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <unordered_map>

namespace stnb::tree {

namespace {

/// Particle on the wire during repartitioning: carries routing info so
/// force results can be returned to the caller's layout.
struct WireParticle {
  TreeParticle p;
  std::int32_t orig_rank = 0;
  std::int32_t orig_index = 0;
};

struct VortexWire {
  std::int32_t orig_index = 0;
  Vec3 u;
  Mat3 grad;
};

struct CoulombWire {
  std::int32_t orig_index = 0;
  double phi = 0.0;
  Vec3 e;
};

struct RankBox {
  Vec3 lo, hi;
};

// LET payload tags (one per payload part; sources are distinguished by
// the sender rank, so a fixed tag triple suffices).
constexpr int kTagLetNode = 41002;
constexpr int kTagLetMp = 41000;
constexpr int kTagLetP = 41001;

/// Emits the subtree of `idx` in pre-order for a receiver whose particles
/// lie in `box` (recursion depth <= kMaxLevel). A single-particle leaf
/// ships no multipole: the MAC never accepts it.
void emit_let(const Octree& tree, std::int32_t idx, const RankBox& box,
              double theta, Charges charges, LetPayload& out) {
  const Node& node = tree.nodes()[idx];
  const auto self = static_cast<std::int32_t>(out.nodes.size());
  const bool accepted = mac_accepts(node.box_size, node.count,
                                    node.mp.center, box.lo, box.hi, theta);
  if (accepted || !node.leaf || node.count > 1) {
    out.nodes.push_back(
        {node.box_size, node.count, out.add_multipole(node.mp, charges),
         self + 1, accepted ? LetKind::kFrontier : LetKind::kInternal});
    if (accepted) return;
  }
  if (node.leaf) {
    const auto at = static_cast<std::int32_t>(out.nodes.size());
    out.nodes.push_back(
        {node.box_size, node.count,
         out.add_particles(
             std::span(tree.particles()).subspan(node.first, node.count),
             charges),
         at + 1, LetKind::kLeaf});
  } else {
    for (const std::int32_t c : node.child)
      if (c >= 0) emit_let(tree, c, box, theta, charges, out);
  }
  out.nodes[self].skip = static_cast<std::int32_t>(out.nodes.size());
}

template <typename T>
std::vector<std::byte> pack(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> bytes(v.size() * sizeof(T));
  // memcpy forbids null pointers even for zero sizes (UBSan enforces it),
  // and an empty vector's data() is null.
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

template <typename T>
void unpack_into(const std::vector<std::byte>& bytes, std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = bytes.size() / sizeof(T);
  if (n == 0) return;
  const std::size_t old = out.size();
  out.resize(old + n);
  std::memcpy(out.data() + old, bytes.data(), n * sizeof(T));
}

/// Sends each sorted target's result `wire(i)` back to the rank it came
/// from (`route`: particle id -> (original rank, original index)) and
/// calls `store` on every result this rank receives.
template <typename Route, typename WireFn, typename StoreFn>
void route_back(mpsim::Comm& comm, const std::vector<TreeParticle>& targets,
                const Route& route, WireFn&& wire, StoreFn&& store) {
  using Wire = decltype(wire(std::size_t{0}));
  std::vector<std::vector<Wire>> back(comm.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto [orig_rank, orig_index] = route.at(targets[i].id);
    back[orig_rank].push_back(wire(i));
    back[orig_rank].back().orig_index = orig_index;
  }
  std::vector<std::vector<std::byte>> payloads(comm.size());
  for (int r = 0; r < comm.size(); ++r) payloads[r] = pack(back[r]);
  for (const auto& payload : comm.alltoallv_bytes(payloads)) {
    std::vector<Wire> wires;
    unpack_into(payload, wires);
    for (const Wire& w : wires) store(w);
  }
}

}  // namespace

struct ParallelTree::Exchanged {
  std::unique_ptr<Octree> tree;  // over this rank's partitioned particles
  RemoteTree remote;             // filled by receive_let
  // Routing: global id -> where the particle's result goes back to.
  // stnb-analyze: allow(det-unordered-iter) lookup-only: written by keyed
  // insert in exchange(), read via at() in deterministic targets[] order
  // by route_back; never iterated.
  std::unordered_map<std::uint32_t, std::pair<std::int32_t, std::int32_t>>
      route;
  // Ranks whose LET payloads are in flight until receive_let (every other
  // rank holding particles); let_span stays open from post to drain.
  std::vector<bool> let_from;
  Charges charges = Charges::kScalar;
  obs::Span let_span;
};

ParallelTree::ParallelTree(mpsim::Comm space_comm, ParallelConfig config)
    : comm_(space_comm), config_(config) {}

ParallelTree::Exchanged ParallelTree::exchange(
    const std::vector<TreeParticle>& local, Charges charges,
    SolveTimings& timings) {
  const int p_ranks = comm_.size();
  const int rank = comm_.rank();
  const auto& cost = comm_.cost();
  const obs::Scope scope = comm_.obs_scope();
  Exchanged ex;
  ex.charges = charges;

  // ---- phase 1+2: global domain + SFC repartition ------------------------
  obs::Span domain_span = scope.span("tree.domain");
  const double t0 = comm_.clock().now();
  Vec3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
  for (const auto& p : local) {
    lo = min(lo, p.x);
    hi = max(hi, p.x);
  }
  // One max-reduction: the mins ride along negated (negation is exact).
  const auto box = comm_.allreduce(
      std::array<double, 6>{-lo.x, -lo.y, -lo.z, hi.x, hi.y, hi.z},
      mpsim::ReduceOp::kMax);
  const Vec3 glo{-box[0], -box[1], -box[2]};
  const Vec3 ghi{box[3], box[4], box[5]};
  const Vec3 mid = 0.5 * (glo + ghi);
  double size = std::max(
      {ghi.x - glo.x, ghi.y - glo.y, ghi.z - glo.z, 1e-12});
  size *= 1.0 + 2e-9;
  const Domain domain{mid - Vec3{0.5 * size, 0.5 * size, 0.5 * size}, size};

  // Key, sort, sample splitters (Warren-Salmon style sample sort).
  std::vector<WireParticle> mine(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    mine[i].p = local[i];
    mine[i].p.key = particle_key(local[i].x, domain);
    mine[i].orig_rank = rank;
    mine[i].orig_index = static_cast<std::int32_t>(i);
  }
  std::sort(mine.begin(), mine.end(),
            [](const WireParticle& a, const WireParticle& b) {
              return a.p.key < b.p.key;
            });
  const double n_local = static_cast<double>(local.size());
  comm_.compute(n_local * std::log2(std::max(2.0, n_local)) *
                cost.t_sort_per_particle);

  std::vector<WireParticle> received;
  if (p_ranks > 1) {
    constexpr int kSamples = 32;
    std::vector<std::uint64_t> samples;
    for (int s = 0; s < kSamples && !mine.empty(); ++s)
      samples.push_back(
          mine[(mine.size() - 1) * s / std::max(1, kSamples - 1)].p.key);
    auto all_samples = comm_.allgatherv(samples);
    std::sort(all_samples.begin(), all_samples.end());
    std::vector<std::uint64_t> splitters;
    for (int r = 1; r < p_ranks; ++r)
      splitters.push_back(
          all_samples[all_samples.size() * r / p_ranks]);

    std::vector<std::vector<WireParticle>> to_each(p_ranks);
    for (const auto& wp : mine) {
      const int dest = static_cast<int>(
          std::upper_bound(splitters.begin(), splitters.end(), wp.p.key) -
          splitters.begin());
      to_each[dest].push_back(wp);
    }
    std::vector<std::vector<std::byte>> payloads(p_ranks);
    for (int r = 0; r < p_ranks; ++r) payloads[r] = pack(to_each[r]);
    for (const auto& payload : comm_.alltoallv_bytes(payloads))
      unpack_into(payload, received);
  } else {
    received = std::move(mine);
  }
  std::vector<TreeParticle> partitioned;
  partitioned.reserve(received.size());
  for (const auto& wp : received) {
    partitioned.push_back(wp.p);
    ex.route[wp.p.id] = {wp.orig_rank, wp.orig_index};
  }
  timings.local_particles = partitioned.size();
  timings.domain = comm_.clock().now() - t0;
  domain_span.end();
  scope.gauge("tree.local_particles",
              static_cast<double>(timings.local_particles));

  // ---- phase 3: local tree build -----------------------------------------
  obs::Span build_span = scope.span("tree.build");
  const double t1 = comm_.clock().now();
  ex.tree = std::make_unique<Octree>(
      std::move(partitioned), domain,
      Octree::Config{config_.leaf_capacity, kMaxLevel});
  comm_.compute(static_cast<double>(ex.tree->nodes().size()) *
                cost.t_tree_node);
  timings.tree_build = comm_.clock().now() - t1;
  build_span.end();

  // ---- phase 4: branch exchange ------------------------------------------
  obs::Span branch_span = scope.span("tree.branch_exchange");
  const double t2 = comm_.clock().now();
  struct BranchWire {
    std::uint64_t key;
    std::int32_t count;
    Multipole mp;
  };
  std::vector<BranchWire> my_branches;
  if (!ex.tree->particles().empty()) {
    const auto branch_ids = ex.tree->branch_nodes(
        ex.tree->particles().front().key, ex.tree->particles().back().key);
    for (auto idx : branch_ids) {
      const Node& node = ex.tree->nodes()[idx];
      my_branches.push_back({node.key, node.count, node.mp});
    }
  }
  timings.branch_count = my_branches.size();
  // Every rank learns the globally shared top; interaction data travels
  // through the LET below.
  const auto all_branches = comm_.allgatherv(my_branches);
  comm_.compute(static_cast<double>(all_branches.size()) * cost.t_tree_node);
  timings.branch_exchange = comm_.clock().now() - t2;
  branch_span.end();
  scope.add("tree.branches", timings.branch_count);

  // ---- phase 5: locally-essential-tree exchange, post half ----------------
  // The LET walk and the sends happen here; the matching receives are
  // deferred to receive_let so the caller can evaluate the local tree
  // while the payloads are in flight (near/far-communication overlap).
  ex.let_span = scope.span("tree.let_exchange");
  obs::Span post_span = scope.span("tree.let_post");
  const double t3 = comm_.clock().now();
  RankBox mine_box{{1e300, 1e300, 1e300}, {-1e300, -1e300, -1e300}};
  for (const auto& p : ex.tree->particles()) {
    mine_box.lo = min(mine_box.lo, p.x);
    mine_box.hi = max(mine_box.hi, p.x);
  }
  const auto boxes = comm_.allgatherv(std::vector<RankBox>{mine_box});

  if (p_ranks > 1) {
    // Build, post and free one receiver's pruned tree at a time. Empty
    // ranks send nothing, and every rank knows which ranks are empty from
    // the box allgather, so no counts exchange is needed.
    for (int r = 0; r < p_ranks; ++r) {
      if (r == rank || ex.tree->particles().empty()) continue;
      LetPayload let;
      emit_let(*ex.tree, 0, boxes[r], config_.theta, charges, let);
      std::size_t entries = let.nodes.size();  // + shipped particles
      for (const LetNode& node : let.nodes)
        if (node.kind == LetKind::kLeaf) entries += node.count;
      timings.let_sent += entries;
      comm_.compute(static_cast<double>(entries) * cost.t_tree_node);
      comm_.send(r, kTagLetNode, let.nodes);
      comm_.send(r, kTagLetMp, let.mp);
      comm_.send(r, kTagLetP, let.particles);
    }
    ex.let_from.assign(p_ranks, false);
    for (int src = 0; src < p_ranks; ++src)
      ex.let_from[src] = src != rank && boxes[src].lo.x <= boxes[src].hi.x;
  }
  timings.let_exchange += comm_.clock().now() - t3;
  post_span.end();
  scope.add("tree.let.sent", timings.let_sent);
  return ex;
}

void ParallelTree::receive_let(Exchanged& ex, SolveTimings& timings) {
  const obs::Scope scope = comm_.obs_scope();
  obs::Span wait_span = scope.span("tree.let_wait");
  const double t0 = comm_.clock().now();
  // Drain ascending by source rank: the remote tree's order, and with it
  // every accumulation order, is independent of message arrival order.
  std::vector<LetPayload> from;
  for (int src = 0; src < static_cast<int>(ex.let_from.size()); ++src) {
    if (!ex.let_from[src]) continue;
    from.push_back({comm_.recv<LetNode>(src, kTagLetNode),
                    comm_.recv<double>(src, kTagLetMp),
                    comm_.recv<double>(src, kTagLetP)});
  }
  ex.remote.assign(std::move(from), ex.charges);
  timings.let_exchange += comm_.clock().now() - t0;
  wait_span.end();
  ex.let_span.end();
}

template <typename BeginFn, typename FinishFn>
auto ParallelTree::traverse(Exchanged& ex, SolveTimings& timings,
                            BeginFn&& begin, FinishFn&& finish) {
  // The traversal span opens while tree.let_exchange is still open: the
  // local half overlaps the LET transfer in traces.
  const auto& cost = comm_.cost();
  const int threads = std::max(1, config_.model_threads);
  const obs::Scope scope = comm_.obs_scope();
  obs::Span traversal_span = scope.span("tree.traversal");
  const double t4 = comm_.clock().now();
  const BlockedEvaluator evaluator(
      *ex.tree, {config_.theta, config_.group_size, config_.pool});
  const EvalPartial partial = begin(evaluator);
  const std::uint64_t local_near = partial.near, local_far = partial.far;
  comm_.compute((local_near * cost.t_near_batched +
                 local_far * cost.t_far_batched) /
                threads);
  timings.traversal += comm_.clock().now() - t4;

  receive_let(ex, timings);
  if (config_.inspect_let) config_.inspect_let(evaluator.groups(), ex.remote);

  const double t6 = comm_.clock().now();
  auto field = finish(evaluator, partial, ex.remote);
  timings.near = field.near;
  timings.far = field.far;
  scope.add("tree.eval.near", timings.near);
  scope.add("tree.eval.far", timings.far);
  comm_.compute(((field.near - local_near) * cost.t_near_batched +
                 (field.far - local_far) * cost.t_far_batched) /
                threads);
  timings.traversal += comm_.clock().now() - t6;
  traversal_span.end();
  return field;
}

VortexForces ParallelTree::solve_vortex(
    const std::vector<TreeParticle>& local,
    const kernels::AlgebraicKernel& kernel) {
  VortexForces out;
  Exchanged ex = exchange(local, Charges::kVector, out.timings);
  const VortexField field = traverse(
      ex, out.timings,
      [&](const BlockedEvaluator& e) { return e.begin_vortex(kernel); },
      [&](const BlockedEvaluator& e, const EvalPartial& partial,
          const RemoteTree& remote) {
        return e.finish_vortex(kernel, partial, remote);
      });
  out.u.assign(local.size(), Vec3{});
  out.grad.assign(local.size(), Mat3{});
  route_back(
      comm_, ex.tree->particles(), ex.route,
      [&](std::size_t i) { return VortexWire{0, field.u[i], field.grad[i]}; },
      [&](const VortexWire& w) {
        out.u[w.orig_index] = w.u;
        out.grad[w.orig_index] = w.grad;
      });
  return out;
}

CoulombForces ParallelTree::solve_coulomb(
    const std::vector<TreeParticle>& local,
    const kernels::CoulombKernel& kernel) {
  CoulombForces out;
  Exchanged ex = exchange(local, Charges::kScalar, out.timings);
  const CoulombField field = traverse(
      ex, out.timings,
      [&](const BlockedEvaluator& e) { return e.begin_coulomb(kernel); },
      [&](const BlockedEvaluator& e, const EvalPartial& partial,
          const RemoteTree& remote) {
        return e.finish_coulomb(kernel, partial, remote);
      });
  out.phi.assign(local.size(), 0.0);
  out.e.assign(local.size(), Vec3{});
  route_back(
      comm_, ex.tree->particles(), ex.route,
      [&](std::size_t i) { return CoulombWire{0, field.phi[i], field.e[i]}; },
      [&](const CoulombWire& w) {
        out.phi[w.orig_index] = w.phi;
        out.e[w.orig_index] = w.e;
      });
  return out;
}

}  // namespace stnb::tree
