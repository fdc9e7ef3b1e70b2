#include "tree/interaction_list.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <type_traits>

namespace stnb::tree {

namespace {

/// |[a0, a1) ∩ [b0, b1)| — number of self-pairs a source range skips
/// inside a target group.
std::int64_t range_overlap(std::int32_t a0, std::int32_t a1, std::int32_t b0,
                           std::int32_t b1) {
  return std::max(0, std::min(a1, b1) - std::max(a0, b0));
}

/// Sizes `batch` to the group's targets, loads their positions and zeroes
/// the accumulators.
template <typename Batch>
void load_targets(Batch& batch, const SourceSoA& s, const LeafGroup& g) {
  const auto nt = static_cast<std::size_t>(g.count);
  batch.resize(nt);
  std::copy_n(s.x.data() + g.first, nt, batch.x.data());
  std::copy_n(s.y.data() + g.first, nt, batch.y.data());
  std::copy_n(s.z.data() + g.first, nt, batch.z.data());
  batch.zero();
}

}  // namespace

std::vector<LeafGroup> build_leaf_groups(const Octree& tree, int group_size) {
  std::vector<LeafGroup> groups;
  const auto& particles = tree.particles();
  if (particles.empty()) return groups;
  const std::int32_t cap = std::max(1, group_size);
  // Leaves appear in ascending `first` order (DFS pre-order) and tile
  // [0, n); greedily pack consecutive whole leaves up to `cap` particles.
  LeafGroup current{};
  bool open = false;
  for (const Node& node : tree.nodes()) {
    if (!node.leaf || node.count == 0) continue;
    if (open && current.count + node.count > cap) {
      groups.push_back(current);
      open = false;
    }
    if (!open) {
      current = LeafGroup{node.first, 0, {}, {}};
      open = true;
    }
    current.count += node.count;
  }
  if (open) groups.push_back(current);

  for (LeafGroup& g : groups) {
    Vec3 lo = particles[g.first].x, hi = lo;
    for (std::int32_t p = g.first + 1; p < g.first + g.count; ++p) {
      lo = min(lo, particles[p].x);
      hi = max(hi, particles[p].x);
    }
    g.lo = lo;
    g.hi = hi;
  }
  return groups;
}

void collect_interactions(const Octree& tree, const LeafGroup& group,
                          double theta, InteractionList& out) {
  out.clear();
  const Node* base = tree.nodes().data();
  tree.walk_box(
      group.lo, group.hi, theta,
      [&](const Node& node) {
        out.far.push_back(static_cast<std::int32_t>(&node - base));
      },
      [&](std::int32_t first, std::int32_t count) {
        out.add_near(first, count);
      });
}

void SourceSoA::append(std::span<const TreeParticle> ps) {
  const std::size_t base = size();
  for (auto* v : {&x, &y, &z, &q, &ax, &ay, &az}) v->resize(base + ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    x[base + i] = ps[i].x.x;
    y[base + i] = ps[i].x.y;
    z[base + i] = ps[i].x.z;
    q[base + i] = ps[i].q;
    ax[base + i] = ps[i].a.x;
    ay[base + i] = ps[i].a.y;
    az[base + i] = ps[i].a.z;
  }
}

namespace {

// The wire layout of a charge kind. A multipole ships the bytes of its
// center and of that kind's moments: Multipole is trivially copyable and
// lays out center, weight, the q moments, then the a moments, so that is
// one prefix (scalar) or the center plus the tail (vector). A particle
// ships its position and that kind's charge, one double per SoA column.
static_assert(std::is_standard_layout_v<Multipole> &&
              std::is_trivially_copyable_v<Multipole>);
constexpr std::size_t kTail = offsetof(Multipole, mono_a);
struct ByteRange {
  std::size_t offset, size;
};
std::array<ByteRange, 2> moment_bytes(Charges c) {
  if (c == Charges::kScalar) return {{{0, kTail}, {0, 0}}};
  return {{{0, sizeof(Vec3)}, {kTail, sizeof(Multipole) - kTail}}};
}
std::size_t moment_stride(Charges c) {
  const auto r = moment_bytes(c);
  return (r[0].size + r[1].size) / sizeof(double);
}
std::vector<std::vector<double>*> columns(SourceSoA& s, Charges c) {
  if (c == Charges::kScalar) return {&s.x, &s.y, &s.z, &s.q};
  return {&s.x, &s.y, &s.z, &s.ax, &s.ay, &s.az};
}
std::size_t particle_stride(Charges c) {
  return c == Charges::kScalar ? 4 : 6;
}

}  // namespace

std::int32_t LetPayload::add_multipole(const Multipole& m,
                                       Charges charges) {
  const std::size_t stride = moment_stride(charges);
  const std::size_t at = mp.size();
  mp.resize(at + stride);
  auto* out = reinterpret_cast<std::byte*>(mp.data() + at);
  for (const ByteRange& r : moment_bytes(charges)) {
    std::memcpy(out, reinterpret_cast<const std::byte*>(&m) + r.offset,
                r.size);
    out += r.size;
  }
  return static_cast<std::int32_t>(at / stride);
}

std::int32_t LetPayload::add_particles(std::span<const TreeParticle> ps,
                                       Charges charges) {
  const auto first =
      static_cast<std::int32_t>(particles.size() / particle_stride(charges));
  for (const TreeParticle& p : ps) {
    particles.insert(particles.end(), {p.x.x, p.x.y, p.x.z});
    if (charges == Charges::kScalar) {
      particles.push_back(p.q);
    } else {
      particles.insert(particles.end(), {p.a.x, p.a.y, p.a.z});
    }
  }
  return first;
}

Vec3 RemoteTree::center(std::int32_t ref) const {
  const double* m = moments.data() + ref * moment_stride(charges);
  return {m[0], m[1], m[2]};
}

void RemoteTree::load_multipole(std::int32_t ref, Multipole& m) const {
  const auto* in = reinterpret_cast<const std::byte*>(
      moments.data() + ref * moment_stride(charges));
  for (const ByteRange& r : moment_bytes(charges)) {
    std::memcpy(reinterpret_cast<std::byte*>(&m) + r.offset, in, r.size);
    in += r.size;
  }
}

void RemoteTree::assign(std::vector<LetPayload> sources, Charges kind) {
  charges = kind;
  const std::size_t mp_stride = moment_stride(kind);
  const std::size_t p_stride = particle_stride(kind);
  std::size_t n_nodes = 0, n_moments = 0, n_particles = 0;
  for (const LetPayload& src : sources) {
    if (src.mp.size() % mp_stride != 0 || src.particles.size() % p_stride != 0)
      throw std::invalid_argument("malformed LET payload size");
    n_nodes += src.nodes.size();
    n_moments += src.mp.size();
    n_particles += src.particles.size() / p_stride;
  }
  nodes.clear();
  nodes.reserve(n_nodes);
  moments.clear();
  moments.reserve(n_moments);
  particles = {};
  const auto cols = columns(particles, kind);
  for (auto* c : cols) c->resize(n_particles);

  std::size_t p_base = 0;
  for (LetPayload& src : sources) {
    const auto n = static_cast<std::int64_t>(src.nodes.size());
    const std::size_t src_p = src.particles.size() / p_stride;
    const auto node_base = static_cast<std::int32_t>(nodes.size());
    const auto mp_base = static_cast<std::int32_t>(moments.size() / mp_stride);
    for (std::int64_t i = 0; i < n; ++i) {
      LetNode node = src.nodes[static_cast<std::size_t>(i)];
      const bool leaf = node.kind == LetKind::kLeaf;
      const std::int64_t end = std::int64_t{node.ref} + (leaf ? node.count : 1);
      const auto limit = static_cast<std::int64_t>(
          leaf ? src_p : src.mp.size() / mp_stride);
      // Every walk step must move forward inside the skeleton and every
      // reference must resolve; a bad record would otherwise make the
      // walk loop or read out of bounds.
      if (node.skip <= i || node.skip > n || node.ref < 0 || node.count < 0 ||
          end > limit ||
          (node.kind != LetKind::kInternal && node.skip != i + 1))
        throw std::invalid_argument("malformed LET skeleton record");
      node.skip += node_base;
      node.ref += leaf ? static_cast<std::int32_t>(p_base) : mp_base;
      nodes.push_back(node);
    }
    moments.insert(moments.end(), src.mp.begin(), src.mp.end());
    for (std::size_t k = 0; k < src_p; ++k)
      for (std::size_t c = 0; c < p_stride; ++c)
        (*cols[c])[p_base + k] = src.particles[k * p_stride + c];
    p_base += src_p;
    src = {};
  }
}

void collect_remote_interactions(const RemoteTree& remote,
                                 const LeafGroup& group, double theta,
                                 InteractionList& out) {
  out.clear();
  std::size_t i = 0;
  while (i < remote.nodes.size()) {
    const LetNode& node = remote.nodes[i];
    if (node.kind == LetKind::kLeaf) {
      out.add_near(node.ref, node.count);
    } else if (node.kind == LetKind::kFrontier ||
               mac_accepts(node.box_size, node.count,
                           remote.center(node.ref), group.lo, group.hi,
                           theta)) {
      // A frontier node passed the MAC against the receiver's whole box,
      // which contains this group, so it is far without a re-test (a
      // re-test could only disagree by rounding, and it has no children).
      out.far.push_back(node.ref);
    } else {
      ++i;  // descend: the first child is the next record
      continue;
    }
    i = static_cast<std::size_t>(node.skip);
  }
}

BlockedEvaluator::BlockedEvaluator(const Octree& tree, Config config)
    : tree_(tree),
      config_(config),
      groups_(build_leaf_groups(tree, config.group_size)) {
  src_.append(tree_.particles());
}

namespace {

/// The kernel-specific half of the blocked evaluation: the batch type,
/// its accumulator arrays, the near-field kernel over a source range and
/// the far-field evaluation of one multipole.
struct VortexOps {
  using Batch = kernels::VortexBatch;
  static constexpr int kAcc = 12;  // u (3) + du_i/dx_j (9)
  const kernels::AlgebraicKernel& kernel;

  static double* acc(Batch& b, int k) {
    return k == 0 ? b.ux.data()
         : k == 1 ? b.uy.data()
         : k == 2 ? b.uz.data()
                  : b.j[k - 3].data();
  }
  void near(const SourceSoA& s, const SourceRange& r, std::int64_t self,
            Batch& b) const {
    kernel.accumulate_batch(s.x.data() + r.first, s.y.data() + r.first,
                            s.z.data() + r.first, s.ax.data() + r.first,
                            s.ay.data() + r.first, s.az.data() + r.first,
                            static_cast<std::size_t>(r.count), self, b);
  }
  void far(const Multipole& mp, Batch& b) const {
    mp.evaluate_biot_savart_batch(b, &kernel);
  }
};

struct CoulombOps {
  using Batch = kernels::CoulombBatch;
  static constexpr int kAcc = 4;  // phi + e (3)
  const kernels::CoulombKernel& kernel;

  static double* acc(Batch& b, int k) {
    return k == 0 ? b.phi.data()
         : k == 1 ? b.ex.data()
         : k == 2 ? b.ey.data()
                  : b.ez.data();
  }
  void near(const SourceSoA& s, const SourceRange& r, std::int64_t self,
            Batch& b) const {
    kernel.accumulate_batch(s.x.data() + r.first, s.y.data() + r.first,
                            s.z.data() + r.first, s.q.data() + r.first,
                            static_cast<std::size_t>(r.count), self, b);
  }
  void far(const Multipole& mp, Batch& b) const {
    mp.evaluate_coulomb_batch(b);
  }
};

/// Lossless copies between a group's batch accumulators and its slice of
/// a snapshot that holds one block of n values per accumulator.
template <typename Ops>
void save_acc(typename Ops::Batch& b, const LeafGroup& g,
              std::vector<double>& acc) {
  const std::size_t n = acc.size() / Ops::kAcc;
  for (int k = 0; k < Ops::kAcc; ++k)
    std::copy_n(Ops::acc(b, k), g.count, acc.data() + k * n + g.first);
}
template <typename Ops>
void load_acc(const std::vector<double>& acc, const LeafGroup& g,
              typename Ops::Batch& b) {
  const std::size_t n = acc.size() / Ops::kAcc;
  for (int k = 0; k < Ops::kAcc; ++k)
    std::copy_n(acc.data() + k * n + g.first, g.count, Ops::acc(b, k));
}

}  // namespace

template <typename Ops>
EvalPartial BlockedEvaluator::begin(
    const Ops& ops, FarFieldMode mode,
    WorkspacePool<Workspace<typename Ops::Batch>>& pool) const {
  const std::size_t n = src_.size();
  const auto& nodes = tree_.nodes();
  EvalPartial partial;
  partial.mode = mode;
  partial.near_acc.assign(n * Ops::kAcc, 0.0);
  partial.far_acc.assign(n * Ops::kAcc, 0.0);
  partial.group_far.assign(groups_.size(), 0);
  std::atomic<std::uint64_t> near{0}, far{0};

  auto body = [&](std::size_t gi) {
    const LeafGroup& g = groups_[gi];
    const std::int32_t nt = g.count;
    // Pool-owned workspace, not thread_local: under the fiber scheduler a
    // work item can suspend and resume on a different OS thread, so the
    // scratch must travel with the work item (fiber-tls, tools/stnb-analyze).
    auto ws = pool.acquire();
    auto& batch = ws->batch;
    InteractionList& il = ws->il;
    load_targets(batch, src_, g);
    collect_interactions(tree_, g, config_.theta, il);

    std::uint64_t my_near = 0;
    for (const SourceRange& r : il.near) {
      // Sources and targets index the same sorted array, so the self pair
      // of source r.first + s is target (r.first + s) - g.first: a fixed
      // shift, resolved inside the batch by index comparison.
      ops.near(src_, r, static_cast<std::int64_t>(r.first) - g.first, batch);
      my_near += static_cast<std::uint64_t>(r.count) * nt -
                 range_overlap(r.first, r.first + r.count, g.first,
                               g.first + nt);
    }
    save_acc<Ops>(batch, g, partial.near_acc);

    // Local far field, node-major into a separate SoA accumulator block.
    const std::size_t n_far = mode == FarFieldMode::kSkip ? 0 : il.far.size();
    if (n_far > 0) {
      auto& far_batch = ws->far_batch;
      load_targets(far_batch, src_, g);
      for (const std::int32_t node_idx : il.far)
        ops.far(nodes[node_idx].mp, far_batch);
      save_acc<Ops>(far_batch, g, partial.far_acc);
    }
    partial.group_far[gi] = static_cast<std::int32_t>(n_far);
    near.fetch_add(my_near, std::memory_order_relaxed);
    far.fetch_add(static_cast<std::uint64_t>(n_far) * nt,
                  std::memory_order_relaxed);
  };

  if (config_.pool != nullptr) {
    config_.pool->parallel_for(0, groups_.size(), body);
  } else {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) body(gi);
  }
  partial.near = near.load();
  partial.far = far.load();
  return partial;
}

template <typename Ops, typename StoreFn>
std::pair<std::uint64_t, std::uint64_t> BlockedEvaluator::finish(
    const Ops& ops, const EvalPartial& partial, const RemoteTree& remote,
    WorkspacePool<Workspace<typename Ops::Batch>>& pool,
    StoreFn&& store) const {
  std::atomic<std::uint64_t> near{0}, far{0};

  auto body = [&](std::size_t gi) {
    const LeafGroup& g = groups_[gi];
    const std::int32_t nt = g.count;
    auto ws = pool.acquire();
    auto& batch = ws->batch;
    auto& far_batch = ws->far_batch;
    InteractionList& il = ws->il;
    collect_remote_interactions(remote, g, config_.theta, il);

    // Reload the local near-field accumulators and continue with the
    // remote sources on top. No remote source is a target, so the self
    // shift nt is out of range.
    load_targets(batch, src_, g);
    load_acc<Ops>(partial.near_acc, g, batch);
    std::uint64_t my_near = 0;
    for (const SourceRange& r : il.near) {
      ops.near(remote.particles, r, nt, batch);
      my_near += static_cast<std::uint64_t>(r.count) * nt;
    }

    // Far field: local node subtotals (from begin) plus the remote
    // multipoles, in that order.
    const std::size_t n_remote_far =
        partial.mode == FarFieldMode::kSkip ? 0 : il.far.size();
    const bool has_far = partial.group_far[gi] > 0 || n_remote_far > 0;
    if (has_far) {
      load_targets(far_batch, src_, g);
      load_acc<Ops>(partial.far_acc, g, far_batch);
      for (std::size_t k = 0; k < n_remote_far; ++k) {
        remote.load_multipole(il.far[k], ws->mp);
        ops.far(ws->mp, far_batch);
      }
    }
    // A far-free group (e.g. theta = 0) stays bit-identical to the near
    // accumulators: store() sees no far batch.
    for (std::int32_t t = 0; t < nt; ++t)
      store(g.first + t, batch, t, has_far ? &far_batch : nullptr);
    near.fetch_add(my_near, std::memory_order_relaxed);
    far.fetch_add(static_cast<std::uint64_t>(n_remote_far) * nt,
                  std::memory_order_relaxed);
  };

  if (config_.pool != nullptr) {
    config_.pool->parallel_for(0, groups_.size(), body);
  } else {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) body(gi);
  }
  return {partial.near + near.load(), partial.far + far.load()};
}

VortexField BlockedEvaluator::evaluate_vortex(
    const kernels::AlgebraicKernel& kernel, FarFieldMode mode) const {
  return finish_vortex(kernel, begin_vortex(kernel, mode));
}

EvalPartial BlockedEvaluator::begin_vortex(
    const kernels::AlgebraicKernel& kernel, FarFieldMode mode) const {
  return begin(VortexOps{kernel}, mode, vortex_ws_);
}

VortexField BlockedEvaluator::finish_vortex(
    const kernels::AlgebraicKernel& kernel, const EvalPartial& partial,
    const RemoteTree& remote) const {
  const std::size_t n = src_.size();
  const FarFieldMode mode = partial.mode;
  VortexField out;
  out.u.assign(n, Vec3{});
  out.grad.assign(n, Mat3{});
  if (mode == FarFieldMode::kSeparate) {
    out.far_u.assign(n, Vec3{});
    out.far_grad.assign(n, Mat3{});
  }
  const auto rows = [](const kernels::VortexBatch& b, std::int32_t t,
                       Vec3& u, Mat3& grad) {
    u = {b.ux[t], b.uy[t], b.uz[t]};
    for (int c = 0; c < 9; ++c) grad.m[c] = b.j[c][t];
  };
  std::tie(out.near, out.far) = finish(
      VortexOps{kernel}, partial, remote, vortex_ws_,
      [&](std::int32_t idx, const kernels::VortexBatch& b, std::int32_t t,
          const kernels::VortexBatch* far) {
        rows(b, t, out.u[idx], out.grad[idx]);
        if (far == nullptr) return;
        Vec3 fu;
        Mat3 fg;
        rows(*far, t, fu, fg);
        if (mode == FarFieldMode::kCombined) {
          out.u[idx] += fu;
          out.grad[idx] += fg;
        } else {
          out.far_u[idx] = fu;
          out.far_grad[idx] = fg;
        }
      });
  return out;
}

CoulombField BlockedEvaluator::evaluate_coulomb(
    const kernels::CoulombKernel& kernel) const {
  return finish_coulomb(kernel, begin_coulomb(kernel));
}

EvalPartial BlockedEvaluator::begin_coulomb(
    const kernels::CoulombKernel& kernel) const {
  return begin(CoulombOps{kernel}, FarFieldMode::kCombined, coulomb_ws_);
}

CoulombField BlockedEvaluator::finish_coulomb(
    const kernels::CoulombKernel& kernel, const EvalPartial& partial,
    const RemoteTree& remote) const {
  const std::size_t n = src_.size();
  CoulombField out;
  out.phi.assign(n, 0.0);
  out.e.assign(n, Vec3{});
  std::tie(out.near, out.far) = finish(
      CoulombOps{kernel}, partial, remote, coulomb_ws_,
      [&](std::int32_t idx, const kernels::CoulombBatch& b, std::int32_t t,
          const kernels::CoulombBatch* far) {
        out.phi[idx] = b.phi[t];
        out.e[idx] = {b.ex[t], b.ey[t], b.ez[t]};
        if (far == nullptr) return;
        out.phi[idx] += far->phi[t];
        out.e[idx] += Vec3{far->ex[t], far->ey[t], far->ez[t]};
      });
  return out;
}

}  // namespace stnb::tree
