// Simulated MPI: communicators, point-to-point messaging, and collectives
// over in-process rank threads. The API is a deliberately small subset of
// MPI shaped like the paper's usage (Fig. 2): world -> split into PEPC
// (space) and PFASST (time) communicators; sends are buffered/non-blocking,
// receives match on (source, tag) and block.
//
// Every operation also advances the rank's VirtualClock per the CostModel,
// so "wall clock" measurements of the simulated machine come out of
// Comm::clock().now().
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpsim/checkhook.hpp"
#include "mpsim/clock.hpp"
#include "mpsim/costmodel.hpp"
#include "mpsim/fault.hpp"
#include "obs/obs.hpp"

namespace stnb::mpsim {

class Runtime;
struct CommImpl;

/// Reduction operator for Comm::allreduce. All operators route through the
/// same collective cost-model path (one payload per rank, folded once by
/// the last arriving rank).
enum class ReduceOp { kSum, kMax, kMin };

namespace detail {
/// Typed views over byte payloads must cover the bytes exactly; silent
/// truncation of a trailing partial element hides protocol bugs (e.g. two
/// ranks disagreeing on the element type of a collective).
inline void check_element_size(const char* what, std::size_t bytes,
                               std::size_t elem) {
  if (bytes % elem != 0)
    throw std::runtime_error(std::string(what) + ": payload of " +
                             std::to_string(bytes) +
                             " bytes is not a multiple of the element size " +
                             std::to_string(elem));
}

/// memcpy with the empty range made explicit: memcpy requires non-null
/// pointers even for n == 0 (UBSan enforces it), and an empty vector's
/// data() is null.
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}
}  // namespace detail

/// Thrown by a blocking receive, collective or split on a rank whose world
/// was aborted because another rank's body threw. Runtime::run rethrows
/// the causing error, not this one.
class AbortError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Source and tag of the message a receive actually matched — only
/// informative for wildcard receives (kAnySource / kAnyTag).
struct RecvStatus {
  int source = 0;
  int tag = 0;
};

/// Lightweight value handle to a communicator; copyable, thread-compatible
/// (each rank uses its own local-rank view via the owning thread).
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const;

  /// Rank in the original world communicator (== rank() on the world comm,
  /// stable across split()). Fault plans and traces key on world ranks.
  int world_rank() const;

  VirtualClock& clock();
  const CostModel& cost() const;

  /// The fault injector installed on the owning Runtime (nullptr = fault
  /// free). Shared by all communicators split from the same world.
  FaultInjector* fault_injector() const;

  /// True if this rank's slice state was lost to a soft-fail window
  /// overlapping [t_begin, t_end] (virtual seconds). Always false without
  /// an injector.
  bool soft_failed_in(double t_begin, double t_end) const;

  /// This rank's instrumentation handle (disabled unless a Registry was
  /// attached to the Runtime). Spans opened through it record virtual
  /// times from this rank's clock; `obs::Span s(comm, "tree.build")` is
  /// the idiomatic per-phase form.
  obs::Scope obs_scope() const;

  /// Advances this rank's clock by modeled compute time.
  void compute(double seconds) { clock().advance(seconds); }

  // -- point-to-point ------------------------------------------------------
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocking receive. `source` may be kAnySource and `tag` kAnyTag; a
  /// wildcard receive matches the pending message with the earliest
  /// arrival time (ties broken by source, then tag) and reports what it
  /// matched through `status`. Throws FaultError (kMessageLost) when the
  /// matching message was dropped by the fault injector — the loss
  /// surfaces as a typed error instead of an eternal wait.
  std::vector<std::byte> recv_bytes(int source, int tag,
                                    RecvStatus* status = nullptr);

  /// Receive with a modeled timeout: blocks until the next matching
  /// message (or its loss tombstone) arrives. A lost message charges
  /// `timeout` virtual seconds to this rank's clock and yields nullopt; a
  /// delivered message behaves exactly like recv_bytes. Deterministic —
  /// the timeout is modeled cost, not wall-clock waiting.
  std::optional<std::vector<std::byte>> try_recv_bytes(int source, int tag,
                                                       double timeout);

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, values.data(), values.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag, RecvStatus* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = recv_bytes(source, tag, status);
    detail::check_element_size("recv", raw.size(), sizeof(T));
    std::vector<T> values(raw.size() / sizeof(T));
    detail::copy_bytes(values.data(), raw.data(), raw.size());
    return values;
  }

  template <typename T>
  std::optional<std::vector<T>> try_recv(int source, int tag,
                                         double timeout) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = try_recv_bytes(source, tag, timeout);
    if (!raw.has_value()) return std::nullopt;
    detail::check_element_size("try_recv", raw->size(), sizeof(T));
    std::vector<T> values(raw->size() / sizeof(T));
    detail::copy_bytes(values.data(), raw->data(), raw->size());
    return values;
  }

  // -- collectives ---------------------------------------------------------
  void barrier();

  /// Concatenation allgather: returns all ranks' contributions in rank
  /// order, plus (via `counts`) each rank's element count.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& mine,
                            std::vector<std::size_t>* counts = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(mine.size() * sizeof(T));
    detail::copy_bytes(bytes.data(), mine.data(), bytes.size());
    std::vector<std::size_t> byte_counts;
    const auto all = allgatherv_bytes(bytes, byte_counts, sizeof(T));
    // Check per contribution, not just the total: mixed element types
    // across ranks can sum to a clean multiple while every slice is torn.
    for (auto b : byte_counts)
      detail::check_element_size("allgatherv", b, sizeof(T));
    std::vector<T> out(all.size() / sizeof(T));
    detail::copy_bytes(out.data(), all.data(), all.size());
    if (counts != nullptr) {
      counts->clear();
      for (auto b : byte_counts) counts->push_back(b / sizeof(T));
    }
    return out;
  }

  /// Reduction over all ranks; every rank receives the result. `T` must be
  /// a trivially copyable arithmetic type.
  template <typename T>
  T allreduce(T value, ReduceOp op) {
    return allreduce(std::array<T, 1>{value}, op)[0];
  }

  /// Element-wise reduction of a fixed-size array in one collective,
  /// folded in rank order like the scalar overload.
  template <typename T, std::size_t N>
  std::array<T, N> allreduce(const std::array<T, N>& values, ReduceOp op) {
    static_assert(std::is_arithmetic_v<T>);
    std::vector<std::byte> in(N * sizeof(T));
    std::memcpy(in.data(), values.data(), in.size());
    const auto out = allreduce_bytes(
        std::move(in), sizeof(T), static_cast<int>(op),
        [op](std::byte* acc_bytes, const std::byte* in_bytes) {
          for (std::size_t i = 0; i < N; ++i) {
            T acc, v;
            std::memcpy(&acc, acc_bytes + i * sizeof(T), sizeof(T));
            std::memcpy(&v, in_bytes + i * sizeof(T), sizeof(T));
            switch (op) {
              case ReduceOp::kSum: acc = acc + v; break;
              case ReduceOp::kMax: acc = acc < v ? v : acc; break;
              case ReduceOp::kMin: acc = v < acc ? v : acc; break;
            }
            std::memcpy(acc_bytes + i * sizeof(T), &acc, sizeof(T));
          }
        });
    std::array<T, N> result;
    std::memcpy(result.data(), out.data(), N * sizeof(T));
    return result;
  }

  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    if (rank_ == root) {
      bytes.resize(data.size() * sizeof(T));
      detail::copy_bytes(bytes.data(), data.data(), bytes.size());
    }
    broadcast_bytes(bytes, root, sizeof(T));
    detail::check_element_size("broadcast", bytes.size(), sizeof(T));
    data.assign(bytes.size() / sizeof(T), T{});
    detail::copy_bytes(data.data(), bytes.data(), bytes.size());
  }

  /// All-to-all with per-destination payloads; returns per-source payloads.
  std::vector<std::vector<std::byte>> alltoallv_bytes(
      const std::vector<std::vector<std::byte>>& to_each);

  /// MPI_Comm_split: ranks with the same color form a new communicator,
  /// ordered by (key, old rank).
  Comm split(int color, int key);

  /// Deterministic identity of this communicator: "w" for the world comm,
  /// "<parent>/<generation>.<color>" for split children. Stable across
  /// runs; used by the checker's diagnostics.
  const std::string& key() const;

 private:
  friend class Runtime;
  Comm(std::shared_ptr<CommImpl> impl, int rank)
      : impl_(std::move(impl)), rank_(rank) {}

  std::vector<std::byte> allgatherv_bytes(const std::vector<std::byte>& mine,
                                          std::vector<std::size_t>& counts,
                                          std::size_t elem_size);
  void broadcast_bytes(std::vector<std::byte>& bytes, int root,
                       std::size_t elem_size);
  std::vector<std::byte> allreduce_bytes(
      std::vector<std::byte> value, std::size_t elem_size, int reduce_op,
      const std::function<void(std::byte*, const std::byte*)>& combine);

  std::shared_ptr<CommImpl> impl_;
  int rank_ = 0;
};

/// Scheduling backend for Runtime::run: one OS thread per simulated rank
/// (the historical mode, capped by the host at ~10^2 ranks), or
/// cooperatively-scheduled stackful fibers multiplexed over a small worker
/// pool (src/sched), which carries 10^4 ranks on a handful of OS threads.
/// Both modes produce bit-identical simulation results for a fixed seed:
/// receives match on named (source, tag) FIFOs, collective folds are
/// combined in rank order, and every rank advances its own virtual clock —
/// none of which depends on host scheduling.
enum class SchedMode { kThreadPerRank, kFiber };

/// Scheduler selection for Runtime::run. Resolution order: explicit values
/// here > environment (`STNB_SCHED=thread|fiber`, `STNB_SCHED_WORKERS`,
/// `STNB_SCHED_STACK_KB`) > defaults (thread mode; workers = hardware
/// concurrency clamped to [1, 16]; 512 KiB stacks). The environment layer
/// is what lets CI run the full unmodified test suite under the fiber
/// scheduler.
struct SchedConfig {
  std::optional<SchedMode> mode;  // unset: consult STNB_SCHED, else thread
  int workers = 0;     // fiber-mode OS threads (incl. caller); 0 = resolve
  std::size_t stack_kb = 0;  // per-fiber stack; 0 = env or 512 KiB

  /// Builds a config from the shared CLI flags: `--sched=thread|fiber`
  /// (empty = default resolution) and `--ranks-per-thread N` (N > 0 caps
  /// the worker count at ceil(n_ranks / N) and implies fiber mode unless
  /// --sched says otherwise). Throws std::invalid_argument on an unknown
  /// scheduler name.
  static SchedConfig from_flags(const std::string& sched,
                                int ranks_per_thread, int n_ranks);
};

/// Resolves a fiber worker count: `requested` if positive, else
/// STNB_SCHED_WORKERS, else hardware concurrency clamped to [1, 16].
int resolve_sched_workers(int requested);

/// Resolves a per-fiber stack size in bytes: `stack_kb` if positive, else
/// STNB_SCHED_STACK_KB, else 512 KiB.
std::size_t resolve_sched_stack_bytes(std::size_t stack_kb);

/// Runs `rank_main` on `n_ranks` simulated ranks connected by a world
/// communicator (OS threads or scheduler fibers per SchedConfig).
/// Returns the final virtual time of each rank. An exception escaping a
/// rank body aborts the world: every peer blocked (or later blocking) in a
/// receive, collective or split on the world or any communicator split
/// from it throws AbortError instead of waiting forever. Once all ranks
/// have finished, the causing error is rethrown (lowest rank first; a
/// CheckError only if no other error caused the abort).
class Runtime {
 public:
  explicit Runtime(CostModel model = {}) : model_(model) {}

  /// Attaches an observability registry: each rank gets a Recorder bound
  /// to its virtual clock for the duration of run(), reachable from rank
  /// bodies as comm.obs_scope(). Use a fresh Registry per run() when
  /// exporting traces (clocks restart at 0 each run). Not owned; must
  /// outlive run().
  Runtime& set_registry(obs::Registry* registry) {
    registry_ = registry;
    return *this;
  }

  /// Installs a fault injector consulted on every point-to-point send and
  /// at collectives; split communicators inherit it. Not owned; must
  /// outlive run(). nullptr restores fault-free operation.
  Runtime& set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
    return *this;
  }

  /// Opt-in reliable delivery (ack + bounded retry with modeled backoff);
  /// see ReliableConfig. Only meaningful together with a fault injector.
  Runtime& set_reliable(ReliableConfig reliable) {
    reliable_ = reliable;
    return *this;
  }

  /// Installs a communication-correctness checker consulted on every
  /// point-to-point operation and collective; split communicators inherit
  /// it. Not owned; must outlive run(). When none is installed, run()
  /// falls back to env_check_hook() (the STNB_CHECK=1 opt-in).
  Runtime& set_check_hook(CheckHook* hook) {
    check_hook_ = hook;
    return *this;
  }

  /// Selects the scheduling backend (see SchedConfig). A run() issued from
  /// inside a scheduler fiber (e.g. a JobQueue job driver) ignores the
  /// mode and always spawns its ranks into the live ambient scheduler —
  /// parking an OS worker on a thread join would defeat over-decomposition.
  Runtime& set_sched(SchedConfig sched) {
    sched_ = sched;
    return *this;
  }

  std::vector<double> run(int n_ranks,
                          const std::function<void(Comm&)>& rank_main);

 private:
  CostModel model_;
  obs::Registry* registry_ = nullptr;
  FaultInjector* injector_ = nullptr;
  ReliableConfig reliable_;
  CheckHook* check_hook_ = nullptr;
  SchedConfig sched_;
};

}  // namespace stnb::mpsim
