#include "mpsim/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "sched/scheduler.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"
#include "support/thread_pool.hpp"

namespace stnb::mpsim {

namespace {

struct Message {
  std::vector<std::byte> payload;
  double send_time = 0.0;
  std::uint64_t seq = 0;  // per-(src, dest, tag) index (fault bookkeeping)
  bool dropped = false;   // tombstone: the message was lost in transit but
                          // still travels so the receiver can observe the
                          // loss deterministically instead of deadlocking
  bool duplicate = false;  // set by match_message when a stale re-delivery
                           // is handed back instead of silently skipped
  CheckEnvelope env;       // checker piggyback (send id + sender VC);
                           // empty when no CheckHook is installed
};

struct Mailbox {
  Mutex mu;
  CondVar cv;
  std::map<std::pair<int, int>, std::deque<Message>> queues
      STNB_GUARDED_BY(mu);  // (src, tag)
  // Reliable-mode duplicate suppression: (src, tag) -> last delivered
  // seq + 1. Only touched by the owning (receiving) rank under mu.
  std::map<std::pair<int, int>, std::uint64_t> delivered STNB_GUARDED_BY(mu);
};

/// Clears a blocked-op registration on scope exit (idempotent on the hook
/// side; the collective completion path may already have cleared it).
struct BlockedGuard {
  CheckHook* hook;
  int world_rank;
  ~BlockedGuard() {
    if (hook != nullptr) hook->on_unblocked(world_rank);
  }
};

/// Aborts a checker-mode wait loop with CheckError once a deadlock has
/// been detected anywhere (by this rank's own scan or a peer's). Wait
/// loops with a checker installed poll this between wait_poll sleeps —
/// the poll period is host plumbing only; detection fires on a provably
/// stuck state, so *what* is reported stays deterministic.
///
/// Wait loops are written out as explicit while-loops at each site (not a
/// cv.wait(lock, pred) helper) so the guarded state they re-check stays
/// visible to the thread-safety analysis — a type-erased predicate lambda
/// would hide it.
void throw_if_deadlocked(CheckHook& hook) {
  if (hook.aborted())
    throw CheckError(CheckError::Kind::kDeadlock, hook.abort_report());
  const std::string report = hook.deadlock_scan();
  if (!report.empty())
    throw CheckError(CheckError::Kind::kDeadlock, report);
}

}  // namespace

/// Abort state shared by a world communicator and every communicator split
/// from it. Runtime::run raises it when a rank body throws. Every wait loop
/// re-checks it under the mutex it waits on, and raise() notifies each of
/// those condition variables under the same mutex, so no blocked peer can
/// miss it: the run fails with the causing error instead of hanging.
struct WorldAbort {
  std::atomic<int> culprit{-1};  // world rank whose error raised it
  Mutex mu;
  std::vector<std::weak_ptr<CommImpl>> comms STNB_GUARDED_BY(mu);

  void track(const std::shared_ptr<CommImpl>& comm) STNB_EXCLUDES(mu) {
    MutexLock lock(mu);
    std::erase_if(comms, [](const auto& c) { return c.expired(); });
    comms.push_back(comm);
  }

  /// Raises the abort (the first caller names the culprit) and wakes every
  /// waiter of every live communicator of the world.
  void raise(int world_rank) STNB_EXCLUDES(mu);

  /// Called from inside wait loops, with the loop's mutex held.
  void throw_if_raised() const {
    const int rank = culprit.load(std::memory_order_acquire);
    if (rank >= 0)
      throw AbortError("mpsim: run aborted after rank " +
                       std::to_string(rank) + " failed");
  }
};

/// Shared state of one communicator. Rank threads synchronize through the
/// mailboxes (point-to-point) and the single collective slot (all
/// collectives are synchronizing, like their MPI counterparts here).
struct CommImpl {
  int size = 0;
  CostModel model;
  std::vector<VirtualClock*> clocks;  // per local rank, owned by Runtime
  std::vector<obs::Recorder*> recorders;  // per local rank, owned by Registry
                                          // (nullptr = instrumentation off)
  std::vector<int> world_ranks;  // local rank -> original world rank
  std::vector<std::unique_ptr<Mailbox>> mailboxes;

  // Fault machinery (inherited by split children; nullptr = fault free).
  FaultInjector* injector = nullptr;
  ReliableConfig reliable;
  // Per-sender (dest, tag) -> next message seq. Each slot is touched only
  // by its own rank's thread, so counting is race-free and deterministic.
  std::vector<std::map<std::pair<int, int>, std::uint64_t>> send_seq;

  // Correctness checker (inherited by split children; nullptr = off) and
  // this communicator's deterministic identity in its reports.
  CheckHook* checker = nullptr;
  std::string comm_key = "w";

  // Shared with the world and its other split children.
  std::shared_ptr<WorldAbort> abort;

  // Collective rendezvous (reusable two-phase barrier).
  Mutex mu;
  CondVar cv;
  int arrived STNB_GUARDED_BY(mu) = 0;
  int departed STNB_GUARDED_BY(mu) = 0;
  std::uint64_t generation STNB_GUARDED_BY(mu) = 0;
  std::vector<std::vector<std::byte>> inputs STNB_GUARDED_BY(mu);
  std::vector<std::vector<std::byte>> outputs STNB_GUARDED_BY(mu);
  std::vector<CollectiveCheck> check_descs
      STNB_GUARDED_BY(mu);  // per local rank, this round
  double done_time STNB_GUARDED_BY(mu) = 0.0;
  bool round_faulted STNB_GUARDED_BY(mu) =
      false;  // a hard-failed rank joined this round
  std::string round_check_error
      STNB_GUARDED_BY(mu);  // checker verdict for this round

  // split() publication: (generation, color) -> child communicator. The
  // slot is reference-counted by the joiners still to pick it up and
  // erased by the last one, so child impls die with their user handles
  // (the checker's finalize audit can then flag genuinely leaked comms).
  struct SplitSlot {
    std::shared_ptr<CommImpl> impl;
    int remaining = 0;
  };
  Mutex split_mu;
  CondVar split_cv;
  std::map<std::pair<std::uint64_t, int>, SplitSlot> split_published
      STNB_GUARDED_BY(split_mu);

  explicit CommImpl(int n, CostModel m) : size(n), model(m) {
    recorders.assign(n, nullptr);
    mailboxes.reserve(n);
    for (int i = 0; i < n; ++i) mailboxes.push_back(std::make_unique<Mailbox>());
    send_seq.resize(n);
    inputs.resize(n);
    outputs.resize(n);
    check_descs.resize(n);
  }

  ~CommImpl() {
    if (checker != nullptr) checker->on_comm_destroyed(comm_key);
  }

  CommImpl(const CommImpl&) = delete;
  CommImpl& operator=(const CommImpl&) = delete;

  /// Runs one synchronizing collective. `reduce` is executed exactly once
  /// (by the last arriving rank) with all inputs populated; it must fill
  /// `outputs` and return the modeled payload byte count. Returns the
  /// collective's generation number (same value on every rank).
  std::uint64_t collective(
      int rank, std::vector<std::byte> input, const CollectiveCheck& desc,
      const std::function<std::size_t(std::vector<std::vector<std::byte>>&,
                                      std::vector<std::vector<std::byte>>&)>&
          reduce,
      std::vector<std::byte>& output) STNB_EXCLUDES(mu) {
    std::uint64_t gen = 0;
    bool faulted = false;
    std::string check_msg;
    {
      MutexLock lock(mu);
      // Previous round drained. Not registered as a blocked op: the ranks
      // holding it up are mid-departure (straight-line code), so this wait
      // always terminates and must not look like a wait-for edge.
      if (checker == nullptr) {
        while (arrived >= size) {
          abort->throw_if_raised();
          cv.wait(mu);
        }
      } else {
        while (arrived >= size) {
          abort->throw_if_raised();
          throw_if_deadlocked(*checker);
          cv.wait_poll(mu);
        }
      }
      inputs[rank] = std::move(input);
      check_descs[rank] = desc;
      clocks[rank]->merge(0.0);
      ++arrived;
      if (arrived == size) {
        double t_max = 0.0;
        for (int r = 0; r < size; ++r)
          t_max = std::max(t_max, clocks[r]->now());
        // NOTE: reading other ranks' clocks is safe: they are all blocked in
        // this collective (arrived == size) and clocks are only mutated by
        // their owner rank.
        round_faulted = false;
        if (injector != nullptr)
          for (int r = 0; r < size; ++r)
            if (injector->collective_failed(world_ranks[r], clocks[r]->now()))
              round_faulted = true;
        round_check_error.clear();
        if (checker != nullptr)
          round_check_error =
              checker->on_collective(comm_key, world_ranks, check_descs);
        // A mismatched round never runs the reduction: with ranks
        // disagreeing on element sizes it could read out of bounds, and
        // every member throws before touching its output anyway.
        std::size_t bytes = 0;
        if (round_check_error.empty()) bytes = reduce(inputs, outputs);
        done_time = t_max +
                    model.collective(size, bytes);  // stnb-analyze: allow(lock-across-yield) CommModel::collective is the pure cost function (shares CommImpl::collective's name, never blocks)
        ++generation;
        gen = generation;
        cv.notify_all();
      } else {
        const std::uint64_t expected = generation + 1;
        if (checker == nullptr) {
          while (generation < expected) {
            abort->throw_if_raised();
            cv.wait(mu);
          }
        } else {
          PendingOp op;
          op.kind = PendingOp::Kind::kCollective;
          op.comm = comm_key;
          op.coll = desc.kind;
          op.members = world_ranks;
          checker->on_blocked(world_ranks[rank], std::move(op));
          BlockedGuard guard{checker, world_ranks[rank]};
          while (generation < expected) {
            abort->throw_if_raised();
            throw_if_deadlocked(*checker);
            cv.wait_poll(mu);
          }
        }
        gen = expected;
      }
      faulted = round_faulted;
      check_msg = round_check_error;
      output = outputs[rank];
      clocks[rank]->merge(done_time);
      if (++departed == size) {
        arrived = 0;
        departed = 0;
        for (auto& in : inputs) in.clear();
        cv.notify_all();
      }
    }
    if (faulted) {
      if (recorders[rank] != nullptr)
        recorders[rank]->add("fault.collective.abort", 1);
      throw FaultError(FaultError::Kind::kRankFailed,
                       "collective joined by a hard-failed rank");
    }
    if (!check_msg.empty())
      throw CheckError(CheckError::Kind::kCollectiveMismatch, check_msg);
    return gen;
  }
};

void WorldAbort::raise(int world_rank) {
  int none = -1;
  if (!culprit.compare_exchange_strong(none, world_rank,
                                       std::memory_order_acq_rel))
    return;
  std::vector<std::shared_ptr<CommImpl>> live;
  {
    MutexLock lock(mu);
    for (const auto& c : comms)
      if (auto impl = c.lock()) live.push_back(std::move(impl));
  }
  for (const auto& impl : live) {
    for (const auto& box : impl->mailboxes) {
      MutexLock lock(box->mu);
      box->cv.notify_all();
    }
    {
      MutexLock lock(impl->mu);
      impl->cv.notify_all();
    }
    MutexLock lock(impl->split_mu);
    impl->split_cv.notify_all();
  }
}

int Comm::size() const { return impl_->size; }

int Comm::world_rank() const { return impl_->world_ranks[rank_]; }

VirtualClock& Comm::clock() { return *impl_->clocks[rank_]; }

const CostModel& Comm::cost() const { return impl_->model; }

const std::string& Comm::key() const { return impl_->comm_key; }

FaultInjector* Comm::fault_injector() const {
  return impl_ != nullptr ? impl_->injector : nullptr;
}

bool Comm::soft_failed_in(double t_begin, double t_end) const {
  return impl_->injector != nullptr &&
         impl_->injector->failed_in(world_rank(), t_begin, t_end);
}

obs::Scope Comm::obs_scope() const {
  return obs::Scope(impl_ != nullptr ? impl_->recorders[rank_] : nullptr);
}

void Comm::send_bytes(int dest, int tag, const void* data,
                      std::size_t bytes) {
  if (dest < 0 || dest >= impl_->size)
    throw std::out_of_range("send: bad destination rank");
  const obs::Scope scope = obs_scope();
  obs::Span span = scope.span("mpsim.send");
  scope.add("mpsim.p2p.messages");
  scope.add("mpsim.p2p.bytes_sent", bytes);

  Message msg;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);

  bool duplicate = false;
  double delay = 0.0;
  FaultInjector* injector = impl_->injector;
  if (injector != nullptr) {
    msg.seq = impl_->send_seq[rank_][{dest, tag}]++;
    if (injector->failed_at(world_rank(), clock().now())) {
      // Messages of a soft-failed rank vanish; retries cannot help.
      msg.dropped = true;
      scope.add("fault.send.drop");
    } else {
      const ReliableConfig& rel = impl_->reliable;
      const int attempts = rel.enabled ? rel.max_retries + 1 : 1;
      const MessageEvent base{world_rank(), impl_->world_ranks[dest], tag,
                              bytes, msg.seq, 0, 0.0};
      for (int attempt = 0; attempt < attempts; ++attempt) {
        MessageEvent event = base;
        event.attempt = attempt;
        event.send_time = clock().now();
        const SendDecision decision = injector->on_send(event);
        if (decision.action == FaultAction::kDrop) {
          scope.add("fault.send.drop");
          if (attempt + 1 == attempts) {
            msg.dropped = true;
          } else {
            // Wait out the missing ack, back off, resend.
            scope.add("fault.send.retry");
            clock().advance(rel.ack_timeout + rel.backoff * attempt);
          }
          continue;
        }
        msg.dropped = false;
        if (decision.action == FaultAction::kDelay) {
          delay = decision.delay;
          scope.add("fault.send.delay");
        } else if (decision.action == FaultAction::kDuplicate) {
          duplicate = true;
          scope.add("fault.send.duplicate");
        }
        break;
      }
    }
  }

  if (impl_->checker != nullptr) {
    // One *logical* send per call, after fault resolution: retries that
    // eventually deliver are one send, injected duplicates are one send
    // posted twice (both copies share the envelope, so the checker can
    // recognize the second delivery as benign).
    CheckSendEvent event;
    event.comm = impl_->comm_key;
    event.source = world_rank();
    event.dest = impl_->world_ranks[dest];
    event.tag = tag;
    event.bytes = bytes;
    event.dropped = msg.dropped;
    event.duplicated = duplicate;
    msg.env = impl_->checker->on_send(event);
  }

  msg.send_time = clock().now() + delay;
  Mailbox& box = *impl_->mailboxes[dest];
  {
    MutexLock lock(box.mu);
    auto& queue = box.queues[{rank_, tag}];
    if (duplicate) queue.push_back(msg);
    queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
  // Sender-side overhead of posting the message.
  clock().advance(impl_->model.t_latency);
}

namespace {

struct Matched {
  Message msg;
  int source = 0;  // local rank the message came from
  int tag = 0;
};

/// Blocks until the next message matching (source, tag) in `rank`'s
/// mailbox, honoring reliable-mode duplicate suppression (a re-delivered
/// seq is skipped). Either selector may be a wildcard (kAnySource /
/// kAnyTag); among pending candidates the earliest-arriving message wins,
/// ties broken by (source, tag). With skip_duplicates = false a duplicate
/// is returned to the caller (marked via Message::duplicate) instead of
/// re-blocking — try_recv needs that to resolve "only a stale copy
/// arrived" as a timeout rather than waiting for a message that may never
/// come. Consumed duplicates are reported to the checker here (the caller
/// never sees the skipped ones).
using QueueMap = std::map<std::pair<int, int>, std::deque<Message>>;

/// Picks the matching non-empty queue for (source, tag), or queues.end().
/// Either selector may be a wildcard; among pending candidates the
/// earliest-arriving message wins, ties broken by (source, tag). The
/// caller passes the guarded queue map while holding its mailbox lock.
QueueMap::iterator pick_match(QueueMap& queues, int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    const auto it = queues.find({source, tag});
    return it != queues.end() && !it->second.empty() ? it : queues.end();
  }
  auto best = queues.end();
  for (auto it = queues.begin(); it != queues.end(); ++it) {
    if (it->second.empty()) continue;
    if (source != kAnySource && it->first.first != source) continue;
    if (tag != kAnyTag && it->first.second != tag) continue;
    // Map order is (source, tag) ascending, so strict < keeps the
    // deterministic tie-break.
    if (best == queues.end() ||
        it->second.front().send_time < best->second.front().send_time)
      best = it;
  }
  return best;
}

Matched match_message(CommImpl& impl, int rank, int source, int tag,
                      const obs::Scope& scope, bool skip_duplicates = true) {
  if (source != kAnySource && (source < 0 || source >= impl.size))
    throw std::out_of_range("recv: bad source rank");
  Mailbox& box = *impl.mailboxes[rank];
  const bool dedup = impl.injector != nullptr && impl.reliable.enabled;
  CheckHook* const hook = impl.checker;
  for (;;) {
    Message msg;
    int msg_source = 0;
    int msg_tag = 0;
    bool is_dup = false;
    {
      MutexLock lock(box.mu);
      auto it = pick_match(box.queues, source, tag);
      if (it == box.queues.end()) {
        if (hook != nullptr) {
          PendingOp op;
          op.kind = PendingOp::Kind::kRecv;
          op.comm = impl.comm_key;
          op.source_sel =
              source == kAnySource ? kAnySource : impl.world_ranks[source];
          op.tag_sel = tag;
          hook->on_blocked(impl.world_ranks[rank], std::move(op));
          BlockedGuard guard{hook, impl.world_ranks[rank]};
          while ((it = pick_match(box.queues, source, tag)) ==
                 box.queues.end()) {
            impl.abort->throw_if_raised();
            throw_if_deadlocked(*hook);
            box.cv.wait_poll(box.mu);
          }
        } else {
          while ((it = pick_match(box.queues, source, tag)) ==
                 box.queues.end()) {
            impl.abort->throw_if_raised();
            box.cv.wait(box.mu);
          }
        }
      }
      msg_source = it->first.first;
      msg_tag = it->first.second;
      msg = std::move(it->second.front());
      it->second.pop_front();
      if (dedup) {
        // The duplicate decision completes under the lock; reporting it
        // (below) must not, so no reference into `box.delivered` survives
        // this scope.
        std::uint64_t& next_seq = box.delivered[{msg_source, msg_tag}];
        if (msg.seq + 1 <= next_seq)
          is_dup = true;
        else
          next_seq = msg.seq + 1;
      }
    }
    if (!is_dup) return {std::move(msg), msg_source, msg_tag};
    scope.add("fault.recv.dedup");
    if (hook != nullptr) {
      CheckRecvEvent event;
      event.comm = impl.comm_key;
      event.dest = impl.world_ranks[rank];
      event.source_sel =
          source == kAnySource ? kAnySource : impl.world_ranks[source];
      event.tag_sel = tag;
      event.send_id = msg.env.send_id;
      event.duplicate = true;
      hook->on_deliver(event, msg.env.vc);
    }
    if (skip_duplicates) continue;
    msg.duplicate = true;
    return {std::move(msg), msg_source, msg_tag};
  }
}

/// Reports a non-duplicate receive completion to the checker.
void notify_deliver(CommImpl& impl, int rank, int source, int tag,
                    const Message& msg) {
  if (impl.checker == nullptr) return;
  CheckRecvEvent event;
  event.comm = impl.comm_key;
  event.dest = impl.world_ranks[rank];
  event.source_sel =
      source == kAnySource ? kAnySource : impl.world_ranks[source];
  event.tag_sel = tag;
  event.send_id = msg.env.send_id;
  event.dropped = msg.dropped;
  impl.checker->on_deliver(event, msg.env.vc);
}

}  // namespace

std::vector<std::byte> Comm::recv_bytes(int source, int tag,
                                        RecvStatus* status) {
  // The recv span covers matching + the causal clock merge, so its width
  // is this rank's modeled wait for the message.
  obs::Span span = obs_scope().span("mpsim.recv");
  Matched m = match_message(*impl_, rank_, source, tag, obs_scope());
  if (status != nullptr) *status = {m.source, m.tag};
  clock().merge(m.msg.send_time + impl_->model.p2p(m.msg.payload.size()));
  notify_deliver(*impl_, rank_, source, tag, m.msg);
  if (m.msg.dropped) {
    obs_scope().add("fault.recv.lost");
    throw FaultError(FaultError::Kind::kMessageLost,
                     "recv: message from rank " + std::to_string(m.source) +
                         " tag " + std::to_string(m.tag) +
                         " was lost in transit");
  }
  obs_scope().add("mpsim.p2p.bytes_received", m.msg.payload.size());
  return std::move(m.msg.payload);
}

std::optional<std::vector<std::byte>> Comm::try_recv_bytes(int source,
                                                           int tag,
                                                           double timeout) {
  obs::Span span = obs_scope().span("mpsim.recv");
  Matched m = match_message(*impl_, rank_, source, tag, obs_scope(),
                            /*skip_duplicates=*/false);
  if (m.msg.duplicate) {
    // Only a stale re-delivery arrived; to the caller that is a timeout.
    // (match_message already reported the consumed duplicate.)
    clock().advance(timeout);
    return std::nullopt;
  }
  if (m.msg.dropped) {
    // Model the receiver waiting out its timeout for a message that never
    // arrives. No causal merge: nothing was observed from the sender.
    obs_scope().add("fault.recv.lost");
    notify_deliver(*impl_, rank_, source, tag, m.msg);
    clock().advance(timeout);
    return std::nullopt;
  }
  clock().merge(m.msg.send_time + impl_->model.p2p(m.msg.payload.size()));
  notify_deliver(*impl_, rank_, source, tag, m.msg);
  obs_scope().add("mpsim.p2p.bytes_received", m.msg.payload.size());
  return std::move(m.msg.payload);
}

void Comm::barrier() {
  obs::Span span = obs_scope().span("mpsim.barrier");
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kBarrier;
  impl_->collective(
      rank_, {}, desc,
      [](auto& /*in*/, auto& /*out*/) -> std::size_t { return 0; }, out);
}

std::vector<std::byte> Comm::allgatherv_bytes(
    const std::vector<std::byte>& mine, std::vector<std::size_t>& counts,
    std::size_t elem_size) {
  const obs::Scope scope = obs_scope();
  obs::Span span = scope.span("mpsim.allgatherv");
  scope.add("mpsim.collective.bytes", mine.size());
  const int n = impl_->size;
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kAllgatherv;
  desc.elem_size = elem_size;
  desc.bytes = mine.size();
  impl_->collective(
      rank_, mine, desc,
      [n](std::vector<std::vector<std::byte>>& in,
          std::vector<std::vector<std::byte>>& outputs) -> std::size_t {
        std::vector<std::byte> concat;
        std::size_t total = 0;
        for (auto& i : in) total += i.size();
        concat.reserve(total + n * sizeof(std::size_t));
        // Header: per-rank byte counts, then concatenated payloads.
        for (auto& i : in) {
          const std::size_t c = i.size();
          const auto* p = reinterpret_cast<const std::byte*>(&c);
          concat.insert(concat.end(), p, p + sizeof(std::size_t));
        }
        for (auto& i : in) concat.insert(concat.end(), i.begin(), i.end());
        for (auto& o : outputs) o = concat;
        return total;
      },
      out);
  counts.assign(n, 0);
  std::memcpy(counts.data(), out.data(), n * sizeof(std::size_t));
  std::vector<std::byte> data(out.begin() + n * sizeof(std::size_t),
                              out.end());
  return data;
}

std::vector<std::byte> Comm::allreduce_bytes(
    std::vector<std::byte> value, std::size_t elem_size, int reduce_op,
    const std::function<void(std::byte*, const std::byte*)>& combine) {
  const obs::Scope scope = obs_scope();
  obs::Span span = scope.span("mpsim.allreduce");
  scope.add("mpsim.collective.bytes", value.size());
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kAllreduce;
  desc.elem_size = elem_size;
  desc.reduce_op = reduce_op;
  desc.bytes = value.size();
  impl_->collective(
      rank_, std::move(value), desc,
      [&combine](std::vector<std::vector<std::byte>>& inputs,
                 std::vector<std::vector<std::byte>>& outputs) -> std::size_t {
        // Fold in rank order: acc starts as rank 0's value so the result
        // is deterministic regardless of arrival order.
        std::vector<std::byte> acc = inputs[0];
        for (std::size_t i = 1; i < inputs.size(); ++i)
          combine(acc.data(), inputs[i].data());
        for (auto& o : outputs) o = acc;
        return acc.size() * inputs.size();
      },
      out);
  return out;
}

void Comm::broadcast_bytes(std::vector<std::byte>& bytes, int root,
                           std::size_t elem_size) {
  const obs::Scope scope = obs_scope();
  obs::Span span = scope.span("mpsim.broadcast");
  if (rank_ == root) scope.add("mpsim.collective.bytes", bytes.size());
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kBroadcast;
  desc.root = root;
  desc.elem_size = elem_size;
  impl_->collective(
      rank_, bytes, desc,
      [root](std::vector<std::vector<std::byte>>& inputs,
             std::vector<std::vector<std::byte>>& outputs) -> std::size_t {
        for (auto& o : outputs) o = inputs[root];
        return inputs[root].size();
      },
      out);
  bytes = std::move(out);
}

std::vector<std::vector<std::byte>> Comm::alltoallv_bytes(
    const std::vector<std::vector<std::byte>>& to_each) {
  if (static_cast<int>(to_each.size()) != impl_->size)
    throw std::invalid_argument("alltoallv: need one payload per rank");
  const obs::Scope scope = obs_scope();
  obs::Span span = scope.span("mpsim.alltoallv");
  for (const auto& payload : to_each)
    scope.add("mpsim.collective.bytes", payload.size());
  // Flatten with a (count per destination) header.
  std::vector<std::byte> flat;
  for (const auto& payload : to_each) {
    const std::size_t c = payload.size();
    const auto* p = reinterpret_cast<const std::byte*>(&c);
    flat.insert(flat.end(), p, p + sizeof(std::size_t));
    flat.insert(flat.end(), payload.begin(), payload.end());
  }
  const int n = impl_->size;
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kAlltoallv;
  impl_->collective(
      rank_, std::move(flat), desc,
      [n](std::vector<std::vector<std::byte>>& inputs,
          std::vector<std::vector<std::byte>>& outputs) -> std::size_t {
        std::size_t total = 0;
        // Parse each source's flattened buffer into per-dest segments.
        std::vector<std::vector<std::pair<std::size_t, std::size_t>>> seg(
            n);  // seg[src][dst] = (offset, count)
        for (int src = 0; src < n; ++src) {
          std::size_t off = 0;
          seg[src].resize(n);
          for (int dst = 0; dst < n; ++dst) {
            std::size_t c;
            std::memcpy(&c, inputs[src].data() + off, sizeof(std::size_t));
            off += sizeof(std::size_t);
            seg[src][dst] = {off, c};
            off += c;
            total += c;
          }
        }
        for (int dst = 0; dst < n; ++dst) {
          std::vector<std::byte> mine;
          for (int src = 0; src < n; ++src) {
            const auto [off, c] = seg[src][dst];
            const std::size_t cc = c;
            const auto* p = reinterpret_cast<const std::byte*>(&cc);
            mine.insert(mine.end(), p, p + sizeof(std::size_t));
            mine.insert(mine.end(), inputs[src].begin() + off,
                        inputs[src].begin() + off + c);
          }
          outputs[dst] = std::move(mine);
        }
        return total;
      },
      out);
  // Unpack per-source segments.
  std::vector<std::vector<std::byte>> result(n);
  std::size_t off = 0;
  for (int src = 0; src < n; ++src) {
    std::size_t c;
    std::memcpy(&c, out.data() + off, sizeof(std::size_t));
    off += sizeof(std::size_t);
    result[src].assign(out.begin() + off, out.begin() + off + c);
    off += c;
  }
  return result;
}

Comm Comm::split(int color, int key) {
  obs::Span span = obs_scope().span("mpsim.split");
  // Gather (color, key, old rank) from everyone.
  struct Entry {
    int color, key, old_rank;
  };
  std::vector<std::byte> in(sizeof(Entry));
  const Entry mine{color, key, rank_};
  std::memcpy(in.data(), &mine, sizeof(Entry));
  std::vector<std::byte> out;
  CollectiveCheck desc;
  desc.kind = CollectiveCheck::Kind::kSplit;
  const std::uint64_t gen = impl_->collective(
      rank_, std::move(in), desc,
      [](std::vector<std::vector<std::byte>>& inputs,
         std::vector<std::vector<std::byte>>& outputs) -> std::size_t {
        std::vector<std::byte> concat;
        for (auto& i : inputs)
          concat.insert(concat.end(), i.begin(), i.end());
        for (auto& o : outputs) o = concat;
        return concat.size();
      },
      out);

  std::vector<Entry> entries(impl_->size);
  std::memcpy(entries.data(), out.data(), out.size());
  std::vector<Entry> group;
  for (const auto& e : entries)
    if (e.color == color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.old_rank) < std::tie(b.key, b.old_rank);
  });
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i].old_rank == rank_) my_new_rank = static_cast<int>(i);

  // The group leader (new rank 0) builds and publishes the child impl.
  const auto map_key = std::make_pair(gen, color);
  std::shared_ptr<CommImpl> child;
  if (my_new_rank == 0) {
    child = std::make_shared<CommImpl>(static_cast<int>(group.size()),
                                       impl_->model);
    child->recorders.clear();
    child->injector = impl_->injector;
    child->reliable = impl_->reliable;
    child->checker = impl_->checker;
    child->abort = impl_->abort;
    child->abort->track(child);
    // Deterministic child identity: the split's collective generation and
    // color pin it regardless of thread scheduling.
    child->comm_key = impl_->comm_key + "/" + std::to_string(gen) + "." +
                      std::to_string(color);
    for (std::size_t i = 0; i < group.size(); ++i) {
      child->clocks.push_back(impl_->clocks[group[i].old_rank]);
      // Sub-communicator ranks keep reporting to their world-rank recorder,
      // so a trace shows one track per simulated world rank.
      child->recorders.push_back(impl_->recorders[group[i].old_rank]);
      // Fault plans address ranks by world rank, stable across splits.
      child->world_ranks.push_back(impl_->world_ranks[group[i].old_rank]);
    }
    if (child->checker != nullptr)
      child->checker->on_comm_created(child->comm_key, /*is_world=*/false,
                                      child->world_ranks);
    if (group.size() > 1) {
      MutexLock lock(impl_->split_mu);
      impl_->split_published[map_key] = {child,
                                         static_cast<int>(group.size()) - 1};
    }
    impl_->split_cv.notify_all();
  } else {
    MutexLock lock(impl_->split_mu);
    // Not registered as a blocked op: the leader publishes in straight-line
    // code right after the split collective, so this wait always
    // terminates (the polling is only for deadlock-abort propagation).
    CheckHook* const hook = impl_->checker;
    if (hook == nullptr) {
      while (impl_->split_published.count(map_key) == 0) {
        impl_->abort->throw_if_raised();
        impl_->split_cv.wait(impl_->split_mu);
      }
    } else {
      while (impl_->split_published.count(map_key) == 0) {
        impl_->abort->throw_if_raised();
        throw_if_deadlocked(*hook);
        impl_->split_cv.wait_poll(impl_->split_mu);
      }
    }
    auto slot = impl_->split_published.find(map_key);
    child = slot->second.impl;
    // Last joiner retires the publication slot so the child impl's
    // lifetime follows the user-held Comm handles.
    if (--slot->second.remaining == 0) impl_->split_published.erase(slot);
  }
  return Comm(std::move(child), my_new_rank);
}

namespace {

SchedMode resolve_sched_mode(const std::optional<SchedMode>& explicit_mode) {
  if (explicit_mode.has_value()) return *explicit_mode;
  const char* env = std::getenv("STNB_SCHED");
  if (env == nullptr || *env == '\0') return SchedMode::kThreadPerRank;
  const std::string v(env);
  if (v == "thread") return SchedMode::kThreadPerRank;
  if (v == "fiber") return SchedMode::kFiber;
  throw std::runtime_error("STNB_SCHED: unknown scheduler '" + v +
                           "' (expected thread|fiber)");
}

}  // namespace

std::size_t resolve_sched_stack_bytes(std::size_t stack_kb) {
  if (stack_kb == 0) {
    if (const char* env = std::getenv("STNB_SCHED_STACK_KB");
        env != nullptr && *env != '\0')
      stack_kb = std::strtoul(env, nullptr, 10);
  }
  if (stack_kb == 0) stack_kb = 512;
  return stack_kb * 1024;
}

int resolve_sched_workers(int requested) {
  if (requested <= 0) {
    if (const char* env = std::getenv("STNB_SCHED_WORKERS");
        env != nullptr && *env != '\0')
      requested = std::atoi(env);
  }
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
    if (requested > 16) requested = 16;
  }
  return requested < 1 ? 1 : requested;
}

SchedConfig SchedConfig::from_flags(const std::string& sched,
                                    int ranks_per_thread, int n_ranks) {
  SchedConfig cfg;
  if (sched == "thread") {
    cfg.mode = SchedMode::kThreadPerRank;
  } else if (sched == "fiber") {
    cfg.mode = SchedMode::kFiber;
  } else if (!sched.empty()) {
    throw std::invalid_argument("--sched: unknown scheduler '" + sched +
                                "' (expected thread|fiber)");
  }
  if (ranks_per_thread > 0) {
    if (!cfg.mode.has_value()) cfg.mode = SchedMode::kFiber;
    cfg.workers = (n_ranks + ranks_per_thread - 1) / ranks_per_thread;
    if (cfg.workers < 1) cfg.workers = 1;
  }
  return cfg;
}

std::vector<double> Runtime::run(
    int n_ranks, const std::function<void(Comm&)>& rank_main) {
  if (n_ranks < 1) throw std::invalid_argument("need at least one rank");
  CheckHook* hook =
      check_hook_ != nullptr ? check_hook_ : env_check_hook();
  if (hook != nullptr) hook->begin_run(n_ranks);
  std::vector<VirtualClock> clocks(n_ranks);
  auto world = std::make_shared<CommImpl>(n_ranks, model_);
  for (auto& c : clocks) world->clocks.push_back(&c);
  world->injector = injector_;
  world->reliable = reliable_;
  world->checker = hook;
  world->abort = std::make_shared<WorldAbort>();
  world->abort->track(world);
  for (int r = 0; r < n_ranks; ++r) world->world_ranks.push_back(r);
  if (hook != nullptr)
    hook->on_comm_created(world->comm_key, /*is_world=*/true,
                          world->world_ranks);
  if (registry_ != nullptr)
    for (int r = 0; r < n_ranks; ++r)
      world->recorders[r] = registry_->attach_rank(r, &clocks[r]);

  std::vector<std::exception_ptr> errors(n_ranks);
  const auto rank_body = [&](int r) {
    Comm comm(world, r);
    try {
      rank_main(comm);
    } catch (...) {
      errors[r] = std::current_exception();
      world->abort->raise(r);
    }
    if (hook != nullptr) hook->on_rank_done(r);
  };

  if (sched::FiberScheduler::in_fiber()) {
    // Nested run from inside a scheduler fiber (a JobQueue job driver):
    // spawn the ranks into the live ambient scheduler, in the caller's
    // fair-share group, and fiber-block until they finish. Joining OS
    // threads here would park a scheduler worker for the whole world and
    // defeat the over-decomposition.
    auto* ambient = sched::FiberScheduler::current();
    const int group = sched::FiberScheduler::current_group();
    struct Join {
      Mutex mu;
      CondVar cv;
      int remaining STNB_GUARDED_BY(mu) = 0;
    };
    // shared_ptr: rank fibers may still be inside the final notify when
    // this frame's wait completes; the control block keeps cv alive.
    auto join = std::make_shared<Join>();
    {
      MutexLock lock(join->mu);
      join->remaining = n_ranks;
    }
    for (int r = 0; r < n_ranks; ++r) {
      ambient->spawn(group, [join, &rank_body, r] {
        rank_body(r);
        MutexLock lock(join->mu);
        --join->remaining;
        join->cv.notify_all();
      });
    }
    MutexLock lock(join->mu);
    while (join->remaining > 0) join->cv.wait(join->mu);
  } else if (resolve_sched_mode(sched_.mode) == SchedMode::kFiber) {
    sched::FiberScheduler::Config scfg;
    scfg.stack_bytes = resolve_sched_stack_bytes(sched_.stack_kb);
    sched::FiberScheduler fs(scfg);
    for (int r = 0; r < n_ranks; ++r)
      fs.spawn(/*group=*/0, [&rank_body, r] { rank_body(r); });
    const int workers = resolve_sched_workers(sched_.workers);
    ThreadPool pool(static_cast<std::size_t>(workers - 1));
    fs.run(pool);
    if (registry_ != nullptr) {
      // Scheduler counters are host-scheduling facts, not simulation
      // results: they vary with worker count and mode, so determinism
      // comparisons must exclude the sched.* namespace.
      auto scope = registry_->scope(0);
      scope.add("sched.context_switches", fs.context_switches());
      scope.gauge("sched.workers", static_cast<double>(workers));
      scope.gauge("sched.max_ready_ranks",
                  static_cast<double>(fs.max_ready()));
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_ranks);
    for (int r = 0; r < n_ranks; ++r)
      threads.emplace_back([&rank_body, r] { rank_body(r); });
    for (auto& t : threads) t.join();
  }
  if (registry_ != nullptr) registry_->detach_clocks();
  bool failed = false;
  for (auto& e : errors) failed = failed || static_cast<bool>(e);
  if (hook != nullptr && failed) hook->end_run(/*failed=*/true);
  // A rank's own error outranks a secondary deadlock-abort CheckError and
  // the AbortErrors it raised on its peers: rethrow the most causal one.
  std::exception_ptr check_error, abort_error;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const CheckError&) {
      if (!check_error) check_error = e;
    } catch (const AbortError&) {
      if (!abort_error) abort_error = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (check_error) std::rethrow_exception(check_error);
  if (abort_error) std::rethrow_exception(abort_error);
  // Finalize-time analysis: message races, never-received sends, leaked
  // sub-communicators. Throws CheckError on violations.
  if (hook != nullptr) hook->end_run(/*failed=*/false);

  std::vector<double> times(n_ranks);
  for (int r = 0; r < n_ranks; ++r) times[r] = clocks[r].now();
  return times;
}

}  // namespace stnb::mpsim
