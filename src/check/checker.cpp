#include "check/checker.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace stnb::check {

namespace {

using mpsim::CollectiveCheck;
using mpsim::kAnySource;
using mpsim::kAnyTag;

const char* collective_name(CollectiveCheck::Kind kind) {
  switch (kind) {
    case CollectiveCheck::Kind::kBarrier: return "barrier";
    case CollectiveCheck::Kind::kAllgatherv: return "allgatherv";
    case CollectiveCheck::Kind::kAllreduce: return "allreduce";
    case CollectiveCheck::Kind::kBroadcast: return "broadcast";
    case CollectiveCheck::Kind::kAlltoallv: return "alltoallv";
    case CollectiveCheck::Kind::kSplit: return "split";
  }
  return "?";
}

const char* reduce_name(int op) {
  switch (op) {
    case 0: return "sum";
    case 1: return "max";
    case 2: return "min";
    default: return "?";
  }
}

/// Renders one collective descriptor the way the mismatch report shows it.
std::string describe(const CollectiveCheck& desc) {
  std::ostringstream out;
  out << collective_name(desc.kind);
  switch (desc.kind) {
    case CollectiveCheck::Kind::kBroadcast:
      out << "(root=" << desc.root << ", elem=" << desc.elem_size << ")";
      break;
    case CollectiveCheck::Kind::kAllreduce:
      out << "(op=" << reduce_name(desc.reduce_op)
          << ", elem=" << desc.elem_size << ", bytes=" << desc.bytes << ")";
      break;
    case CollectiveCheck::Kind::kAllgatherv:
      out << "(elem=" << desc.elem_size << ")";
      break;
    default:
      break;
  }
  return out.str();
}

std::string selector(int value, const char* any) {
  return value < 0 ? std::string(any) : std::to_string(value);
}

}  // namespace

void Checker::begin_run(int n_ranks) {
  MutexLock lock(mu_);
  reset_locked();
  n_ = n_ranks;
  vc_.assign(n_, std::vector<std::uint64_t>(n_, 0));
  recv_count_.assign(n_, 0);
  states_.assign(n_, RankState{});
}

void Checker::end_run(bool failed) {
  ReleasableMutexLock lock(mu_);
  if (failed) {
    // A rank's own error takes precedence over finalize findings (and a
    // faulted run legitimately leaves unreceived sends behind).
    reset_locked();
    return;
  }
  const std::string races = race_report_locked();
  const std::string leaks = races.empty() ? leak_report_locked() : "";
  reset_locked();
  lock.release();
  if (!races.empty())
    throw mpsim::CheckError(mpsim::CheckError::Kind::kRace, races);
  if (!leaks.empty())
    throw mpsim::CheckError(mpsim::CheckError::Kind::kLeak, leaks);
}

mpsim::CheckEnvelope Checker::on_send(const mpsim::CheckSendEvent& event) {
  MutexLock lock(mu_);
  auto& clock = vc_[event.source];
  ++clock[event.source];
  SendRecord record;
  record.comm = event.comm;
  record.source = event.source;
  record.dest = event.dest;
  record.tag = event.tag;
  const StreamKey stream{event.comm, event.source, event.dest, event.tag};
  record.seq = stream_seq_[stream]++;
  record.bytes = event.bytes;
  record.dropped = event.dropped;
  record.vc = clock;
  mpsim::CheckEnvelope env;
  env.send_id = sends_.size();
  env.vc = clock;
  sends_.push_back(std::move(record));
  in_flight_[stream] += event.duplicated ? 2 : 1;
  return env;
}

void Checker::on_deliver(const mpsim::CheckRecvEvent& event,
                         const std::vector<std::uint64_t>& sender_vc) {
  MutexLock lock(mu_);
  SendRecord& send = sends_.at(event.send_id);
  auto flight = in_flight_.find(
      StreamKey{send.comm, send.source, send.dest, send.tag});
  if (flight != in_flight_.end() && flight->second > 0) --flight->second;
  if (event.duplicate) return;  // stale redelivery: benign, not an event
  const int dest = event.dest;
  const std::uint64_t index = recv_count_[dest]++;
  if (!send.delivered) {
    send.delivered = true;
    send.recv_index = index;
  }
  auto& clock = vc_[dest];
  if (!event.dropped) {
    // Join: the receiver now causally depends on everything the sender
    // had seen. Tombstones carry no data, so no join for them.
    for (int r = 0; r < n_; ++r)
      clock[r] = std::max(clock[r], sender_vc[r]);
  }
  ++clock[dest];
  const bool wildcard =
      event.source_sel == kAnySource || event.tag_sel == kAnyTag;
  if (wildcard && !event.dropped) {
    WildcardRecv recv;
    recv.comm = event.comm;
    recv.dest = dest;
    recv.source_sel = event.source_sel;
    recv.tag_sel = event.tag_sel;
    recv.recv_index = index;
    recv.vc_after = clock;
    wildcard_recvs_.push_back(std::move(recv));
  }
}

void Checker::on_comm_created(const std::string& key, bool is_world,
                              const std::vector<int>& world_ranks) {
  MutexLock lock(mu_);
  comms_[key] = CommInfo{is_world, /*alive=*/true, world_ranks};
}

void Checker::on_comm_destroyed(const std::string& key) {
  MutexLock lock(mu_);
  // May fire after end_run's reset (the world impl dies when Runtime::run
  // returns) — an unknown key is simply ignored.
  const auto it = comms_.find(key);
  if (it != comms_.end()) it->second.alive = false;
}

std::string Checker::on_collective(
    const std::string& comm_key, const std::vector<int>& world_ranks,
    const std::vector<CollectiveCheck>& descs) {
  MutexLock lock(mu_);
  // The collective synchronizes its members whether or not their
  // descriptors agree (the mismatch is thrown after the rendezvous), so
  // the clocks always join: elementwise max over members, then one local
  // step each.
  std::vector<std::uint64_t> joined(n_, 0);
  for (const int w : world_ranks)
    for (int r = 0; r < n_; ++r) joined[r] = std::max(joined[r], vc_[w][r]);
  for (const int w : world_ranks) {
    vc_[w] = joined;
    ++vc_[w][w];
    // The last arriver logically wakes every member right now; clearing
    // their blocked registrations here (not when their threads get
    // scheduled) keeps the deadlock scan free of stale-blocked windows.
    if (states_[w].kind == RankState::Kind::kBlocked)
      states_[w].kind = RankState::Kind::kRunning;
  }
  bool mismatch = false;
  const CollectiveCheck& ref = descs.front();
  for (const CollectiveCheck& d : descs) {
    mismatch = mismatch || d.kind != ref.kind || d.root != ref.root ||
               d.elem_size != ref.elem_size || d.reduce_op != ref.reduce_op;
    // Variable-size collectives legitimately differ in payload size;
    // allreduce must agree elementwise, so its byte count is significant.
    if (ref.kind == CollectiveCheck::Kind::kAllreduce)
      mismatch = mismatch || d.bytes != ref.bytes;
  }
  if (!mismatch) return "";
  std::ostringstream out;
  out << "check: collective mismatch on comm " << comm_key << "\n";
  for (std::size_t i = 0; i < descs.size(); ++i)
    out << "  rank " << world_ranks[i] << ": " << describe(descs[i]) << "\n";
  return out.str();
}

void Checker::on_blocked(int world_rank, mpsim::PendingOp op) {
  MutexLock lock(mu_);
  states_[world_rank].kind = RankState::Kind::kBlocked;
  states_[world_rank].op = std::move(op);
}

void Checker::on_unblocked(int world_rank) {
  MutexLock lock(mu_);
  if (states_[world_rank].kind == RankState::Kind::kBlocked)
    states_[world_rank].kind = RankState::Kind::kRunning;
}

void Checker::on_rank_done(int world_rank) {
  MutexLock lock(mu_);
  states_[world_rank].kind = RankState::Kind::kDone;
}

std::string Checker::deadlock_scan() {
  MutexLock lock(mu_);
  if (abort_.load()) return abort_report_;
  std::string report = deadlock_report_locked();
  if (!report.empty()) {
    abort_.store(true);
    abort_report_ = report;
  }
  return report;
}

bool Checker::aborted() const { return abort_.load(); }

std::string Checker::abort_report() const {
  MutexLock lock(mu_);
  return abort_report_;
}

std::string Checker::deadlock_report_locked() const {
  // Provably stuck iff every rank is blocked or done (at least one
  // blocked) and no blocked operation is deliverable. Transients are
  // impossible to mistake for this: a send increments in_flight_ before
  // the message is posted, and a woken rank is marked running before its
  // delivery is consumed, so any in-progress hand-off keeps either a
  // running rank or a positive in-flight count visible.
  int blocked = 0;
  for (const RankState& s : states_) {
    if (s.kind == RankState::Kind::kRunning) return "";
    if (s.kind == RankState::Kind::kBlocked) ++blocked;
  }
  if (blocked == 0) return "";
  for (int rank = 0; rank < n_; ++rank) {
    const RankState& s = states_[rank];
    if (s.kind != RankState::Kind::kBlocked) continue;
    if (s.op.kind != mpsim::PendingOp::Kind::kRecv) continue;
    // A receive is deliverable if any matching copy is still in flight.
    // (A blocked collective never is: its last member will never arrive,
    // since every rank is blocked or done.)
    for (const auto& [key, count] : in_flight_) {
      if (count <= 0) continue;
      const auto& [comm, src, dst, tag] = key;
      if (comm != s.op.comm || dst != rank) continue;
      if (s.op.source_sel != kAnySource && s.op.source_sel != src) continue;
      if (s.op.tag_sel != kAnyTag && s.op.tag_sel != tag) continue;
      return "";
    }
  }

  std::ostringstream out;
  out << "check: deadlock — every rank is blocked or finished and no "
         "pending operation is deliverable\n";
  for (int r = 0; r < n_; ++r) {
    const RankState& s = states_[r];
    out << "  rank " << r << ": ";
    if (s.kind == RankState::Kind::kDone) {
      out << "finished\n";
      continue;
    }
    if (s.op.kind == mpsim::PendingOp::Kind::kRecv) {
      out << "blocked in recv on comm " << s.op.comm << " (source="
          << selector(s.op.source_sel, "any") << ", tag="
          << selector(s.op.tag_sel, "any") << ")\n";
    } else {
      out << "blocked in " << collective_name(s.op.coll) << " on comm "
          << s.op.comm << " (members:";
      for (const int w : s.op.members) out << " " << w;
      out << ")\n";
    }
  }

  // Best-effort wait-for cycle: rank -> ranks it waits on (a named recv
  // waits on its source; a wildcard recv or a collective waits on every
  // other member of its communicator). DFS in ascending rank order keeps
  // the reported cycle deterministic.
  std::vector<std::vector<int>> waits_on(n_);
  for (int r = 0; r < n_; ++r) {
    const RankState& s = states_[r];
    if (s.kind != RankState::Kind::kBlocked) continue;
    if (s.op.kind == mpsim::PendingOp::Kind::kRecv) {
      if (s.op.source_sel != kAnySource) {
        waits_on[r].push_back(s.op.source_sel);
      } else {
        const auto comm = comms_.find(s.op.comm);
        if (comm != comms_.end())
          for (const int w : comm->second.world_ranks)
            if (w != r) waits_on[r].push_back(w);
      }
    } else {
      for (const int w : s.op.members)
        if (w != r) waits_on[r].push_back(w);
    }
  }
  std::vector<int> path;
  std::vector<bool> on_path(n_, false);
  std::vector<bool> visited(n_, false);
  std::vector<int> cycle;
  const auto dfs = [&](const auto& self, int r) -> bool {
    if (on_path[r]) {
      const auto start = std::find(path.begin(), path.end(), r);
      cycle.assign(start, path.end());
      cycle.push_back(r);
      return true;
    }
    if (visited[r]) return false;
    visited[r] = true;
    on_path[r] = true;
    path.push_back(r);
    for (const int next : waits_on[r])
      if (self(self, next)) return true;
    path.pop_back();
    on_path[r] = false;
    return false;
  };
  for (int r = 0; r < n_ && cycle.empty(); ++r) dfs(dfs, r);
  if (!cycle.empty()) {
    out << "wait-for cycle:";
    for (std::size_t i = 0; i < cycle.size(); ++i)
      out << (i == 0 ? " rank " : " -> rank ") << cycle[i];
    out << "\n";
  }
  return out.str();
}

std::string Checker::race_report_locked() const {
  // A wildcard receive races when, under some other schedule, it could
  // have matched a different send: the head of another FIFO stream that
  // fits the selectors. A stream's head is its oldest send that is not
  // dropped, was not consumed before this receive, and is not causally
  // after it. Only the first racing receive of each (comm, dest, source
  // selector, tag selector) group is reported. What a later receive of
  // the group could match depends on which send the first one took, so
  // its candidates would change from schedule to schedule. The first one
  // does not: every earlier receive of its group had a single candidate.
  // Its report lists every stream head (matched send included), so it
  // reads the same no matter which candidate won this run.
  std::vector<const WildcardRecv*> recvs;
  recvs.reserve(wildcard_recvs_.size());
  for (const WildcardRecv& r : wildcard_recvs_) recvs.push_back(&r);
  std::sort(recvs.begin(), recvs.end(),
            [](const WildcardRecv* a, const WildcardRecv* b) {
              return std::tie(a->dest, a->recv_index) <
                     std::tie(b->dest, b->recv_index);
            });
  std::set<std::tuple<std::string, int, int, int>> reported;
  std::ostringstream out;
  for (const WildcardRecv* recv : recvs) {
    const auto group = std::make_tuple(recv->comm, recv->dest,
                                       recv->source_sel, recv->tag_sel);
    if (reported.count(group) > 0) continue;
    std::map<std::pair<int, int>, const SendRecord*> heads;  // (source, tag)
    for (const SendRecord& s : sends_) {
      if (s.comm != recv->comm || s.dest != recv->dest) continue;
      if (s.dropped) continue;
      if (recv->source_sel != kAnySource && s.source != recv->source_sel)
        continue;
      if (recv->tag_sel != kAnyTag && s.tag != recv->tag_sel) continue;
      // Consumed by an earlier receive in this schedule's program order.
      if (s.delivered && s.recv_index < recv->recv_index) continue;
      // Causally after this receive (e.g. sent in reply to it): could
      // not have been in flight yet.
      if (s.vc[recv->dest] >= recv->vc_after[recv->dest]) continue;
      const auto [it, fresh] = heads.try_emplace({s.source, s.tag}, &s);
      if (!fresh && s.seq < it->second->seq) it->second = &s;
    }
    if (heads.size() < 2) continue;
    if (reported.empty()) out << "check: message race(s) detected\n";
    reported.insert(group);
    out << "wildcard recv #" << recv->recv_index << " at rank " << recv->dest
        << " on comm " << recv->comm << " (source="
        << selector(recv->source_sel, "any") << ", tag="
        << selector(recv->tag_sel, "any") << "): " << heads.size()
        << " candidate sends:\n";
    for (const auto& [stream, c] : heads)
      out << "  send " << c->comm << " " << c->source << "->" << c->dest
          << " tag " << c->tag << " seq " << c->seq << " (" << c->bytes
          << " bytes)\n";
  }
  return out.str();
}

std::string Checker::leak_report_locked() const {
  std::vector<const SendRecord*> lost;
  for (const SendRecord& s : sends_)
    if (!s.delivered) lost.push_back(&s);
  std::sort(lost.begin(), lost.end(),
            [](const SendRecord* a, const SendRecord* b) {
              return std::tie(a->comm, a->source, a->dest, a->tag, a->seq) <
                     std::tie(b->comm, b->source, b->dest, b->tag, b->seq);
            });
  std::vector<std::string> leaked_comms;
  for (const auto& [key, info] : comms_)
    if (info.alive && !info.is_world) leaked_comms.push_back(key);
  if (lost.empty() && leaked_comms.empty()) return "";
  std::ostringstream out;
  out << "check: finalize audit failed\n";
  if (!lost.empty()) {
    out << "never-received sends:\n";
    for (const SendRecord* s : lost)
      out << "  send " << s->comm << " " << s->source << "->" << s->dest
          << " tag " << s->tag << " seq " << s->seq << " (" << s->bytes
          << " bytes" << (s->dropped ? ", dropped" : "") << ")\n";
  }
  if (!leaked_comms.empty()) {
    out << "never-freed sub-communicators:\n";
    for (const std::string& key : leaked_comms) out << "  " << key << "\n";
  }
  return out.str();
}

void Checker::reset_locked() {
  n_ = 0;
  vc_.clear();
  recv_count_.clear();
  states_.clear();
  sends_.clear();
  wildcard_recvs_.clear();
  stream_seq_.clear();
  in_flight_.clear();
  comms_.clear();
  abort_.store(false);
  abort_report_.clear();
}

}  // namespace stnb::check

namespace stnb::mpsim {

CheckHook* env_check_hook() {
  static const bool enabled = [] {
    const char* value = std::getenv("STNB_CHECK");
    return value != nullptr && value == std::string("1");
  }();
  if (!enabled) return nullptr;
  static check::Checker checker;
  return &checker;
}

}  // namespace stnb::mpsim
