// Deterministic communication-correctness checker (MUST/ISP-style) for the
// simulated runtime. Implements mpsim::CheckHook; see that header for the
// hook contract and src/check/checker.cpp for the analyses:
//
//   * message races   — wildcard receives with more than one concurrently
//                       in-flight matching send (vector-clock proof),
//   * deadlocks       — every rank blocked or finished with no pending
//                       operation deliverable, reported as a wait-for graph
//                       with each rank's pending op, source, and tag,
//   * collective
//     consistency     — op kind / root / element size / reduce-op / payload
//                       cross-checked across all members of a communicator,
//   * finalize audit  — never-received sends and never-freed
//                       sub-communicators.
//
// Because the simulation is deterministic for a given program and fault
// seed, every report is bit-reproducible: diagnostics identify messages by
// (comm key, source, dest, tag, per-stream sequence number) — never by
// scheduling-dependent internals.
//
// Enable for any binary with STNB_CHECK=1 (see mpsim::env_check_hook), or
// install an instance explicitly via Runtime::set_check_hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mpsim/checkhook.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace stnb::check {

class Checker final : public mpsim::CheckHook {
 public:
  void begin_run(int n_ranks) override;
  void end_run(bool failed) override;

  mpsim::CheckEnvelope on_send(const mpsim::CheckSendEvent& event) override;
  void on_deliver(const mpsim::CheckRecvEvent& event,
                  const std::vector<std::uint64_t>& sender_vc) override;

  void on_comm_created(const std::string& key, bool is_world,
                       const std::vector<int>& world_ranks) override;
  void on_comm_destroyed(const std::string& key) override;

  std::string on_collective(
      const std::string& comm_key, const std::vector<int>& world_ranks,
      const std::vector<mpsim::CollectiveCheck>& descs) override;

  void on_blocked(int world_rank, mpsim::PendingOp op) override;
  void on_unblocked(int world_rank) override;
  void on_rank_done(int world_rank) override;

  std::string deadlock_scan() override;
  bool aborted() const override;
  std::string abort_report() const override;

 private:
  /// One logical send (an injected duplicate posts two physical copies of
  /// the same logical send; a reliable-mode retry chain is one send).
  struct SendRecord {
    std::string comm;
    int source = 0;
    int dest = 0;
    int tag = 0;
    std::uint64_t seq = 0;  // per-(comm, source, dest, tag) stream index
    std::size_t bytes = 0;
    bool dropped = false;
    std::vector<std::uint64_t> vc;  // sender clock at send time
    bool delivered = false;         // logically received (incl. tombstone)
    std::uint64_t recv_index = 0;   // dest's delivery counter at first recv
  };

  /// One completed wildcard receive, analyzed for races at finalize.
  struct WildcardRecv {
    std::string comm;
    int dest = 0;
    int source_sel = mpsim::kAnySource;
    int tag_sel = mpsim::kAnyTag;
    std::uint64_t recv_index = 0;   // dest's delivery counter at this recv
    std::vector<std::uint64_t> vc_after;  // receiver clock after the join
  };

  struct RankState {
    enum class Kind : std::uint8_t { kRunning, kBlocked, kDone };
    Kind kind = Kind::kRunning;
    mpsim::PendingOp op;  // valid while kBlocked
  };

  struct CommInfo {
    bool is_world = false;
    bool alive = true;
    std::vector<int> world_ranks;
  };

  // (comm, source, dest, tag): a FIFO-ordered message stream.
  using StreamKey = std::tuple<std::string, int, int, int>;

  void reset_locked() STNB_REQUIRES(mu_);
  std::string race_report_locked() const STNB_REQUIRES(mu_);
  std::string leak_report_locked() const STNB_REQUIRES(mu_);
  /// "" unless the run is provably stuck; otherwise the full diagnostic.
  std::string deadlock_report_locked() const STNB_REQUIRES(mu_);

  mutable Mutex mu_;
  int n_ STNB_GUARDED_BY(mu_) = 0;
  std::vector<std::vector<std::uint64_t>> vc_
      STNB_GUARDED_BY(mu_);                      // per world rank
  std::vector<std::uint64_t> recv_count_
      STNB_GUARDED_BY(mu_);                      // logical deliveries seen
  std::vector<RankState> states_ STNB_GUARDED_BY(mu_);
  std::vector<SendRecord> sends_ STNB_GUARDED_BY(mu_);  // index == send id
  std::vector<WildcardRecv> wildcard_recvs_ STNB_GUARDED_BY(mu_);
  std::map<StreamKey, std::uint64_t> stream_seq_ STNB_GUARDED_BY(mu_);
  std::map<StreamKey, int> in_flight_
      STNB_GUARDED_BY(mu_);  // posted, not yet consumed copies
  std::map<std::string, CommInfo> comms_ STNB_GUARDED_BY(mu_);
  std::atomic<bool> abort_{false};  // lock-free fast path for aborted()
  std::string abort_report_ STNB_GUARDED_BY(mu_);
};

}  // namespace stnb::check
