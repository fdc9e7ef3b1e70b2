// Simulated message-passing runtime: p2p semantics, collective results,
// communicator splitting (the paper's Fig. 2 space x time grid), and the
// virtual-clock model (causality, synchronization, determinism).
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "mpsim/comm.hpp"

namespace stnb::mpsim {
namespace {

TEST(Mpsim, RingPassesTokenAroundAllRanks) {
  const int n = 7;
  Runtime rt;
  std::vector<int> seen(n, -1);
  rt.run(n, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<int> token = {0};
    if (r == 0) {
      comm.send(1 % n, 0, token);
      token = comm.recv<int>(n - 1, 0);
      seen[0] = token[0];
    } else {
      token = comm.recv<int>(r - 1, 0);
      seen[r] = token[0];
      token[0] += 1;
      comm.send((r + 1) % n, 0, token);
    }
  });
  for (int r = 1; r < n; ++r) EXPECT_EQ(seen[r], r - 1);
  EXPECT_EQ(seen[0], n - 1);
}

TEST(Mpsim, RecvMatchesSourceAndTagNotArrivalOrder) {
  Runtime rt;
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/7, std::vector<int>{7});
      comm.send(1, /*tag=*/3, std::vector<int>{3});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv<int>(0, 3).at(0), 3);
      EXPECT_EQ(comm.recv<int>(0, 7).at(0), 7);
    }
  });
}

TEST(Mpsim, SameTagMessagesPreserveFifoOrder) {
  Runtime rt;
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 5; ++i) comm.send(1, 0, std::vector<int>{i});
    } else {
      for (int i = 0; i < 5; ++i) EXPECT_EQ(comm.recv<int>(0, 0).at(0), i);
    }
  });
}

class MpsimCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpsimCollectives, AllreduceSumMaxMin) {
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kSum), n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kMax), n);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kMin), 1.0);
  });
}

TEST_P(MpsimCollectives, TypedAllreduceWorksForIntegerAndSizeTypes) {
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    const int r = comm.rank() + 1;
    EXPECT_EQ(comm.allreduce(r, ReduceOp::kSum), n * (n + 1) / 2);
    EXPECT_EQ(comm.allreduce(r, ReduceOp::kMax), n);
    EXPECT_EQ(comm.allreduce(r, ReduceOp::kMin), 1);
    const auto big =
        static_cast<std::size_t>(comm.rank()) + (std::size_t{1} << 40);
    EXPECT_EQ(comm.allreduce(big, ReduceOp::kMax),
              (std::size_t{1} << 40) + static_cast<std::size_t>(n - 1));
    EXPECT_DOUBLE_EQ(comm.allreduce(0.5 * r, ReduceOp::kSum),
                     0.5 * n * (n + 1) / 2.0);
  });
}

TEST_P(MpsimCollectives, ArrayAllreduceIsElementwiseScalarAllreduce) {
  // One collective over an array folds each element in rank order, so it
  // is bit-identical to one scalar allreduce per element, rounding
  // included (the sum of 0.1 (r + 1) / 3 depends on the order).
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    const double r = comm.rank() + 1;
    const std::array<double, 3> mine{0.1 * r / 3.0, -r, 1e300 / r};
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
      const auto all = comm.allreduce(mine, op);
      for (std::size_t i = 0; i < mine.size(); ++i)
        EXPECT_EQ(all[i], comm.allreduce(mine[i], op)) << "element " << i;
    }
  });
}

TEST_P(MpsimCollectives, AllgathervConcatenatesInRankOrder) {
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(comm.rank() + 1, comm.rank());
    std::vector<std::size_t> counts;
    const auto all = comm.allgatherv(mine, &counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(n));
    std::size_t offset = 0;
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(counts[r], static_cast<std::size_t>(r + 1));
      for (std::size_t i = 0; i < counts[r]; ++i)
        EXPECT_EQ(all[offset + i], r);
      offset += counts[r];
    }
    EXPECT_EQ(offset, all.size());
  });
}

TEST_P(MpsimCollectives, BroadcastDistributesRootPayload) {
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    std::vector<double> data;
    if (comm.rank() == n - 1) data = {3.5, -1.25, 8.0};
    comm.broadcast(data, n - 1);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[0], 3.5);
    EXPECT_EQ(data[2], 8.0);
  });
}

TEST_P(MpsimCollectives, AlltoallvRoutesPerDestinationPayloads) {
  const int n = GetParam();
  Runtime rt;
  rt.run(n, [&](Comm& comm) {
    // Rank r sends the single byte value (r*16 + dst) to each dst.
    std::vector<std::vector<std::byte>> to_each(n);
    for (int dst = 0; dst < n; ++dst)
      to_each[dst] = {static_cast<std::byte>(comm.rank() * 16 + dst)};
    const auto from_each = comm.alltoallv_bytes(to_each);
    ASSERT_EQ(from_each.size(), static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
      ASSERT_EQ(from_each[src].size(), 1u);
      EXPECT_EQ(static_cast<int>(from_each[src][0]),
                src * 16 + comm.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpsimCollectives,
                         ::testing::Values(1, 2, 3, 8));

TEST(Mpsim, SplitFormsSpaceTimeGridLikeFigure2) {
  // 12 world ranks -> P_T = 3 time slices x P_S = 4 spatial ranks.
  const int pt = 3, ps = 4;
  Runtime rt;
  rt.run(pt * ps, [&](Comm& world) {
    const int time_slice = world.rank() / ps;
    const int space_rank = world.rank() % ps;
    Comm space = world.split(/*color=*/time_slice, /*key=*/space_rank);
    Comm time = world.split(/*color=*/space_rank, /*key=*/time_slice);
    EXPECT_EQ(space.size(), ps);
    EXPECT_EQ(space.rank(), space_rank);
    EXPECT_EQ(time.size(), pt);
    EXPECT_EQ(time.rank(), time_slice);
    // Sum of world ranks within my space communicator.
    const double space_sum =
        space.allreduce<double>(world.rank(), ReduceOp::kSum);
    double expected = 0;
    for (int s = 0; s < ps; ++s) expected += time_slice * ps + s;
    EXPECT_DOUBLE_EQ(space_sum, expected);
    // And within my time communicator.
    const double time_sum =
        time.allreduce<double>(world.rank(), ReduceOp::kSum);
    expected = 0;
    for (int t = 0; t < pt; ++t) expected += t * ps + space_rank;
    EXPECT_DOUBLE_EQ(time_sum, expected);
  });
}

TEST(Mpsim, VirtualClockRespectsMessageCausality) {
  Runtime rt;
  CostModel model;
  std::vector<double> times = rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(1.0);  // one second of modeled work
      comm.send(1, 0, std::vector<double>(1000, 0.0));
    } else {
      (void)comm.recv<double>(0, 0);
      // Receiver cannot see the message before send_time + latency + bytes.
      EXPECT_GE(comm.clock().now(), 1.0 + model.p2p(8000) - 1e-15);
    }
  });
  EXPECT_GE(times[1], 1.0);
}

TEST(Mpsim, BarrierSynchronizesClocksToSlowestRank) {
  Runtime rt;
  const auto times = rt.run(4, [&](Comm& comm) {
    comm.compute(comm.rank() == 2 ? 5.0 : 0.1);
    comm.barrier();
    EXPECT_GE(comm.clock().now(), 5.0);
  });
  for (double t : times) EXPECT_GE(t, 5.0);
}

TEST(Mpsim, VirtualTimesAreDeterministicAcrossRuns) {
  auto program = [](Comm& comm) {
    comm.compute(0.01 * (comm.rank() + 1));
    const double s = comm.allreduce(1.0, ReduceOp::kSum);
    comm.compute(s * 0.001);
    if (comm.rank() > 0) comm.send(comm.rank() - 1, 1, std::vector<int>{1});
    if (comm.rank() < comm.size() - 1)
      (void)comm.recv<int>(comm.rank() + 1, 1);
    comm.barrier();
  };
  Runtime rt;
  const auto t1 = rt.run(6, program);
  const auto t2 = rt.run(6, program);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_DOUBLE_EQ(t1[i], t2[i]);
}

TEST(Mpsim, RankExceptionsPropagateToCaller) {
  Runtime rt;
  EXPECT_THROW(rt.run(1,
                      [](Comm&) {
                        throw std::runtime_error("rank failure");
                      }),
               std::runtime_error);
}

TEST(Mpsim, RankErrorAbortsPeersBlockedInRecvAndSplitBarrier) {
  // Rank 1 throws while rank 0 waits on the world for a message rank 1
  // never sends and ranks 2-3 wait in a barrier on a communicator split
  // from the world that rank 1 never joins. The peers must be woken and
  // the run must fail with rank 1's own error instead of hanging (a ctest
  // TIMEOUT guards the hang).
  for (const SchedMode mode : {SchedMode::kThreadPerRank, SchedMode::kFiber}) {
    SchedConfig sched;
    sched.mode = mode;
    sched.workers = 2;
    Runtime rt;
    rt.set_sched(sched);
    std::vector<int> woken(4, 0);
    try {
      rt.run(4, [&](Comm& comm) {
        const int r = comm.rank();
        try {
          Comm rest = comm.split(r == 0 ? 0 : 1, r);  // {0}, {1, 2, 3}
          if (r == 0) (void)comm.recv<int>(1, 0);
          if (r == 1) throw std::runtime_error("rank 1 failed");
          if (r >= 2) rest.barrier();
        } catch (...) {
          // AbortError; under STNB_CHECK=1 the checker may instead report
          // the wait on the finished rank 1 as a deadlock first.
          if (r != 1) woken[r] = 1;
          throw;
        }
      });
      ADD_FAILURE() << "run returned normally";
    } catch (const AbortError& e) {
      ADD_FAILURE() << "rethrew a secondary abort: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 1 failed");
    }
    EXPECT_EQ(woken, (std::vector<int>{1, 0, 1, 1}))
        << (mode == SchedMode::kFiber ? "fiber" : "thread") << " mode";
  }
}

TEST(Mpsim, RecvFailsLoudlyOnElementSizeMismatch) {
  Runtime rt;
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      // 5 chars = 5 bytes, which no whole number of ints can occupy.
      comm.send(1, 0, std::vector<char>{'a', 'b', 'c', 'd', 'e'});
    } else {
      EXPECT_THROW((void)comm.recv<int>(0, 0), std::runtime_error);
    }
  });
}

TEST(Mpsim, AllgathervFailsLoudlyOnTornContribution) {
  // With STNB_CHECK=1 the collective verifier flags the element-size
  // disagreement on *every* rank at the collective itself; without it,
  // only the typed wrapper on the reading side catches the torn slice.
  const bool checked = env_check_hook() != nullptr;
  Runtime rt;
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      // 3 bytes from rank 0; rank 1 reads the gather as ints and must
      // reject the torn slice even though it could misparse the total.
      if (checked) {
        EXPECT_THROW((void)comm.allgatherv(std::vector<char>{'x', 'y', 'z'}),
                     CheckError);
      } else {
        (void)comm.allgatherv(std::vector<char>{'x', 'y', 'z'});
      }
    } else {
      EXPECT_THROW((void)comm.allgatherv(std::vector<int>{7}),
                   std::runtime_error);
    }
  });
}

TEST(Mpsim, EmptyPayloadsRoundTripWithoutUndefinedBehavior) {
  // Empty vectors have null data(); every pack/unpack path must tolerate
  // the (nullptr, 0) combination (UBSan flags memcpy(nullptr, ...)).
  Runtime rt;
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/0, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 0).empty());
    }
    EXPECT_TRUE(comm.allgatherv(std::vector<double>{}).empty());
    std::vector<int> data;
    comm.broadcast(data, /*root=*/0);
    EXPECT_TRUE(data.empty());
  });
}

TEST(Mpsim, AlltoallvHandlesEmptyPayloads) {
  Runtime rt;
  rt.run(3, [&](Comm& comm) {
    // Everybody sends nothing to everybody.
    std::vector<std::vector<std::byte>> to_each(3);
    const auto from_each = comm.alltoallv_bytes(to_each);
    ASSERT_EQ(from_each.size(), 3u);
    for (const auto& payload : from_each) EXPECT_TRUE(payload.empty());
  });
}

TEST(Mpsim, AlltoallvRoutesSelfSendsAndSkipsSilentRanks) {
  Runtime rt;
  rt.run(3, [&](Comm& comm) {
    // Each rank sends one byte only to itself; the cross-rank lanes stay
    // empty and must come back empty (not stale or misrouted).
    std::vector<std::vector<std::byte>> to_each(3);
    to_each[comm.rank()] = {static_cast<std::byte>(40 + comm.rank())};
    const auto from_each = comm.alltoallv_bytes(to_each);
    for (int src = 0; src < 3; ++src) {
      if (src == comm.rank()) {
        ASSERT_EQ(from_each[src].size(), 1u);
        EXPECT_EQ(static_cast<int>(from_each[src][0]), 40 + comm.rank());
      } else {
        EXPECT_TRUE(from_each[src].empty());
      }
    }
  });
}

TEST(Mpsim, AlltoallvSingleRankRoundTrips) {
  Runtime rt;
  rt.run(1, [&](Comm& comm) {
    std::vector<std::vector<std::byte>> to_each(1);
    to_each[0] = {std::byte{1}, std::byte{2}};
    const auto from_each = comm.alltoallv_bytes(to_each);
    ASSERT_EQ(from_each.size(), 1u);
    EXPECT_EQ(from_each[0], to_each[0]);
  });
}

TEST(Mpsim, CollectivesReusableManyTimes) {
  Runtime rt;
  rt.run(5, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s =
          comm.allreduce(static_cast<double>(round), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 5.0 * round);
    }
  });
}

}  // namespace
}  // namespace stnb::mpsim
