// Tests for the crossbar allocation kernel (router/switch_alloc.hpp): the
// division-free VC index split and the shuffle-then-match over a request
// array, checked against a plain reference of the same arbitration.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ftmesh/router/switch_alloc.hpp"
#include "ftmesh/sim/rng.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace {

using ftmesh::router::match_requests;
using ftmesh::router::shuffle_requests;
using ftmesh::router::VcIndexSplit;
using ftmesh::topology::kPortCount;

TEST(VcIndexSplit, MatchesDivisionOnEverySixteenBitIndex) {
  std::vector<int> counts(64);
  std::iota(counts.begin(), counts.end(), 1);
  for (const int v : {100, 127, 128, 255, 256, 1000, 4096, 13107, 32768,
                      65535}) {
    counts.push_back(v);
  }
  for (const int vcs : counts) {
    const VcIndexSplit split(vcs);
    for (std::size_t idx = 0; idx < 0x10000; ++idx) {
      ASSERT_EQ(split.port(idx), static_cast<int>(idx) / vcs)
          << "vcs " << vcs << " idx " << idx;
      ASSERT_EQ(split.vc(idx), static_cast<int>(idx) % vcs)
          << "vcs " << vcs << " idx " << idx;
    }
  }
}

using Winner = std::array<int, 3>;  // {idx, input port, output port}

// The arbitration as it was written before the request array: (port, vc)
// pairs split by division, shuffled with the backward Fisher–Yates, then
// matched greedily over every request with boolean port flags.
std::vector<Winner> reference_match(const std::vector<std::uint16_t>& idxs,
                                    int vcs, const std::vector<int>& out_of,
                                    std::uint64_t seed) {
  struct Request {
    std::int16_t port;
    std::int16_t vc;
  };
  std::vector<Request> requests;
  for (const int idx : idxs) {
    requests.push_back({static_cast<std::int16_t>(idx / vcs),
                        static_cast<std::int16_t>(idx % vcs)});
  }
  ftmesh::sim::CounterRng shuf(seed);
  for (std::size_t i = requests.size(); i > 1; --i) {
    const auto j = shuf.next_below(i);
    std::swap(requests[i - 1], requests[j]);
  }
  bool used_in[kPortCount] = {};
  bool used_out[kPortCount] = {};
  std::vector<Winner> winners;
  for (const auto& req : requests) {
    const int idx = req.port * vcs + req.vc;
    const int out = out_of[static_cast<std::size_t>(idx)];
    if (used_in[req.port] || used_out[out]) continue;
    used_in[req.port] = true;
    used_out[out] = true;
    winners.push_back({idx, req.port, out});
  }
  return winners;
}

std::vector<Winner> kernel_match(std::vector<std::uint16_t> idxs, int vcs,
                                 const std::vector<int>& out_of,
                                 std::uint64_t seed) {
  const VcIndexSplit split(vcs);
  std::uint32_t in_ports = 0;
  for (const std::uint16_t idx : idxs) in_ports |= 1u << split.port(idx);
  if (idxs.size() > 1) shuffle_requests(idxs.data(), idxs.size(), seed);
  std::vector<Winner> winners;
  match_requests(
      idxs.data(), idxs.size(), in_ports, split,
      [&](std::size_t idx) { return out_of[idx]; },
      [&](std::size_t idx, int in, int out) {
        winners.push_back({static_cast<int>(idx), in, out});
      });
  return winners;
}

TEST(SwitchAlloc, MatchEqualsShuffleThenGreedyReference) {
  ftmesh::sim::Rng rng(2024);
  for (const int vcs : {1, 3, 24, 64}) {
    const int nivc = kPortCount * vcs;
    std::vector<std::uint16_t> all(static_cast<std::size_t>(nivc));
    std::iota(all.begin(), all.end(), std::uint16_t{0});
    for (int n = 1; n <= nivc; ++n) {
      for (int trial = 0; trial < 6; ++trial) {
        // n distinct requesting VCs in ascending index order (the order
        // both scan modes collect them in), each bound for a random output
        // port; some trials funnel every request into one or two outputs.
        std::vector<std::uint16_t> pool = all;
        std::shuffle(pool.begin(), pool.end(), rng);
        std::vector<std::uint16_t> idxs(pool.begin(), pool.begin() + n);
        std::sort(idxs.begin(), idxs.end());
        const int out_span = trial % 3 == 0 ? 1 + trial % 2 : kPortCount;
        std::vector<int> out_of(static_cast<std::size_t>(nivc));
        for (int& o : out_of) {
          o = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(out_span)));
        }
        const std::uint64_t seed = rng();
        ASSERT_EQ(kernel_match(idxs, vcs, out_of, seed),
                  reference_match(idxs, vcs, out_of, seed))
            << "vcs " << vcs << " n " << n << " trial " << trial;
      }
    }
  }
}

TEST(SwitchAlloc, LoneRequestWins) {
  const std::vector<int> out_of(5, 4);
  // Any seed: a single request is never shuffled.
  EXPECT_EQ(kernel_match({3}, 1, out_of, 0),
            (std::vector<Winner>{{3, 3, 4}}));
}

TEST(SwitchAlloc, StopsOnceEveryRequestingInputPortIsTaken) {
  // All requests on input port 0 (vcs = 8): only the first in shuffled
  // order may win, and the walk must not look at any other request's
  // output port.
  constexpr int kVcs = 8;
  std::vector<std::uint16_t> req = {0, 1, 2, 3, 4, 5, 6, 7};
  shuffle_requests(req.data(), req.size(), 99);
  int looked = 0;
  int wins = 0;
  match_requests(
      req.data(), req.size(), 1u, VcIndexSplit(kVcs),
      [&](std::size_t) {
        ++looked;
        return 2;
      },
      [&](std::size_t idx, int in, int out) {
        ++wins;
        EXPECT_EQ(idx, req.front());
        EXPECT_EQ(in, 0);
        EXPECT_EQ(out, 2);
      });
  EXPECT_EQ(wins, 1);
  EXPECT_EQ(looked, 1);
}

}  // namespace
