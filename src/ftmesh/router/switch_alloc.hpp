#pragma once
// Crossbar allocation for one router in one cycle: the per-flit inner loop
// of the switching phase.  Header-only so Network::switch_node and the
// tests run the same code.
//
// A request is a node-local input-VC index (port * vcs + vc) whose flit is
// ready to cross the crossbar.  The paper resolves conflicts at random: the
// requests are shuffled, then matched greedily under the crossbar limits of
// one flit per input port and one per output port.  Ports are tracked as
// 5-bit masks (topology::kPortCount == 5).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "ftmesh/sim/rng.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::router {

/// Splits a node-local VC index into (port, vc) without a division: the
/// port is idx * (floor(2^32 / vcs) + 1) >> 32.  That reciprocal exceeds
/// 2^32 / vcs by at most 1, so the product overshoots idx / vcs by less
/// than idx / 2^32 < 1 / vcs for every idx < 2^16 — never enough to cross
/// the next integer.  Exact for every vcs in [1, 2^16) and every 16-bit
/// index, which covers the node-local index space (Network rejects
/// kPortCount * vcs > 0xffff).
class VcIndexSplit {
 public:
  explicit VcIndexSplit(int vcs = 1) noexcept
      : vcs_(static_cast<std::uint32_t>(vcs)),
        recip_((std::uint64_t{1} << 32) / static_cast<std::uint64_t>(vcs) + 1) {
    assert(vcs >= 1 && vcs < 0x10000);
  }

  [[nodiscard]] int port(std::size_t idx) const noexcept {
    assert(idx < 0x10000);
    return static_cast<int>((static_cast<std::uint64_t>(idx) * recip_) >> 32);
  }
  [[nodiscard]] int vc(std::size_t idx) const noexcept {
    return static_cast<int>(idx - static_cast<std::size_t>(port(idx)) * vcs_);
  }

 private:
  std::uint32_t vcs_;
  std::uint64_t recip_;
};

/// Backward Fisher–Yates over the counter stream `seed`: step i (from n
/// down to 2) swaps req[i - 1] with req[j], j = the next draw below i.
/// Callers with fewer than two requests skip both the call and the seed.
inline void shuffle_requests(std::uint16_t* req, std::size_t n,
                             std::uint64_t seed) noexcept {
  sim::CounterRng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(req[i - 1], req[j]);
  }
}

/// Greedy crossbar match over the requests in their (shuffled) order: a
/// request wins iff neither its input port nor the output port
/// `out_port(idx)` is taken yet.  Calls `win(idx, in_port, out_port)` for
/// every winner, in order.  `in_ports` is the mask of input ports that hold
/// at least one request; the walk stops as soon as all of them, or all
/// five output ports, are taken — no later request could win.  A winner's
/// `win` may change only its own VC's state: `out_port` of the requests
/// after it is read after the call.
template <typename OutPort, typename Win>
inline void match_requests(const std::uint16_t* req, std::size_t n,
                           std::uint32_t in_ports, const VcIndexSplit& split,
                           OutPort&& out_port, Win&& win) {
  constexpr std::uint32_t kAllPorts = (1u << topology::kPortCount) - 1;
  std::uint32_t used_in = 0;
  std::uint32_t used_out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = req[i];
    const int in = split.port(idx);
    if ((used_in >> in) & 1u) continue;
    const int out = out_port(idx);
    if ((used_out >> out) & 1u) continue;
    used_in |= 1u << in;
    used_out |= 1u << out;
    win(idx, in, out);
    if (used_in == in_ports || used_out == kAllPorts) return;
  }
}

}  // namespace ftmesh::router
