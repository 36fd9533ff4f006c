#pragma once
// Per-virtual-channel state of the wormhole router.
//
// The network stores these records in flat arrays indexed by
// node * 5 * vcs + port * vcs + vc (see Network).  Input VCs hold the ring
// cursor of their flit buffer plus the head message's pipeline stage and
// reserved output; output VCs track downstream ownership (wormhole
// reservation from header until tail) and credit-based flow control.
// Both records are 8 bytes, so a router's 5 * vcs channels of each kind
// are a few contiguous cache lines.

#include <cstdint>

#include "ftmesh/router/flit.hpp"
#include "ftmesh/router/flit_ring.hpp"
#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::router {

/// Stage of the message at the head of an input VC buffer.
enum class IvcStage : std::uint8_t {
  Idle = 0,       ///< no message (or head flit not yet examined)
  RouteWait = 1,  ///< header at head, waiting for an output VC
  Active = 2,     ///< output VC reserved; flits stream through the switch
};

struct InputVc {
  RingCursor ring;  ///< into the VC's buffer_depth flit slots
  IvcStage stage = IvcStage::Idle;
  topology::Direction out_dir = topology::Direction::Local;
  std::int16_t out_vc = -1;

  [[nodiscard]] bool empty() const noexcept { return ring.count == 0; }

  void release() noexcept {
    stage = IvcStage::Idle;
    out_vc = -1;
    out_dir = topology::Direction::Local;
  }
};
static_assert(sizeof(InputVc) == 8, "InputVc must stay a dense 8-byte record");

struct OutputVc {
  std::uint16_t credits = 0;  ///< free downstream slots (<= buffer depth)
  /// Node-local index (port * vcs + vc) of the input VC holding the VC;
  /// meaningful only while allocated.
  std::uint16_t holder = 0;
  /// Slot of the worm holding the VC; kInvalidMessage while free.
  MessageSlot owner = kInvalidMessage;

  [[nodiscard]] bool allocated() const noexcept {
    return owner != kInvalidMessage;
  }
};
static_assert(sizeof(OutputVc) == 8, "OutputVc must stay a dense 8-byte record");

}  // namespace ftmesh::router
