#pragma once
// The 2-D mesh topology G(l, m): Cartesian product of two paths.
//
// Provides address arithmetic, minimal-direction queries, and the derived
// quantities the routing algorithms need (diameter, hop-class counts,
// negative-hop colouring).

#include <cstdint>
#include <optional>
#include <vector>

#include "ftmesh/topology/coordinates.hpp"

namespace ftmesh::topology {

class Mesh {
 public:
  /// Constructs a width x height mesh.  Both sides must be >= 2.
  Mesh(int width, int height);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int node_count() const noexcept { return width_ * height_; }

  /// Network diameter: 2(k-1) for a k x k mesh; (w-1)+(h-1) generally.
  [[nodiscard]] int diameter() const noexcept {
    return (width_ - 1) + (height_ - 1);
  }

  [[nodiscard]] bool contains(Coord c) const noexcept {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

  [[nodiscard]] NodeId id_of(Coord c) const noexcept {
    return static_cast<NodeId>(c.y * width_ + c.x);
  }

  /// {id % width, id / width} without a division: the quotient is the high
  /// word of id times the 64-bit reciprocal ceil(2^64 / width), and the
  /// remainder the high word of the low product times width (Lemire, Kaser
  /// and Kurz, "Faster remainder by direct computation", 2019) — exact for
  /// every 32-bit id and every width >= 2.  The routing and injection
  /// phases convert a node id per visited node per cycle.
  [[nodiscard]] Coord coord_of(NodeId id) const noexcept {
    const std::uint64_t low = width_recip_ * static_cast<std::uint32_t>(id);
    const auto x = static_cast<int>(
        (static_cast<__uint128_t>(low) * static_cast<std::uint32_t>(width_)) >>
        64);
    const auto y = static_cast<int>(
        (static_cast<__uint128_t>(width_recip_) * static_cast<std::uint32_t>(id)) >>
        64);
    return {x, y};
  }

  /// Neighbour of `c` in direction `d`, or nullopt at a mesh edge.
  [[nodiscard]] std::optional<Coord> neighbour(Coord c, Direction d) const noexcept {
    const Coord n = c.step(d);
    if (!contains(n)) return std::nullopt;
    return n;
  }

  /// The 1 or 2 directions that reduce Manhattan distance from `from` to
  /// `to`.  Empty when from == to.
  [[nodiscard]] std::vector<Direction> minimal_directions(Coord from, Coord to) const;

  /// Like minimal_directions but writes into a fixed-size buffer; returns the
  /// count.  Hot-path variant used by the routers each cycle.
  int minimal_directions_into(Coord from, Coord to,
                              std::array<Direction, 2>& out) const noexcept;

  /// Two-colouring label for the Negative-Hop scheme: colour(c) = (x+y) mod 2.
  /// A hop from label 1 to label 0 is a "negative" hop.
  [[nodiscard]] static int colour(Coord c) noexcept { return (c.x + c.y) & 1; }

  /// Minimum number of negative hops on any minimal path from `from` to
  /// `to` under the checkerboard colouring: each consecutive pair of hops
  /// contains exactly one negative hop, so it is floor(distance/2) when
  /// starting on colour 1 (first hop negative) rounding differs with parity.
  [[nodiscard]] static int min_negative_hops(Coord from, Coord to) noexcept;

  /// Number of buffer classes PHop needs: diameter + 1.
  [[nodiscard]] int phop_classes() const noexcept { return diameter() + 1; }

  /// Number of buffer classes NHop needs: 1 + floor(diameter / 2).
  [[nodiscard]] int nhop_classes() const noexcept { return 1 + diameter() / 2; }

 private:
  int width_;
  int height_;
  std::uint64_t width_recip_;  ///< ceil(2^64 / width_), see coord_of
};

}  // namespace ftmesh::topology
