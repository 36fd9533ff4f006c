#include "ftmesh/topology/mesh.hpp"

#include <stdexcept>

namespace ftmesh::topology {

Mesh::Mesh(int width, int height)
    : width_(width),
      height_(height),
      width_recip_(width >= 2 ? ~std::uint64_t{0} /
                                        static_cast<std::uint64_t>(width) +
                                    1
                              : 0) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("Mesh sides must be >= 2");
  }
}

std::vector<Direction> Mesh::minimal_directions(Coord from, Coord to) const {
  std::array<Direction, 2> buf{};
  const int n = minimal_directions_into(from, to, buf);
  return {buf.begin(), buf.begin() + n};
}

int Mesh::minimal_directions_into(Coord from, Coord to,
                                  std::array<Direction, 2>& out) const noexcept {
  int n = 0;
  if (to.x > from.x) out[n++] = Direction::XPlus;
  else if (to.x < from.x) out[n++] = Direction::XMinus;
  if (to.y > from.y) out[n++] = Direction::YPlus;
  else if (to.y < from.y) out[n++] = Direction::YMinus;
  return n;
}

int Mesh::min_negative_hops(Coord from, Coord to) noexcept {
  // Under the checkerboard colouring labels strictly alternate along any
  // path, so every minimal path takes the same number of negative
  // (1 -> 0) hops: ceil(d/2) when starting on colour 1, floor(d/2) on 0.
  const int d = manhattan(from, to);
  return colour(from) == 1 ? (d + 1) / 2 : d / 2;
}

}  // namespace ftmesh::topology
