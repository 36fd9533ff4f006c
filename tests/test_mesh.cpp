// Tests for the 2-D mesh topology substrate.

#include <gtest/gtest.h>

#include "ftmesh/topology/mesh.hpp"

namespace {

using ftmesh::topology::Coord;
using ftmesh::topology::Direction;
using ftmesh::topology::Mesh;

TEST(Mesh, BasicDimensions) {
  const Mesh m(10, 10);
  EXPECT_EQ(m.width(), 10);
  EXPECT_EQ(m.height(), 10);
  EXPECT_EQ(m.node_count(), 100);
  EXPECT_EQ(m.diameter(), 18);
}

TEST(Mesh, RectangularDiameter) {
  const Mesh m(4, 7);
  EXPECT_EQ(m.diameter(), 3 + 6);
}

TEST(Mesh, RejectsDegenerateSides) {
  EXPECT_THROW(Mesh(1, 5), std::invalid_argument);
  EXPECT_THROW(Mesh(5, 0), std::invalid_argument);
}

TEST(Mesh, IdCoordRoundTrip) {
  const Mesh m(7, 5);
  for (int id = 0; id < m.node_count(); ++id) {
    EXPECT_EQ(m.id_of(m.coord_of(id)), id);
  }
}

// coord_of multiplies by a precomputed reciprocal instead of dividing; it
// must agree with % and / on every id.
TEST(Mesh, CoordOfMatchesDivisionOnEveryId) {
  for (int w = 2; w <= 17; ++w) {
    for (int h = 2; h <= 13; ++h) {
      const Mesh m(w, h);
      for (int id = 0; id < m.node_count(); ++id) {
        const Coord c = m.coord_of(id);
        ASSERT_EQ(c.x, id % w) << w << "x" << h << " id " << id;
        ASSERT_EQ(c.y, id / w) << w << "x" << h << " id " << id;
      }
    }
  }
}

TEST(Mesh, CoordOfMatchesDivisionOnWideMeshes) {
  const Mesh wide(65537, 2);
  for (const int id : {0, 1, 65535, 65536, 65537, 65538, 131072, 131073}) {
    const Coord c = wide.coord_of(id);
    EXPECT_EQ(c.x, id % 65537) << id;
    EXPECT_EQ(c.y, id / 65537) << id;
  }
  // Ids close to the largest node count a 32-bit id can hold.
  const Mesh huge(46341, 46340);
  const int last = huge.node_count() - 1;
  for (const int id : {last, last - 1, last - 46340, last - 46341,
                       46341 * 30000, 46341 * 30000 - 1}) {
    const Coord c = huge.coord_of(id);
    EXPECT_EQ(c.x, id % 46341) << id;
    EXPECT_EQ(c.y, id / 46341) << id;
  }
}

TEST(Mesh, ContainsBounds) {
  const Mesh m(3, 3);
  EXPECT_TRUE(m.contains({0, 0}));
  EXPECT_TRUE(m.contains({2, 2}));
  EXPECT_FALSE(m.contains({-1, 0}));
  EXPECT_FALSE(m.contains({0, 3}));
  EXPECT_FALSE(m.contains({3, 0}));
}

TEST(Mesh, NeighbourAtEdgeIsNull) {
  const Mesh m(3, 3);
  EXPECT_FALSE(m.neighbour({0, 0}, Direction::XMinus).has_value());
  EXPECT_FALSE(m.neighbour({0, 0}, Direction::YMinus).has_value());
  EXPECT_TRUE(m.neighbour({0, 0}, Direction::XPlus).has_value());
  EXPECT_TRUE(m.neighbour({0, 0}, Direction::YPlus).has_value());
}

TEST(Mesh, NeighbourStepMatchesDirection) {
  const Mesh m(5, 5);
  const Coord c{2, 2};
  EXPECT_EQ(m.neighbour(c, Direction::XPlus)->x, 3);
  EXPECT_EQ(m.neighbour(c, Direction::XMinus)->x, 1);
  EXPECT_EQ(m.neighbour(c, Direction::YPlus)->y, 3);
  EXPECT_EQ(m.neighbour(c, Direction::YMinus)->y, 1);
}

TEST(Mesh, MinimalDirectionsCardinality) {
  const Mesh m(10, 10);
  EXPECT_TRUE(m.minimal_directions({2, 2}, {2, 2}).empty());
  EXPECT_EQ(m.minimal_directions({2, 2}, {5, 2}).size(), 1u);
  EXPECT_EQ(m.minimal_directions({2, 2}, {2, 8}).size(), 1u);
  EXPECT_EQ(m.minimal_directions({2, 2}, {5, 8}).size(), 2u);
}

TEST(Mesh, MinimalDirectionsReduceDistance) {
  const Mesh m(8, 8);
  const Coord from{3, 4}, to{6, 1};
  for (const auto d : m.minimal_directions(from, to)) {
    EXPECT_EQ(manhattan(from.step(d), to), manhattan(from, to) - 1);
  }
}

TEST(Mesh, ColourAlternates) {
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      const Coord c{x, y};
      for (const auto d : ftmesh::topology::kAllMeshDirections) {
        EXPECT_NE(Mesh::colour(c), Mesh::colour(c.step(d)));
      }
    }
  }
}

TEST(Mesh, MinNegativeHopsMatchesWalk) {
  // Walk any minimal path and count 1->0 hops; must equal the formula.
  const Mesh m(10, 10);
  const Coord from{1, 2}, to{7, 6};
  Coord at = from;
  int neg = 0;
  while (!(at == to)) {
    const auto dirs = m.minimal_directions(at, to);
    const Coord next = at.step(dirs.front());
    if (Mesh::colour(at) == 1 && Mesh::colour(next) == 0) ++neg;
    at = next;
  }
  EXPECT_EQ(neg, Mesh::min_negative_hops(from, to));
}

TEST(Mesh, MinNegativeHopsParity) {
  EXPECT_EQ(Mesh::min_negative_hops({0, 0}, {1, 0}), 0);  // colour 0 start
  EXPECT_EQ(Mesh::min_negative_hops({1, 0}, {2, 0}), 1);  // colour 1 start
  EXPECT_EQ(Mesh::min_negative_hops({0, 0}, {2, 0}), 1);
  EXPECT_EQ(Mesh::min_negative_hops({0, 0}, {0, 0}), 0);
}

TEST(Mesh, ClassCounts10x10) {
  const Mesh m(10, 10);
  EXPECT_EQ(m.phop_classes(), 19);  // diameter + 1
  EXPECT_EQ(m.nhop_classes(), 10);  // 1 + floor(18 / 2)
}

TEST(Mesh, OppositeDirections) {
  using ftmesh::topology::opposite;
  EXPECT_EQ(opposite(Direction::XPlus), Direction::XMinus);
  EXPECT_EQ(opposite(Direction::YMinus), Direction::YPlus);
  EXPECT_EQ(opposite(Direction::Local), Direction::Local);
}

TEST(Mesh, IsPositive) {
  using ftmesh::topology::is_positive;
  EXPECT_TRUE(is_positive(Direction::XPlus));
  EXPECT_TRUE(is_positive(Direction::YPlus));
  EXPECT_FALSE(is_positive(Direction::XMinus));
  EXPECT_FALSE(is_positive(Direction::YMinus));
}

TEST(Mesh, ManhattanDistance) {
  using ftmesh::topology::manhattan;
  EXPECT_EQ(manhattan(Coord{0, 0}, Coord{3, 4}), 7);
  EXPECT_EQ(manhattan(Coord{3, 4}, Coord{0, 0}), 7);
  EXPECT_EQ(manhattan(Coord{2, 2}, Coord{2, 2}), 0);
}

}  // namespace
