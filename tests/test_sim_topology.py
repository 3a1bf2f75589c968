"""Unit tests for topology geometry."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.topology import Point, Topology, WallSegment


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(-3, 7)
        assert a.distance_to(b) == b.distance_to(a)


class TestWallSegment:
    def test_crossing_detected(self):
        wall = WallSegment(Point(0, -1), Point(0, 1))
        assert wall.crosses(Point(-1, 0), Point(1, 0))

    def test_parallel_paths_do_not_cross(self):
        wall = WallSegment(Point(0, -1), Point(0, 1))
        assert not wall.crosses(Point(1, -1), Point(1, 1))

    def test_path_short_of_wall(self):
        wall = WallSegment(Point(5, -1), Point(5, 1))
        assert not wall.crosses(Point(0, 0), Point(4, 0))

    def test_path_missing_wall_extent(self):
        wall = WallSegment(Point(0, 1), Point(0, 2))
        assert not wall.crosses(Point(-1, 0), Point(1, 0))

    def test_touching_endpoint_counts(self):
        wall = WallSegment(Point(0, 0), Point(0, 2))
        assert wall.crosses(Point(-1, 0), Point(0, 0))


class TestTopology:
    def test_place_and_distance(self):
        topo = Topology()
        topo.place("a", 0, 0)
        topo.place("b", 0, 5)
        assert topo.distance("a", "b") == 5.0

    def test_replace_moves_device(self):
        topo = Topology()
        topo.place("a", 0, 0)
        topo.place("a", 10, 0)
        topo.place("b", 0, 0)
        assert topo.distance("a", "b") == 10.0

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology().position_of("ghost")

    def test_walls_between(self):
        topo = Topology()
        topo.place("a", -2, 0)
        topo.place("b", 2, 0)
        topo.add_wall(0, -10, 0, 10, attenuation_db=7.5)
        walls = topo.walls_between("a", "b")
        assert len(walls) == 1
        assert walls[0].attenuation_db == 7.5

    def test_no_walls_between_same_side(self):
        topo = Topology()
        topo.place("a", 1, 0)
        topo.place("b", 2, 0)
        topo.add_wall(0, -10, 0, 10)
        assert topo.walls_between("a", "b") == ()

    def test_equilateral_triangle_edges(self):
        topo = Topology.equilateral_triangle(("x", "y", "z"), edge_m=2.0)
        assert topo.distance("x", "y") == pytest.approx(2.0)
        assert topo.distance("y", "z") == pytest.approx(2.0)
        assert topo.distance("x", "z") == pytest.approx(2.0)

    def test_equilateral_invalid_edge(self):
        with pytest.raises(ConfigurationError):
            Topology.equilateral_triangle(("x", "y", "z"), edge_m=0.0)

    def test_version_bumps_on_place_and_wall(self):
        topo = Topology()
        v0 = topo.version
        topo.place("a", 0, 0)
        v1 = topo.version
        topo.add_wall(0, -1, 0, 1)
        v2 = topo.version
        assert v0 != v1 and v1 != v2
