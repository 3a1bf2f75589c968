"""Unit tests for topology geometry."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.topology import Point, SpatialGrid, Topology, WallSegment


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


def _scatter(n=60):
    """A deterministic pseudo-random scatter over ~50x50 m."""
    topo = Topology()
    for i in range(n):
        topo.place(f"d{i}", float((i * 17) % 53), float((i * 29) % 47))
    return topo


class TestSpatialGrid:
    def test_near_is_superset_of_devices_in_radius(self):
        # The grid guarantees a superset: walking ceil(r/cell)+1 Chebyshev
        # rings covers every cell a circle of radius r can touch.
        topo = _scatter()
        grid = SpatialGrid(topo, cell_m=10.0)
        for center_name in ("d0", "d7", "d31"):
            center = topo.position_of(center_name)
            for radius in (0.0, 5.0, 12.5, 40.0):
                near = grid.near(center, radius)
                for name, p in topo.positions.items():
                    if center.distance_to(p) <= radius:
                        assert name in near, (center_name, radius, name)

    def test_cell_size_clamped_to_minimum(self):
        topo = _scatter(4)
        grid = SpatialGrid(topo, cell_m=0.0)
        assert grid.cell_m == SpatialGrid.MIN_CELL_M

    def test_snapshot_records_topology_version(self):
        topo = _scatter(4)
        grid = SpatialGrid(topo, cell_m=5.0)
        assert grid.version == topo.version
        topo.place("d0", 1000.0, 1000.0)
        # The snapshot is stale now — consumers rebuild on version mismatch.
        assert grid.version != topo.version
        assert "d0" in grid.near(Point(0.0, 0.0), 60.0)

    def test_zero_radius_covers_own_and_adjacent_cells(self):
        topo = Topology()
        topo.place("a", 0.5, 0.5)
        topo.place("b", 1.5, 0.5)  # adjacent cell
        topo.place("c", 40.0, 40.0)
        grid = SpatialGrid(topo, cell_m=1.0)
        near = grid.near(topo.position_of("a"), 0.0)
        assert "a" in near and "b" in near and "c" not in near
