"""2-D placement of devices and walls.

The paper's experiments use simple geometries: an equilateral triangle with
2 m edges (experiments 1-2), a line of attacker positions from 1 to 10 m
(experiment 3), and positions behind a wall (wall experiment).  This module
provides points, wall segments with attenuation, and segment-intersection
tests so the medium can count the walls crossed by each radio path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.phy.path_loss import Wall


@dataclass(frozen=True)
class Point:
    """A position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class WallSegment:
    """A wall: a 2-D segment with a radio attenuation.

    Attributes:
        a: one endpoint.
        b: other endpoint.
        wall: the attenuation applied to paths crossing the segment.
    """

    a: Point
    b: Point
    wall: Wall = Wall()

    def crosses(self, p: Point, q: Point) -> bool:
        """Whether segment ``p``-``q`` properly intersects this wall.

        Uses the standard orientation test; touching endpoints count as a
        crossing (the radio path grazes the wall).
        """

        def orient(o: Point, u: Point, v: Point) -> float:
            return (u.x - o.x) * (v.y - o.y) - (u.y - o.y) * (v.x - o.x)

        d1 = orient(p, q, self.a)
        d2 = orient(p, q, self.b)
        d3 = orient(self.a, self.b, p)
        d4 = orient(self.a, self.b, q)
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
            return True

        def on_segment(o: Point, u: Point, v: Point) -> bool:
            return (
                min(o.x, u.x) - 1e-12 <= v.x <= max(o.x, u.x) + 1e-12
                and min(o.y, u.y) - 1e-12 <= v.y <= max(o.y, u.y) + 1e-12
            )

        if d1 == 0 and on_segment(p, q, self.a):
            return True
        if d2 == 0 and on_segment(p, q, self.b):
            return True
        if d3 == 0 and on_segment(self.a, self.b, p):
            return True
        if d4 == 0 and on_segment(self.a, self.b, q):
            return True
        return False


@dataclass
class Topology:
    """Device positions and walls.

    Devices are identified by name; the medium queries pairwise distances
    and crossed walls when sampling received power.

    ``version`` increases on every mutation (:meth:`place`,
    :meth:`add_wall`); consumers that cache derived geometry (the medium's
    per-pair path cache) compare it to detect staleness.
    """

    positions: dict[str, Point] = field(default_factory=dict)
    walls: list[WallSegment] = field(default_factory=list)
    version: int = field(default=0, compare=False, repr=False)

    def place(self, name: str, x: float, y: float) -> None:
        """Set (or move) a device's position."""
        self.positions[name] = Point(x, y)
        self.version += 1

    def position_of(self, name: str) -> Point:
        """Position of device ``name``."""
        try:
            return self.positions[name]
        except KeyError:
            raise ConfigurationError(f"no position for device {name!r}") from None

    def add_wall(self, ax: float, ay: float, bx: float, by: float,
                 attenuation_db: float = 8.0) -> None:
        """Add a wall segment between two points."""
        self.walls.append(
            WallSegment(Point(ax, ay), Point(bx, by), Wall(attenuation_db))
        )
        self.version += 1

    def distance(self, name_a: str, name_b: str) -> float:
        """Distance between two placed devices, in metres."""
        return self.position_of(name_a).distance_to(self.position_of(name_b))

    def walls_between(self, name_a: str, name_b: str) -> tuple[Wall, ...]:
        """Walls crossed by the direct path between two devices."""
        pa, pb = self.position_of(name_a), self.position_of(name_b)
        return tuple(w.wall for w in self.walls if w.crosses(pa, pb))

    @staticmethod
    def equilateral_triangle(names: tuple[str, str, str], edge_m: float = 2.0
                             ) -> "Topology":
        """The paper's experiment-1/2 setup: three devices, 2 m edges."""
        if edge_m <= 0:
            raise ConfigurationError(f"edge must be > 0: {edge_m}")
        topo = Topology()
        topo.place(names[0], 0.0, 0.0)
        topo.place(names[1], edge_m, 0.0)
        topo.place(names[2], edge_m / 2.0, edge_m * math.sqrt(3.0) / 2.0)
        return topo
