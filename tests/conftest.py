import os
import threading
from pathlib import Path

import numpy as np
import pytest

from laneemden import assembly
from laneemden.mesh import Mesh


@pytest.fixture
def reference_triangle() -> Mesh:
    """Single triangle (0,0), (1,0), (0,1); all vertices flagged boundary."""
    return Mesh(
        level=0,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        is_boundary=np.array([True, True, True]),
        parents=np.full((3, 2), -1, dtype=np.int64),
    )


@pytest.fixture
def weighted_mass_degrees(monkeypatch) -> list:
    """Quadrature degree of every assemble_weighted_mass call, in call order."""
    degrees = []
    real = assembly.assemble_weighted_mass

    def spy(mesh, w, exponent, degree=5, **kwargs):
        degrees.append(degree)
        return real(mesh, w, exponent, degree, **kwargs)

    monkeypatch.setattr(assembly, "assemble_weighted_mass", spy)
    return degrees


@pytest.fixture(scope="session")
def triangle_path() -> Path:
    """Mesh file of the equilateral triangle of side 1 split into 4 by its
    edge midpoints: all 6 vertices on the boundary, none interior."""
    return Path(__file__).parent / "data" / "triangle.mesh"


@pytest.fixture(scope="session")
def lshape_path() -> Path:
    """Mesh file of the L-shape [0,2]^2 minus [1,2]x[0,1]: its 8 corners on
    the unit grid, all on the boundary, and its 3 unit squares cut into 6
    triangles along their southwest-northeast diagonals but the middle one."""
    return Path(__file__).parent / "data" / "lshape.mesh"


@pytest.fixture(scope="session")
def hexagon_text():
    """Mesh text of the unit regular hexagon fanned around its centre
    (vertex 0, the only interior vertex), rotated by the angle theta."""
    def build(theta: float = 0.0) -> str:
        angles = theta + np.arange(6) * (np.pi / 3)
        ring = [f"{x!r} {y!r} 1" for x, y in zip(np.cos(angles).tolist(),
                                                   np.sin(angles).tolist())]
        fan = [f"0 {k} {k % 6 + 1}" for k in range(1, 7)]
        return "\n".join(["7 6", "0.0 0.0 0", *ring, *fan]) + "\n"

    return build


def _thread_ticks():
    """CPU clock ticks (user + system) of the calling thread and of the
    process's other threads together."""
    me = threading.get_native_id()
    own = other = 0
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                stat = f.read()
        except FileNotFoundError:  # the thread exited
            continue
        fields = stat[stat.rindex(")") + 2:].split()  # fields from 3 (state) on
        ticks = int(fields[11]) + int(fields[12])     # utime, stime
        if int(tid) == me:
            own += ticks
        else:
            other += ticks
    return own, other


@pytest.fixture
def thread_ticks():
    """The function (own, other) = thread_ticks(): CPU clock ticks of the
    calling thread and of the process's other threads (Linux /proc only)."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    return _thread_ticks
