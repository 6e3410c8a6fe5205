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
        parent_vertex=np.full(3, -1, dtype=np.int64),
        parent_edge=np.full((3, 2), -1, dtype=np.int64),
        parent_nv=0,
        h=np.sqrt(2.0),
    )


@pytest.fixture
def weighted_mass_degrees(monkeypatch) -> list:
    """Quadrature degree of every assemble_weighted_mass call, in call order."""
    degrees = []
    real = assembly.assemble_weighted_mass

    def spy(mesh, w, exponent, degree=5):
        degrees.append(degree)
        return real(mesh, w, exponent, degree)

    monkeypatch.setattr(assembly, "assemble_weighted_mass", spy)
    return degrees
