import os
import subprocess
import sys
from pathlib import Path

import laneemden

# Modules that the package imports only where they are needed: each costs
# every entry point start-up time and resident memory.
LAZY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.fft", "scipy.special")


def _lazy_modules_loaded(code: str) -> list:
    """The LAZY modules loaded after running code in a fresh interpreter."""
    src = str(Path(laneemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code += f"\nimport sys; print(' '.join(m for m in {LAZY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_all_names_resolve():
    assert len(set(laneemden.__all__)) == len(laneemden.__all__)
    assert [name for name in laneemden.__all__ if not hasattr(laneemden, name)] == []


def test_import_does_not_load_sparse_linalg():
    # scipy.sparse.linalg costs every entry point ~0.05 s of start-up; only
    # the factorizations need it, and they import it when called.  The
    # other lazy modules stay unloaded as well.
    assert _lazy_modules_loaded("import laneemden") == []


def test_mesh_io_round_trip_loads_no_lazy_module(tmp_path, hexagon_text):
    # read, refine and prolongate, export and import, as the hexagon-io benchmark does
    coarse = tmp_path / "hexagon.txt"
    coarse.write_text(hexagon_text(0.3))
    code = f"""
import numpy as np
from laneemden import cli, mesh
m = mesh.read_mesh({str(coarse)!r})
field = np.linspace(0.0, 1.0, m.n_vertices)
for _ in range(4):
    m = mesh.refine_uniform(m)
    field = mesh.prolongate(field, m)
cli.export_solution(m, field, {str(tmp_path / "solution.txt")!r})
cli.import_solution({str(tmp_path / "solution.txt")!r})
"""
    assert _lazy_modules_loaded(code) == []


def test_solve_on_the_square_loads_no_lazy_module():
    # The square's systems go by sine transforms (numpy.fft), with no factor.
    code = """
from laneemden import MinimizerConfig, build_unit_square, solve_extremal
solve_extremal(build_unit_square(3), MinimizerConfig(p=4.0))
"""
    assert _lazy_modules_loaded(code) == []


def test_paper_protocol_loads_no_lazy_module():
    # The fixed-step protocol takes one gap, at L2, by sine transforms.
    code = """
from laneemden import MinimizerConfig, run_study
run_study(11, 6, MinimizerConfig(p=11, iters_fixed=60), scaling="unit-norm")
"""
    assert _lazy_modules_loaded(code) == []


def test_study_on_the_square_loads_no_lazy_module():
    # Its gaps at L2-L4 take only solves with the stiffness, by sine
    # transforms: the linearized operator is never factored.
    code = """
from laneemden import run_study
run_study(4, 4)
"""
    assert _lazy_modules_loaded(code) == []


def test_gap_on_the_l2_square_loads_no_lazy_module():
    code = """
from laneemden import MinimizerConfig, build_unit_square, nondegeneracy_gap, solve_extremal
m = build_unit_square(2)
assert nondegeneracy_gap(m, solve_extremal(m, MinimizerConfig(p=4.0))) > 0.0
"""
    assert _lazy_modules_loaded(code) == []
