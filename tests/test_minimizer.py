import os
import threading
import time

import numpy as np
import pytest

from laneemden import assembly, minimizer, sparse
from laneemden.errors import ConfigError, NumericsError
from laneemden.mesh import Mesh, build_unit_square, prolongate, refine_uniform
from laneemden.minimizer import (
    MinimizerConfig,
    descent_step,
    initial_guess,
    rayleigh_quotient,
    solve_extremal,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        MinimizerConfig(p=2.0)
    with pytest.raises(ConfigError):
        MinimizerConfig(p=4.0, eta=1.0)
    with pytest.raises(ConfigError):
        MinimizerConfig(p=4.0, quotient_tol=0.0)
    with pytest.raises(ConfigError):
        MinimizerConfig(p=4.0, max_iters=0)
    with pytest.raises(ConfigError):
        MinimizerConfig(p=4.0, iters_fixed=0)
    for bad in ({"p": np.nan}, {"p": np.inf}, {"eta": np.nan},
                {"quotient_tol": np.nan}, {"residual_tol": np.nan}):
        with pytest.raises(ConfigError):
            MinimizerConfig(**{"p": 4.0, **bad})


@pytest.mark.parametrize("level", [1, 2, 4])
def test_initial_guess_unit_norm(level):
    m = build_unit_square(level)
    u = initial_guess(m, 4.0)
    assert assembly.lp_norm(m, u, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(u[m.is_boundary] == 0.0)


def test_initial_guess_level1_single_value():
    m = build_unit_square(1)
    u = initial_guess(m, 4.0)
    assert np.count_nonzero(u) == 1


def test_initial_guess_scale_is_inverse_plateau_norm():
    # pre-normalization field is the interior indicator; the scale factor
    # is 1 / |chi|_Lp, checked against an independent high-degree rule
    m = build_unit_square(2)
    p = 4.0
    chi = np.zeros(m.n_vertices)
    chi[m.interior] = 1.0
    norm = assembly.lp_norm(m, chi, p, degree=12)
    u = initial_guess(m, p)
    assert u[m.interior] == pytest.approx(np.full(m.interior.size, 1.0 / norm),
                                          rel=1e-12)


def test_rayleigh_quotient_invariances():
    m = build_unit_square(3)
    u = initial_guess(m, 4.0)
    q = rayleigh_quotient(m, u, 4.0)
    for t in (2.0, -3.0, 1e-3):
        assert rayleigh_quotient(m, t * u, 4.0) == pytest.approx(q, rel=1e-12)


def test_rayleigh_quotient_zero_field():
    m = build_unit_square(2)
    with pytest.raises(ValueError):
        rayleigh_quotient(m, np.zeros(m.n_vertices), 4.0)


def test_rayleigh_quotient_sine_oracle():
    # independent evaluation: energy from per-triangle P1 gradients, L4 norm
    # from a degree-8 rule (|u|^4 of a P1 field is quartic, both exact)
    m = build_unit_square(6)
    u = np.sin(np.pi * m.vertices[:, 0]) * np.sin(np.pi * m.vertices[:, 1])
    p = 4.0

    pts = m.vertices
    energy = 0.0
    for tri in m.triangles:
        a, b, c = pts[tri]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        gb = np.array([(c[1] - a[1]) / det, -(c[0] - a[0]) / det])
        gc = np.array([-(b[1] - a[1]) / det, (b[0] - a[0]) / det])
        ga = -gb - gc
        gu = u[tri[0]] * ga + u[tri[1]] * gb + u[tri[2]] * gc
        energy += 0.5 * det * float(gu @ gu)
    rule = assembly.triangle_rule(8)
    area, _ = m.geometry
    uq = u[m.triangles] @ rule.points.T
    norm = float(area @ (np.abs(uq) ** p @ rule.weights)) ** (1.0 / p)
    oracle = np.sqrt(energy) / norm

    assert rayleigh_quotient(m, u, p) == pytest.approx(oracle, rel=1e-10)


def test_descent_step_eta_zero_is_identity():
    m = build_unit_square(2)
    u = initial_guess(m, 4.0)
    cfg = MinimizerConfig(p=4.0)
    cfg.eta = 0.0  # post-construction: the eta=0 step is an exact identity
    assert np.array_equal(descent_step(m, u, cfg), u)


def test_descent_step_decreases_quotient():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=4.0)
    u = initial_guess(m, 4.0)
    assert rayleigh_quotient(m, descent_step(m, u, cfg), 4.0) < \
        rayleigh_quotient(m, u, 4.0)


def test_descent_step_fixed_point():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=4.0)
    sol = solve_extremal(m, cfg)
    u = sol.normalized_field
    stepped = descent_step(m, u, cfg)
    assert np.abs(stepped - u).max() <= 1e-6


def test_normalized_iterate_unit_norm_each_step():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=4.0)
    u = initial_guess(m, 4.0)
    for _ in range(10):
        u = descent_step(m, u, cfg)
        assert assembly.lp_norm(m, u, 4.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [4.0, 11.0])
def test_quotient_sequence_nonincreasing(p):
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=p)
    u = initial_guess(m, p)
    q = rayleigh_quotient(m, u, p)
    for _ in range(80):
        u = descent_step(m, u, cfg)
        q_next = rayleigh_quotient(m, u, p)
        assert q_next <= q + 1e-9
        q = q_next


def _newton_oracle(mesh, p, tol=1e-13):
    """Independent damped Newton solve of K U = F(U), dense linear algebra."""
    K = assembly.assemble_stiffness(mesh).toarray()
    idx = mesh.interior
    K_int = K[np.ix_(idx, idx)]

    def residual(u_int):
        u = np.zeros(mesh.n_vertices)
        u[idx] = u_int
        F = assembly.nonlinear_load(mesh, u, p)
        return K_int @ u_int - F[idx], u

    # start from the flat guess rescaled to multiplier 1
    u_int = np.full(idx.size, 1.0)
    u_full = np.zeros(mesh.n_vertices)
    u_full[idx] = u_int
    s = (float(u_int @ (K_int @ u_int))
         / assembly.lp_norm(mesh, u_full, p) ** p) ** (1.0 / (p - 2.0))
    u_int = s * u_int

    r, u = residual(u_int)
    for _ in range(200):
        W = assembly.assemble_weighted_mass(mesh, u, p - 2.0).toarray()
        J = K_int - (p - 1.0) * W[np.ix_(idx, idx)]
        delta = np.linalg.solve(J, r)
        step = 1.0
        norm_r = np.linalg.norm(r)
        while step > 1e-10:
            trial = u_int - step * delta
            r_trial, u_trial = residual(trial)
            if np.linalg.norm(r_trial) < norm_r:
                u_int, r, u = trial, r_trial, u_trial
                break
            step *= 0.5
        else:
            break
        if np.linalg.norm(r) <= tol * max(1.0, np.linalg.norm(u_int)):
            break
    return u


def test_solve_matches_newton_oracle():
    m = build_unit_square(2)
    cfg = MinimizerConfig(p=4.0)
    sol = solve_extremal(m, cfg)
    oracle = _newton_oracle(m, 4.0)
    diff = np.linalg.norm(sol.field - oracle) / np.linalg.norm(oracle)
    assert diff <= 1e-8


def test_lambda1_identity():
    m = build_unit_square(4)
    cfg = MinimizerConfig(p=4.0)
    sol = solve_extremal(m, cfg)
    K = assembly.assemble_stiffness(m)
    energy = float(sol.field @ (K @ sol.field))
    pnorm = assembly.lp_norm(m, sol.field, 4.0) ** 4.0
    assert abs(energy - pnorm) <= 1e-10 * energy


def test_solution_fields_consistent():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=5.0)
    sol = solve_extremal(m, cfg)
    K = assembly.assemble_stiffness(m)
    s = float(sol.normalized_field @ (K @ sol.normalized_field)) ** (1.0 / (cfg.p - 2.0))
    assert sol.field == pytest.approx(s * sol.normalized_field, abs=1e-12)
    assert np.all(sol.field[m.is_boundary] == 0.0)
    assert sol.field.min() >= -1e-10 * sol.linf
    assert sol.linf == pytest.approx(np.abs(sol.field).max())
    assert sol.fixed_point_residual <= 1e-6
    assert sol.converged


def test_nestedness_of_best_constant():
    cfg = MinimizerConfig(p=4.0)
    meshes = [build_unit_square(2)]
    for _ in range(4):
        meshes.append(refine_uniform(meshes[-1]))
    c_prev = None
    u0 = None
    for m in meshes:
        sol = solve_extremal(m, cfg, u0=u0)
        if c_prev is not None:
            assert sol.c_h <= c_prev + 1e-10
        c_prev = sol.c_h
        u0 = None if m is meshes[-1] else prolongate(sol.normalized_field,
                                                     meshes[meshes.index(m) + 1])


def test_unconverged_flagged():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=4.0, max_iters=2)
    sol = solve_extremal(m, cfg)
    assert not sol.converged
    assert sol.iterations == 2


def test_iters_fixed_runs_exact_count():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=4.0, iters_fixed=7)
    sol = solve_extremal(m, cfg)
    assert sol.iterations == 7
    assert sol.converged


def test_iters_fixed_not_capped_by_max_iters():
    # max_iters (default 400) caps only the converged solve
    cfg = MinimizerConfig(p=4.0, iters_fixed=500)
    sol = solve_extremal(build_unit_square(2), cfg)
    assert sol.iterations == 500
    assert sol.stop == "iters_fixed"


def test_nan_start_raises_numerics_error():
    m = build_unit_square(2)
    u0 = np.full(m.n_vertices, np.nan)
    with pytest.raises(NumericsError):
        solve_extremal(m, MinimizerConfig(p=4.0), u0=u0)


def test_zero_start_raises_numerics_error():
    # |v|_p^p = v . F(v) = 0: the norm test runs before the root is taken
    m = build_unit_square(2)
    with pytest.raises(NumericsError):
        solve_extremal(m, MinimizerConfig(p=4.0), u0=np.zeros(m.n_vertices))


def test_one_factorization_and_no_krylov_solve_per_level(monkeypatch):
    calls = {"factor": 0, "pcg": 0}
    real_factor, real_pcg = minimizer.factor, sparse._pcg

    def counting_factor(A):
        calls["factor"] += 1
        return real_factor(A)

    def counting_pcg(*args, **kwargs):
        calls["pcg"] += 1
        return real_pcg(*args, **kwargs)

    monkeypatch.setattr(minimizer, "factor", counting_factor)
    monkeypatch.setattr(sparse, "_pcg", counting_pcg)
    sol = solve_extremal(build_unit_square(3), MinimizerConfig(p=4.0))
    assert sol.converged and sol.iterations > 1
    assert calls == {"factor": 1, "pcg": 0}


def test_geometry_computed_once_per_mesh(monkeypatch):
    computed = []
    real = Mesh.geometry.func

    def spy(mesh):
        computed.append(mesh.n_triangles)
        return real(mesh)

    monkeypatch.setattr(Mesh.geometry, "func", spy)
    m = build_unit_square(3)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    assert sol.iterations > 1
    assert computed == [m.n_triangles]
    assert not m.geometry[0].flags.writeable
    assert not m.geometry[1].flags.writeable


def test_one_load_per_step_and_no_norm_in_loop(monkeypatch):
    calls = {"load": 0, "norm": 0}
    real_load, real_norm = assembly.nonlinear_load, assembly.lp_norm

    def counting_load(*args, **kwargs):
        calls["load"] += 1
        return real_load(*args, **kwargs)

    def counting_norm(*args, **kwargs):
        calls["norm"] += 1
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(assembly, "nonlinear_load", counting_load)
    monkeypatch.setattr(assembly, "lp_norm", counting_norm)
    m = build_unit_square(3)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    # one load for the start plus one per step; the only norm is the flat guess
    assert calls == {"load": sol.iterations + 1, "norm": 1}

    calls.update(load=0, norm=0)
    sol = solve_extremal(m, MinimizerConfig(p=4.0, iters_fixed=5),
                         u0=sol.normalized_field)
    assert calls == {"load": 6, "norm": 0}


def _two_pass_descent(mesh, p, eta, steps):
    """The descent with a separate L^p renormalization before each load."""
    idx = mesh.interior
    K = assembly.assemble_stiffness(mesh)
    K_int = K.toarray()[np.ix_(idx, idx)]
    chi = np.zeros(mesh.n_vertices)
    chi[idx] = 1.0
    u = chi / assembly.lp_norm(mesh, chi, p)
    for _ in range(steps):
        energy = float(u @ (K @ u))
        F = assembly.nonlinear_load(mesh, u, p)
        w = np.zeros(mesh.n_vertices)
        w[idx] = np.linalg.solve(K_int, F[idx])
        v = u - eta * (u - energy * w)
        u = v / assembly.lp_norm(mesh, v, p)
    energy = float(u @ (K @ u))
    field = energy ** (1.0 / (p - 2.0)) * u
    return np.sqrt(energy), (field if field.sum() >= 0.0 else -field)


def test_fixed_steps_match_two_pass_descent():
    m = build_unit_square(3)
    cfg = MinimizerConfig(p=11.0, iters_fixed=60)
    sol = solve_extremal(m, cfg)
    c_h, field = _two_pass_descent(m, cfg.p, cfg.eta, 60)
    assert sol.c_h == pytest.approx(c_h, rel=1e-12)
    assert np.linalg.norm(sol.field - field) <= 1e-10 * np.linalg.norm(field)


@pytest.mark.parametrize("p", [4.0, 11.0])
def test_accelerated_solve_matches_converged_descent(p):
    # 400 plain descent steps reach the fixed point to rounding at L3
    m = build_unit_square(3)
    sol = solve_extremal(m, MinimizerConfig(p=p))
    c_h, field = _two_pass_descent(m, p, 0.2, 400)
    assert sol.converged and sol.stop == "stagnated"
    assert sol.c_h == pytest.approx(c_h, rel=1e-12)
    assert np.linalg.norm(sol.field - field) <= 1e-7 * np.linalg.norm(field)


def test_cold_solve_step_count():
    # the plain descent takes 130 steps here
    sol = solve_extremal(build_unit_square(3), MinimizerConfig(p=4.0))
    assert sol.stop == "stagnated"
    assert sol.iterations <= 40


def test_rank_deficient_history_at_level2(monkeypatch):
    # The mesh symmetries keep the 9 interior values of L2 in a 4-dimensional
    # subspace, so a full history of 5 differences is rank-deficient.
    deficient = []
    real = np.linalg.lstsq

    def spy(a, b, rcond=None):
        deficient.append(np.linalg.matrix_rank(a) < a.shape[1])
        return real(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    m = build_unit_square(2)
    cold = solve_extremal(m, MinimizerConfig(p=11.0))
    tight = MinimizerConfig(p=11.0, quotient_tol=1e-16, residual_tol=1e-14)
    sol = solve_extremal(m, tight, u0=cold.normalized_field)
    assert any(deficient)
    for s in (cold, sol):
        assert s.converged and s.stop == "stagnated"
    assert sol.iterations > 1 and sol.fixed_point_residual <= 1e-14


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_descent_leaves_blas_thread_pool_idle():
    # A BLAS call that OpenBLAS threads leaves its workers spin-waiting for
    # the next one; a descent making such calls every step burns a second
    # CPU while computing on one.
    mesh = build_unit_square(7)
    config = MinimizerConfig(p=11.0, iters_fixed=60)
    # Loading scipy's own OpenBLAS (with the first factorization) starts its
    # pool, whose worker spins once at start-up: do that outside the count.
    solve_extremal(build_unit_square(2), config)
    time.sleep(0.5)  # workers woken before this test go back to sleep
    own0, other0 = _thread_ticks()
    solve_extremal(mesh, config)
    own1, other1 = _thread_ticks()
    assert other1 - other0 <= 0.05 * (own1 - own0)
