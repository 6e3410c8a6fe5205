"""Command-line front end: solve, study, poisson-check, diagnose."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import RESIDUAL_PRECONDITION, nondegeneracy_gap
from .errors import ConfigError, DimensionError, LaneEmdenError, MeshError, NumericsError
from .mesh import (
    MAX_LEVEL,
    Mesh,
    build_unit_square,
    dump_mesh,
    read_mesh,
    read_tokens,
    refine_uniform,
    take_mesh,
    validate_mesh,
    write_rows,
)
from .minimizer import MinimizerConfig, solve_extremal
from .study import (
    poisson_center_value,
    poisson_rate_study,
    rows_to_csv,
    run_study,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def export_solution(mesh: Mesh, field: np.ndarray, path) -> None:
    """Mesh text format followed by a `values` section, one float per vertex."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (mesh.n_vertices,):
        raise DimensionError("field length does not match mesh")
    try:
        with open(path, "w") as f:
            dump_mesh(mesh, f)
            f.write("values\n")
            write_rows(f, "%.17g\n", field)
    except OSError as e:
        raise OSError(f"cannot write solution to {path}: {e}") from e


def import_solution(path):
    """Inverse of export_solution; returns (mesh, field)."""
    try:
        with read_tokens(path) as tokens:
            mesh = take_mesh(tokens, str(path))
            nv = mesh.n_vertices
            labelled = tokens.take(1) == ["values"]
            values = np.empty(nv)
            start = tokens.count
            error = tokens.fill(values) if labelled else None
            got = tokens.count - start
    except OSError as e:
        raise OSError(f"cannot read solution from {path}: {e}") from e
    # The mesh is validated once the last chunk is freed, and before the values.
    validate_mesh(mesh)
    if not labelled:
        raise MeshError(f"{path}: missing `values` section")
    if got < nv:
        raise MeshError(f"{path}: expected {nv} values")
    if error is not None:
        raise MeshError(f"{path}: malformed value in `values` section")
    return mesh, values


def _load_domain(domain: str, level: int) -> Mesh:
    if domain == "unit-square":
        return build_unit_square(level)
    if domain.startswith("mesh:"):
        if not 0 <= level <= MAX_LEVEL:
            raise ConfigError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        mesh = read_mesh(domain[len("mesh:"):])
        for _ in range(level):
            mesh = refine_uniform(mesh)
        return mesh
    raise ConfigError(f"unknown domain {domain!r} (use unit-square or mesh:<path>)")


def _add_solver_flags(sp):
    sp.add_argument("--p", type=float, default=4.0,
                    help="exponent of the nonlinearity |u|^(p-2) u, p > 2")
    sp.add_argument("--eta", type=float, default=0.2,
                    help="mixing weight of the accelerated iteration; "
                         "step size of the --iters-fixed descent")
    sp.add_argument("--max-iters", type=int, default=400,
                    help="cap on the accelerated steps; --iters-fixed is not capped")
    sp.add_argument("--iters-fixed", type=int, default=None,
                    help="run exactly N descent steps (published protocol: 60)")
    sp.add_argument("--quotient-tol", type=float, default=1e-10)
    sp.add_argument("--quad-degree", type=int, default=5)
    sp.add_argument("--domain", default="unit-square",
                    help="unit-square or mesh:<path> to a coarse mesh file")


def _add_output_flags(sp):
    sp.add_argument("--scaling", choices=["lambda1", "unit-norm"], default="lambda1")
    sp.add_argument("--out-dir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laneemden",
        description="P1 finite elements for Sobolev-inequality extremals "
                    "(ground states of the Lane-Emden equation) on convex polygons.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute one extremal and export it")
    _add_solver_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--level", type=int, default=5, help="refinement level")

    sp = sub.add_parser("study", help="multi-level rate study (CSV output)")
    _add_solver_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--levels", type=int, default=7, help="largest table row j")

    sp = sub.add_parser("poisson-check",
                        help="manufactured-solution validation of the linear solver")
    sp.add_argument("--levels", type=int, default=6, help="finest level")

    sp = sub.add_parser("diagnose", help="non-degeneracy gap of one extremal")
    _add_solver_flags(sp)
    sp.add_argument("--level", type=int, default=5)
    return ap


def _config_from_args(args) -> MinimizerConfig:
    return MinimizerConfig(
        p=args.p,
        eta=args.eta,
        max_iters=args.max_iters,
        quotient_tol=args.quotient_tol,
        quad_degree=args.quad_degree,
        iters_fixed=args.iters_fixed,
    )


def _stamp() -> str:
    return time.strftime("%Y%m%d-%H%M%S")


def _run(args) -> int:
    if args.command == "solve":
        config = _config_from_args(args)
        mesh = _load_domain(args.domain, args.level)
        sol = solve_extremal(mesh, config)
        field = sol.field if args.scaling == "lambda1" else sol.normalized_field
        path = Path(args.out_dir) / f"solution_p{args.p:g}_L{args.level}_{_stamp()}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)  # here: a failed run leaves none
        export_solution(mesh, field, path)
        print(f"level {args.level}  p {args.p:g}  c_h {sol.c_h:.10f}  "
              f"residual {sol.fixed_point_residual:.3e}  iters {sol.iterations}  "
              f"stop {sol.stop}  linf {sol.linf:.6f}")
        print(f"wrote {path}")
        if sol.stop == "iters_fixed" and sol.fixed_point_residual > RESIDUAL_PRECONDITION:
            print(f"warning: --iters-fixed {sol.iterations} ended at residual "
                  f"{sol.fixed_point_residual:.3e}, above the gap precondition "
                  f"{RESIDUAL_PRECONDITION}", file=sys.stderr)
        if not sol.converged:
            print("warning: iteration did not stagnate; last iterate exported",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK

    if args.command == "study":
        config = _config_from_args(args)
        rows = run_study(args.p, args.levels, config, scaling=args.scaling,
                         progress=lambda msg: print(msg, file=sys.stderr),
                         coarse=_load_domain(args.domain, 0))
        csv_text = rows_to_csv(rows)
        path = Path(args.out_dir) / f"study_p{args.p:g}_j{args.levels}_{_stamp()}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text)
        print(csv_text, end="")
        print(f"wrote {path}", file=sys.stderr)
        high = [str(r.j) for r in rows if r.residual > RESIDUAL_PRECONDITION]
        if args.iters_fixed is not None and high:
            print(f"warning: --iters-fixed {args.iters_fixed} ended rows {', '.join(high)} "
                  f"at residuals above the gap precondition {RESIDUAL_PRECONDITION}",
                  file=sys.stderr)
        unconverged = sorted({level for r in rows for level in r.unconverged})
        if unconverged:
            print(f"warning: levels {', '.join(map(str, unconverged))} did not "
                  f"stagnate within --max-iters; their rows are unreliable",
                  file=sys.stderr)
        saddles = [str(r.j) for r in rows if r.gap is not None and r.gap <= 0.0]
        if saddles:
            print(f"warning: levels {', '.join(saddles)} have a gap <= 0; their extremals "
                  f"may be degenerate and their rows unreliable", file=sys.stderr)
        return EXIT_NUMERICAL if unconverged or saddles else EXIT_OK

    if args.command == "poisson-check":
        if not 2 <= args.levels <= 9:  # rows j_min = max(1, levels - 4) < j_max = levels <= 9
            raise ConfigError(f"--levels must be in [2, 9], got {args.levels}")
        rows = poisson_rate_study(j_min=max(1, args.levels - 4), j_max=args.levels)
        print("j,err_l2,rate_l2,err_h1,rate_h1")
        for r in rows:
            rl2 = "" if r.rate_l2 is None else f"{r.rate_l2:.4f}"
            rh1 = "" if r.rate_h1 is None else f"{r.rate_h1:.4f}"
            print(f"{r.j},{r.err_l2:.6e},{rl2},{r.err_h1:.6e},{rh1}")
        center = poisson_center_value(level=min(args.levels, 6))
        print(f"center value (f=1, level {min(args.levels, 6)}): {center:.7f}")
        return EXIT_OK

    if args.command == "diagnose":
        config = _config_from_args(args)
        mesh = _load_domain(args.domain, args.level)
        sol = solve_extremal(mesh, config)
        # An --iters-fixed solve counts as converged whatever its residual.
        if not sol.converged or sol.fixed_point_residual > RESIDUAL_PRECONDITION:
            why = ("did not stagnate within --max-iters" if not sol.converged else
                   f"ended above the gap's residual precondition {RESIDUAL_PRECONDITION}")
            raise NumericsError(f"level {args.level} {why} (residual "
                                f"{sol.fixed_point_residual:.3e}); no gap computed")
        report = nondegeneracy_gap(mesh, sol, args.p, quad_degree=config.quad_degree)
        print(f"level {report.level}  p {report.p:g}  gap {report.gap:.6e}  "
              f"positive {report.positive}")
        return EXIT_OK if report.positive else EXIT_NUMERICAL

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError,) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:  # numpy's message names the allocation that failed
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO
    except MeshError as e:
        print(f"invalid mesh: {e}", file=sys.stderr)
        return EXIT_IO
    except LaneEmdenError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
