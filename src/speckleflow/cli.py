"""Command-line front end.

Subcommands compose the pipeline: `synth` (phantom generation), `track`
(bubble tracking), `flow` (displacement estimation), `forward` (elasticity
solve), `invert` (parameter reconstruction), `eval` (field comparison) and
`render` (PGM/quiver export).  Exit codes: 0 success, 1 usage error, 2
runtime error (missing or unreadable files, malformed formats, solver
failures, running out of memory).

Lame fields on disk are directories holding `lambda.f64grid` and
`mu.f64grid`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import flow as flowmod
from . import invert as invertmod
from .config import naming_path, write_lines
from .elastic import (LameField, forward_solve, read_bc_config,
                      write_bc_config, young_modulus)
from .errors import SpeckleFlowError
from .grids import (ScalarGrid, VectorGrid, Volume, check_filter_width, read_f64grid,
                    write_f64grid)
from .linsolve import check_overflow
from .phantom import PhantomSpec, make_inclusion_phantom, make_moving_squares
from .speckle import (read_samples_csv, run_tracking, tracking_config,
                      write_samples_csv)

__all__ = ["main", "read_lame_dir", "write_lame_dir", "write_pgm"]


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise _UsageError(1)


# ---------------------------------------------------------------------------
# small formats and helpers


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM, rows written in storage order."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = v.min(), v.max()
    scaled = np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)
    byte = np.round(255.0 * scaled).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii"))
        f.write(byte.tobytes())


def write_lame_dir(path, lame: LameField) -> None:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    write_f64grid(d / "lambda.f64grid", lame.lam)
    write_f64grid(d / "mu.f64grid", lame.mu)


def read_lame_dir(path) -> LameField:
    d = Path(path)
    lam = read_f64grid(d / "lambda.f64grid", ScalarGrid)
    mu = read_f64grid(d / "mu.f64grid", ScalarGrid)
    with naming_path(path):
        return LameField(lam, mu)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_synth(args):
    spec = PhantomSpec.from_config(args.spec)
    out = Path(args.out)
    if spec.kind == "moving_squares":
        with naming_path(args.spec):
            i1, i2, true_flow, samples = make_moving_squares(spec)
        out.mkdir(parents=True, exist_ok=True)
        write_f64grid(out / "i1.f64grid", i1)
        write_f64grid(out / "i2.f64grid", i2)
        write_f64grid(out / "flow_true.f64grid", true_flow)
        write_samples_csv(out / "samples.csv", samples)
    else:
        with naming_path(args.spec):
            lame, bc, u_true, i1, i2, samples = make_inclusion_phantom(spec)
        out.mkdir(parents=True, exist_ok=True)
        write_lame_dir(out / "lame", lame)
        write_bc_config(out / "bc.cfg", bc)
        write_f64grid(out / "u_true.f64grid", u_true)
        write_f64grid(out / "i1.f64grid", i1)
        write_f64grid(out / "i2.f64grid", i2)
        write_samples_csv(out / "samples.csv", samples)
    return 0


def _cmd_track(args):
    v1 = read_f64grid(args.a, Volume)
    v2 = read_f64grid(args.b, Volume)
    crit, top_fraction, presmooth = tracking_config(args.config)
    with naming_path(args.config):
        check_filter_width(presmooth, v1.data.shape)
    samples = run_tracking(v1, v2, crit, top_fraction, presmooth)
    write_samples_csv(args.out, samples)
    return 0


def _cmd_flow(args):
    i1 = read_f64grid(args.i1, ScalarGrid)
    i2 = read_f64grid(args.i2, ScalarGrid)
    samples = read_samples_csv(args.samples) if args.samples else []
    params = flowmod.FlowParams.from_config(args.config)
    with naming_path(args.config):
        params.check_extents(i1.nx, i1.ny)
    u = flowmod.multiscale_flow(i1, i2, samples, params)
    write_f64grid(args.out, u)
    return 0


def _cmd_forward(args):
    lame = read_lame_dir(args.lame)
    bc = read_bc_config(args.bc)
    with naming_path(args.bc):
        bc.check_extents(lame.lam.nx, lame.lam.ny)
    u = forward_solve(lame, bc)
    write_f64grid(args.out, u)
    return 0


def _cmd_invert(args):
    udelta = read_f64grid(args.data, VectorGrid)
    bc = read_bc_config(args.bc)
    cfg = invertmod.InversionConfig.from_config(args.config)
    with naming_path(args.config):
        cfg.check_extents(udelta.nx, udelta.ny)
    with naming_path(args.bc):
        bc.check_extents(udelta.nx, udelta.ny)
    lame, trace = invertmod.nesterov_iterate(cfg, udelta, bc)
    young = young_modulus(lame)
    write_lame_dir(args.out, lame)
    write_f64grid(Path(args.out) / "young.f64grid", young)
    if args.trace:
        invertmod.write_trace_csv(args.trace, trace)
    return 0


def _cmd_eval(args):
    est = read_f64grid(args.est, VectorGrid)
    truth = read_f64grid(args.truth, VectorGrid)
    total, ex, ey = invertmod.field_error(est, truth)
    print(f"{total:.17g},{ex:.17g},{ey:.17g}")
    return 0


@np.errstate(over="ignore")  # named below
def _cmd_render(args):
    obj = read_f64grid(args.infile)
    out = Path(args.out)
    quiver = out.with_suffix(out.suffix + ".quiver.csv")
    if isinstance(obj, VectorGrid):
        mag = np.hypot(obj.data[:, :, 0], obj.data[:, :, 1])
        check_overflow("displacement magnitude", mag)
        write_pgm(out, mag)
        step = max(1, min(obj.nx, obj.ny) // 16)
        lines = ["x,y,ux,uy"]
        for iy in range(0, obj.ny, step):
            for ix in range(0, obj.nx, step):
                ux, uy = obj.data[iy, ix]
                lines.append(f"{ix},{iy},{ux:.17g},{uy:.17g}")
        write_lines(quiver, lines)
    else:
        write_pgm(out, np.abs(obj.data.reshape(-1, obj.nx)))
        write_lines(quiver, ["x,y,ux,uy"])
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="speckleflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate phantom data")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("track", help="bubble tracking on a volume pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("flow", help="displacement field estimation")
    p.add_argument("--i1", required=True)
    p.add_argument("--i2", required=True)
    p.add_argument("--samples", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("forward", help="linearized elasticity solve")
    p.add_argument("--lame", required=True)
    p.add_argument("--bc", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("invert", help="Lame parameter reconstruction")
    p.add_argument("--data", required=True)
    p.add_argument("--bc", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("eval", help="relative errors between two fields")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="export a field as PGM + quiver CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (OSError, SpeckleFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {args.command}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
