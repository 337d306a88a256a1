"""Command-line frontend with machine-readable output.

Subcommands: sturmian (M = 1 coupling multiplets), energies (M = 2 energy
multiplets), coupled (simultaneous secular system, M >= 2), wedges (decay
sectors and mirror pairs), shoot (contour shooting cross-check) and sweep
(reality-domain grid, CSV, one point after another).  The three solver
subcommands share one handler: each names the solvers function it calls,
and every one of those returns a Multiplet.  The solver tolerances are the
fixed constants the solvers read; every solver document reports them under
"tolerances".

Exit codes: 0 solutions emitted, 1 valid run with an empty result (or a
non-converged shot), 2 usage or validation error, or an --out path that
cannot be written.  JSON output is
canonical: fixed key order and %.12e floats, so parse -> re-serialize is
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__, polynomial, shooting, solvers, verify, wedges
from .model import ModelSpec, potential_coeffs

__all__ = ["main"]


# -- canonical serialization -------------------------------------------------

def _canonical(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.12e}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_dict(spec: ModelSpec) -> dict:
    return {
        "alpha": float(spec.alpha),
        "beta": float(spec.beta),
        "big_m": spec.big_m,
        "n_states": spec.n_states,
        "dimension": spec.dimension,
        "ell": spec.ell,
    }


def _sector_dict(s: wedges.Sector) -> dict:
    return {"lo": s.lo, "hi": s.hi, "center": s.center, "half_width": s.half_width}


def _pair_dict(p: wedges.WedgePair) -> dict:
    return {"index": p.index, "left": _sector_dict(p.left), "right": _sector_dict(p.right)}


def _solution_doc(spec, solutions) -> str:
    doc = {
        "spec": _spec_dict(spec),
        "solutions": solutions,
        "tolerances": {"reality": polynomial._REAL_TOLERANCE,
                       "rank": solvers._RANK_RTOL,
                       "residual": verify._RESIDUAL_TOL},
        "version": __version__,
    }
    return _canonical(doc) + "\n"


def _entry_dict(spec, entry) -> dict:
    return {
        "E": float(entry.energy),
        "d": float(entry.quadratic_coupling),
        "F": float(solvers.shifted_coupling(entry.quadratic_coupling, spec)),
        "h": [float(x) for x in entry.h],
        "residual": float(entry.recurrence_residual),
        "validated": bool(entry.validated),
    }


# -- subcommands --------------------------------------------------------------

def _build_spec(args) -> ModelSpec:
    return ModelSpec(alpha=args.alpha, beta=args.beta, big_m=args.big_m,
                     n_states=args.n_states, dimension=args.dimension, ell=args.ell)


def cmd_solve(args) -> int:
    spec = _build_spec(args)
    # looked up on the module at call time, so that a wrapper installed on
    # solvers (a tracer, a test double) is the function called
    solve = getattr(solvers, args.solver)
    solutions = [_entry_dict(spec, e) for e in solve(spec)]
    _emit(_solution_doc(spec, solutions), args.out)
    return 0 if solutions else 1


def cmd_wedges(args) -> int:
    if (args.degree is None) == (args.delta is None):
        raise ValueError("provide exactly one of --degree or --delta")
    if args.degree is not None:
        pairs, fixed = wedges.pt_pairs(args.degree)
        doc = {
            "degree": args.degree,
            "pairs": [_pair_dict(p) for p in pairs],
            "self_symmetric": [_sector_dict(s) for s in fixed],
            "version": __version__,
        }
    else:
        lp = wedges.lower_sector_pairs(args.delta)
        doc = {
            "delta": args.delta,
            "half_width": lp.half_width,
            "first": _pair_dict(lp.first),
            "second": _pair_dict(lp.second),
            "second_pair_real_compatible": lp.second_pair_real_compatible,
            "version": __version__,
        }
    _emit(_canonical(doc) + "\n", args.out)
    return 0


def cmd_shoot(args) -> int:
    # "not v > 0" rather than "v <= 0", so that NaN is rejected too
    if not args.residual_tol > 0:
        raise ValueError("--residual-tol must be positive")
    if not args.e_bound > 0:
        raise ValueError("--e-bound must be positive")
    if args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    for flag, value in (("--e-guess", args.e_guess), ("--d", args.coupling_d)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    spec = _build_spec(args)
    coeffs = potential_coeffs(spec, args.coupling_d)
    contour = shooting.Contour(epsilon=args.epsilon, x_max=args.x_max)
    result = shooting.find_eigenvalue(
        coeffs, spec.angular_momentum, args.e_guess, contour,
        residual_tol=args.residual_tol, max_iter=args.max_iter,
        e_bound=args.e_bound)
    doc = {
        "spec": _spec_dict(spec),
        "coupling_d": float(args.coupling_d),
        "contour": {"epsilon": result.contour.epsilon, "x_max": result.contour.x_max},
        "result": {
            "energy": result.energy,
            "wronskian_residual": result.wronskian_residual,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        "version": __version__,
    }
    _emit(_canonical(doc) + "\n", args.out)
    return 0 if result.converged else 1


def _sweep_point(spec_template, alpha, beta):
    spec = dataclasses.replace(spec_template, alpha=alpha, beta=beta)
    solve = solvers.sturmian_multiplet if spec.big_m == 1 else solvers.solve_energies
    multiplet = solve(spec)
    return alpha, beta, len(multiplet), all(e.validated for e in multiplet)


def cmd_sweep(args) -> int:
    if args.big_m not in (1, 2):
        raise ValueError("sweep supports M = 1 and M = 2 only")
    if args.alpha_steps < 1 or args.beta_steps < 1:
        raise ValueError("grid steps must be >= 1")
    template = ModelSpec(alpha=0.0, beta=0.0, big_m=args.big_m,
                         n_states=args.n_states, dimension=args.dimension,
                         ell=args.ell)

    def grid(lo, hi, steps):
        if steps == 1:
            return [lo]
        return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]

    points = [(a, b) for a in grid(args.alpha_min, args.alpha_max, args.alpha_steps)
              for b in grid(args.beta_min, args.beta_max, args.beta_steps)]
    rows = [_sweep_point(template, a, b) for a, b in points]
    lines = ["alpha,beta,n_real,validated"]
    for alpha, beta, n_real, ok in rows:
        lines.append(f"{alpha:.12e},{beta:.12e},{n_real},{'true' if ok else 'false'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_spec_args(p, default_m=None, m_choices_help="integer M"):
    p.add_argument("--alpha", type=float, default=0.0, help="quartic shape parameter")
    p.add_argument("--beta", type=float, default=0.0, help="quadratic shape parameter")
    if default_m is None:
        p.add_argument("-M", "--big-m", dest="big_m", type=int, required=True,
                       help=m_choices_help)
    else:
        p.add_argument("-M", "--big-m", dest="big_m", type=int, default=default_m,
                       help=m_choices_help)
    p.add_argument("-N", "--n-states", dest="n_states", type=int, required=True,
                   help="multiplet size N")
    p.add_argument("--dimension", type=int, default=3, help="spatial dimension D")
    p.add_argument("--ell", type=int, default=0, help="partial wave")


def _add_out_arg(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decadic",
        description="Exact multiplets of the spiked decadic oscillator: "
                    "solve, verify, and map the decay wedges.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sturmian", help="coupling multiplet at M = 1, E = 0")
    _add_spec_args(p, default_m=1, m_choices_help="must be 1")
    _add_out_arg(p)
    p.set_defaults(handler=cmd_solve, solver="sturmian_multiplet")

    p = sub.add_parser("energies", help="energy multiplet at M = 2 (d = E^2/4)")
    _add_spec_args(p, default_m=2, m_choices_help="must be 2")
    _add_out_arg(p)
    p.set_defaults(handler=cmd_solve, solver="solve_energies")

    p = sub.add_parser("coupled", help="simultaneous (E, d) pairs at M >= 2")
    _add_spec_args(p, m_choices_help="integer M >= 2")
    _add_out_arg(p)
    p.set_defaults(handler=cmd_solve, solver="solve_coupled")

    p = sub.add_parser("wedges", help="decay sectors and mirror pairs")
    p.add_argument("--degree", type=int, default=None,
                   help="half-degree z of exp(-x^(2z)/2z) asymptotics")
    p.add_argument("--delta", type=float, default=None,
                   help="exponent parameter of the x^2 (ix)^(2 delta) family")
    _add_out_arg(p)
    p.set_defaults(handler=cmd_wedges)

    p = sub.add_parser("shoot", help="contour-shooting eigenvalue cross-check")
    _add_spec_args(p)
    p.add_argument("--d", dest="coupling_d", type=float, required=True,
                   help="numeric quadratic coupling to insert into the potential")
    p.add_argument("--e-guess", type=float, required=True, help="starting energy")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="contour depth below the spike at r = 0; the path transits at "
                        "min(epsilon, 0.5)")
    p.add_argument("--x-max", type=float, default=None,
                   help="contour truncation; by default derived from the potential at "
                        "the starting energy (at most 4), and reported in the output")
    p.add_argument("--residual-tol", type=float, default=1e-6,
                   help="Wronskian-mismatch tolerance for convergence")
    p.add_argument("--max-iter", type=int, default=40,
                   help="cap on the Newton search's mismatch evaluations")
    p.add_argument("--e-bound", type=float, default=1e6,
                   help="abandon the search when |E| escapes this bound")
    _add_out_arg(p)
    p.set_defaults(handler=cmd_shoot)

    p = sub.add_parser("sweep", help="reality-domain grid over (alpha, beta), CSV")
    p.add_argument("-M", "--big-m", dest="big_m", type=int, default=1, help="1 or 2")
    p.add_argument("-N", "--n-states", dest="n_states", type=int, required=True)
    p.add_argument("--dimension", type=int, default=3)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, required=True)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
