"""Command-line front end.

Exit codes: 0 success, 1 malformed input (flags or JSON payloads),
2 domain errors raised by the underlying operation (reported as a
machine-readable {"error": {code, message, context}} object on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cycles as cyc
from . import theta, verify
from .errors import DomainError
from .forms import FormedSpace, isometry_group
from .orbits import (AdmissibleTableau, enumerate_orbits, orbit_dimension,
                     stabilizer, whittaker_datum)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def _read_payload(value, what: str):
    if value is None:
        raise UsageError(f"missing required {what} payload")
    if value == "-":
        value = sys.stdin.read()
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for {what}: {exc}") from exc


def _space(value, what: str = "--space") -> FormedSpace:
    data = _read_payload(value, what)
    try:
        return FormedSpace.from_json(data)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"invalid formed space for {what}: {exc}") from exc


def _orbit(value, what: str) -> AdmissibleTableau:
    data = _read_payload(value, what)
    try:
        return AdmissibleTableau.from_json(data)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"invalid tableau for {what}: {exc}") from exc


def _cycle(value) -> cyc.Cycle:
    data = _read_payload(value, "--cycle")
    try:
        return cyc.Cycle.from_json(data)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"invalid cycle: {exc}") from exc


def _nu(value) -> Fraction:
    if value is None:
        raise UsageError("range requires --nu")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational for --nu: {value!r}") from exc


def _max_dims(value) -> tuple:
    try:
        parts = [int(p) for p in value.split(",")]
        if len(parts) != 2 or min(parts) < 0:
            raise ValueError
        return tuple(parts)
    except ValueError:
        raise UsageError(f"--max-dims expects 'A,B', got {value!r}") from None


@functools.cache
def build_parser() -> _Parser:
    """The shared parser: parse_args only reads it, so it is built once."""
    p = _Parser(prog="dualpairs",
                description="Combinatorics of nilpotent orbits, descent and "
                            "lift for classical dual pairs, with an "
                            "exact-rational verification oracle.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, space=False, orbit=False, orbit_prime=False,
               target=False, real=False, nu=False, cycle=False):
        if space:
            sp.add_argument("--space", help="formed space JSON ('-' = stdin)")
        if orbit:
            sp.add_argument("--orbit", help="tableau JSON ('-' = stdin)")
        if orbit_prime:
            sp.add_argument("--orbit-prime", dest="orbit_prime",
                            help="source orbit tableau JSON ('-' = stdin)")
        if target:
            sp.add_argument("--target-space", dest="target_space",
                            help="formed space JSON ('-' = stdin)")
        if real:
            sp.add_argument("--real", action="store_true",
                            help="use the real-form descent (returns the "
                                 "target orbit or null when not in the "
                                 "moment image)")
        if nu:
            sp.add_argument("--nu", help="rational parameter, e.g. 3/4")
        if cycle:
            sp.add_argument("--cycle", default="-",
                            help="cycle JSON (default: stdin)")
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON")

    common(sub.add_parser("orbits", help="enumerate nilpotent orbits"),
           space=True)
    common(sub.add_parser("descend", help="generalized descent of an orbit"),
           orbit_prime=True, target=True, real=True)
    common(sub.add_parser("lift", help="theta lift of a complex orbit"),
           orbit=True, target=True)
    common(sub.add_parser("stabilizer", help="reductive stabilizer of an orbit"),
           orbit=True)
    common(sub.add_parser("whittaker", help="grading and Whittaker datum"),
           orbit=True)
    common(sub.add_parser("pair-factor",
                          help="stabilizer factorization along a descent"),
           orbit_prime=True, target=True)
    common(sub.add_parser("cycle-lift", help="transport a cycle along descent"),
           orbit=True, orbit_prime=True, target=True, cycle=True)
    common(sub.add_parser("range", help="convergent-range report"),
           space=True, target=True, nu=True)
    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", default="all",
                    help="forms, orbit-enum, descent, dim-identity, lift, "
                         "stabilizer, cycles, range, or all")
    vp.add_argument("--max-dims", dest="max_dims", default="4,6",
                    help="dim bounds 'A,B' for the sweeps (default 4,6)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", action="store_true", dest="as_json")
    return p


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _run_orbits(args) -> int:
    space = _space(args.space)
    orbs = enumerate_orbits(space)
    if args.as_json:
        _emit([o.to_json() for o in orbs])
        return 0
    print(f"{len(orbs)} orbit(s) in {isometry_group(space).name} "
          f"on {space.render()}")
    for o in orbs:
        print(o.render())
        print()
    return 0


def _run_descend(args) -> int:
    op = _orbit(args.orbit_prime, "--orbit-prime")
    v = _space(args.target_space, "--target-space")
    if args.real:
        target = theta.k_descent(op, v)
        if args.as_json:
            _emit(target.to_json() if target else None)
        else:
            print(target.render() if target else "not in the moment image")
        return 0
    res = theta.generalized_descent(op, v)
    if args.as_json:
        _emit(res.to_json())
        return 0
    print(f"descent of {op.diagram()} to {v.render()}:")
    print(res.target.render())
    print(f"a={res.a} b={res.b} s={res.s} strict={res.strict}")
    print(f"U = {res.U.render()}   U1 = {res.U1.render()}")
    return 0


def _run_lift(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    vp = _space(args.target_space, "--target-space")
    lifted = theta.theta_lift(o, vp)
    if args.as_json:
        _emit(lifted.to_json())
    else:
        print(lifted.render())
    return 0


def _run_stabilizer(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    stab = stabilizer(o)
    payload = {"stabilizer": stab.to_json(), "lie_dim": stab.lie_dim,
               "orbit_dimension": orbit_dimension(o)}
    if args.as_json:
        _emit(payload)
    else:
        print(f"stabilizer M_X = {stab.name} (dim {stab.lie_dim}); "
              f"orbit dimension {payload['orbit_dimension']}")
    return 0


def _run_whittaker(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    w = whittaker_datum(o)
    if args.as_json:
        _emit(w.to_json())
        return 0
    grading = "  ".join(f"g[{j}]={d}" for j, d in sorted(w.grading.items()))
    print(grading)
    print(f"dim_u={w.dim_u} dim_n={w.dim_n} dim_g_minus1={w.dim_g_minus1} "
          f"heisenberg={w.heisenberg_case}")
    print(f"M_X = {w.stabilizer.name}")
    return 0


def _run_pair_factor(args) -> int:
    op = _orbit(args.orbit_prime, "--orbit-prime")
    v = _space(args.target_space, "--target-space")
    res = theta.generalized_descent(op, v)
    fact = theta.pair_factorization(res)
    dim_w, dim_w0 = theta.reduced_pair_dims(res)
    payload = {"factorization": fact.to_json(),
               "dim_W": dim_w, "dim_W0": dim_w0}
    if args.as_json:
        _emit(payload)
        return 0
    print(f"M_XX' = {fact.m_xxp.name}   L = {fact.l.name}   L' = {fact.lp.name}")
    print(f"dim W = {dim_w}   dim W0 = {dim_w0}")
    return 0


def _run_cycle_lift(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    op = _orbit(args.orbit_prime, "--orbit-prime")
    vp_real = _space(args.target_space, "--target-space")
    c = _cycle(args.cycle)
    out = cyc.dlift_cycle(o, op, c, vp_real)
    if args.as_json:
        _emit(out.to_json())
    else:
        print(out.render())
    return 0


def _run_range(args) -> int:
    nu = _nu(args.nu)
    v = _space(args.space)
    vp = _space(args.target_space, "--target-space")
    rep = cyc.range_report(nu, v, vp)
    if args.as_json:
        _emit(rep.to_json())
    else:
        print(f"dim_circ(V) = {rep.dim_circ_v}, exponent = {rep.exponent}, "
              f"threshold = {rep.threshold}")
        print(f"nu = {rep.nu}: " +
              ("in the convergent range" if rep.in_range
               else "outside the convergent range"))
    return 0


def _run_verify(args) -> int:
    try:
        rep = verify.run_suite(args.suite, max_dims=_max_dims(args.max_dims),
                               seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.as_json:
        _emit(rep.to_json())
    else:
        print(rep.render())
    return 0 if rep.passed else 2


_RUNNERS = {"orbits": _run_orbits, "descend": _run_descend, "lift": _run_lift,
            "stabilizer": _run_stabilizer, "whittaker": _run_whittaker,
            "pair-factor": _run_pair_factor, "cycle-lift": _run_cycle_lift,
            "range": _run_range, "verify": _run_verify}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
