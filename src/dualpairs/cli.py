"""Command-line front end.

Each subcommand is one row of _COMMANDS: its help, the payload flags it
takes (their argparse keywords are in _FLAGS) and its runner. A runner
reads its payloads with _load and prints through _emit, which builds only
the form asked for: the JSON model under --json, the text otherwise. The
JSON is written by _dumps, byte for byte json.dumps(model, indent=2)
without json's pure-Python indenting encoder. A call that names a
subcommand first is parsed by that subcommand's parser alone.

Exit codes: 0 success, 1 malformed input (flags or JSON payloads, where
every object, nested ones included, refuses an unknown field and names a
missing one), 2 domain errors raised by the underlying operation (reported
as a machine-readable {"error": {code, message, context}} object on
stderr) and a verify run with a failing check (its report on stdout,
nothing on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import cycles as cyc
from . import theta, verify
from .errors import DomainError
from .forms import FormedSpace, isometry_group
from .orbits import (AdmissibleTableau, enumerate_orbits, orbit_dimension,
                     stabilizer, whittaker_datum)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict  # the top parser's subcommand parsers, by name

    def error(self, message):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


_FLAGS = {
    "--space": {"help": "formed space JSON ('-' = stdin)"},
    "--orbit": {"help": "tableau JSON ('-' = stdin)"},
    "--orbit-prime": {"help": "source orbit tableau JSON ('-' = stdin)"},
    "--target-space": {"help": "formed space JSON ('-' = stdin)"},
    "--real": {"action": "store_true",
               "help": "use the real-form descent (returns the target orbit "
                       "or null when not in the moment image)"},
    "--nu": {"help": "rational parameter, e.g. 3/4"},
    "--cycle": {"default": "-", "help": "cycle JSON (default: stdin)"},
}


def _load(value, what: str, from_json, noun: str):
    """from_json of the JSON payload given to flag `what` ('-' = stdin)."""
    if value is None:
        raise UsageError(f"missing required {what} payload")
    if value == "-":
        value = sys.stdin.read()
    try:
        data = json.loads(value)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for {what}: {exc}") from exc
    try:
        return from_json(data)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"invalid {noun}: {exc}") from exc


def _space(value, what: str = "--space") -> FormedSpace:
    return _load(value, what, FormedSpace.from_json, f"formed space for {what}")


def _orbit(value, what: str) -> AdmissibleTableau:
    return _load(value, what, AdmissibleTableau.from_json, f"tableau for {what}")


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


def _dumps(o, pad: str = "\n") -> str:
    """json.dumps(o, indent=2) for dicts with str keys, lists, str, int,
    float, bool and None; any other container or key raises TypeError.
    (With an indent, json.dumps runs its pure-Python encoder.)"""
    if isinstance(o, str):
        return _quote(o)
    if type(o) is int:
        return str(o)
    inner = pad + "  "
    if isinstance(o, dict):
        items = [f"{_quote(k)}: {_dumps(v, inner)}" for k, v in o.items()]
    elif isinstance(o, list):
        items = [_dumps(v, inner) for v in o]
    elif o is None or isinstance(o, (bool, int, float)):
        return json.dumps(o)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON "
                        "serializable")
    ends = "{}" if isinstance(o, dict) else "[]"
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _emit(args, model, text) -> int:
    """Print model() under --json, text() otherwise. The JSON is written
    by _dumps, byte-identical to json.dumps(model(), indent=2)."""
    print(_dumps(model()) if args.as_json else text())
    return 0


def _run_orbits(args) -> int:
    space = _space(args.space)
    orbs = enumerate_orbits(space)
    return _emit(args, lambda: [o.to_json() for o in orbs], lambda: "\n".join(
        [f"{len(orbs)} orbit(s) in {isometry_group(space).name} "
         f"on {space.render()}"] + [f"{o.render()}\n" for o in orbs]))


def _run_descend(args) -> int:
    op = _orbit(args.orbit_prime, "--orbit-prime")
    v = _space(args.target_space, "--target-space")
    if args.real:
        target = theta.k_descent(op, v)
        return _emit(args, lambda: target.to_json() if target else None,
                     lambda: target.render() if target
                     else "not in the moment image")
    res = theta.generalized_descent(op, v)
    return _emit(args, res.to_json, lambda: "\n".join([
        f"descent of {op.diagram()} to {v.render()}:",
        res.target.render(),
        f"a={res.a} b={res.b} s={res.s} strict={res.strict}",
        f"U = {res.U.render()}   U1 = {res.U1.render()}"]))


def _run_lift(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    vp = _space(args.target_space, "--target-space")
    lifted = theta.theta_lift(o, vp)
    return _emit(args, lifted.to_json, lifted.render)


def _run_stabilizer(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    stab = stabilizer(o)
    dim = orbit_dimension(o)
    return _emit(args, lambda: {"stabilizer": stab.to_json(),
                                "lie_dim": stab.lie_dim,
                                "orbit_dimension": dim},
                 lambda: f"stabilizer M_X = {stab.name} (dim {stab.lie_dim}); "
                         f"orbit dimension {dim}")


def _run_whittaker(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    w = whittaker_datum(o)
    return _emit(args, w.to_json, lambda: "\n".join([
        "  ".join(f"g[{j}]={d}" for j, d in sorted(w.grading.items())),
        f"dim_u={w.dim_u} dim_n={w.dim_n} dim_g_minus1={w.dim_g_minus1} "
        f"heisenberg={w.heisenberg_case}",
        f"M_X = {w.stabilizer.name}"]))


def _run_pair_factor(args) -> int:
    op = _orbit(args.orbit_prime, "--orbit-prime")
    v = _space(args.target_space, "--target-space")
    res = theta.generalized_descent(op, v)
    fact = theta.pair_factorization(res)
    dim_w, dim_w0 = theta.reduced_pair_dims(res)
    return _emit(args, lambda: {"factorization": fact.to_json(),
                                "dim_W": dim_w, "dim_W0": dim_w0},
                 lambda: f"M_XX' = {fact.m_xxp.name}   L = {fact.l.name}   "
                         f"L' = {fact.lp.name}\n"
                         f"dim W = {dim_w}   dim W0 = {dim_w0}")


def _run_cycle_lift(args) -> int:
    o = _orbit(args.orbit, "--orbit")
    op = _orbit(args.orbit_prime, "--orbit-prime")
    vp_real = _space(args.target_space, "--target-space")
    c = _load(args.cycle, "--cycle", cyc.Cycle.from_json, "cycle")
    out = cyc.dlift_cycle(o, op, c, vp_real)
    return _emit(args, out.to_json, out.render)


def _run_range(args) -> int:
    nu = _nu(args.nu)
    v = _space(args.space)
    vp = _space(args.target_space, "--target-space")
    rep = cyc.range_report(nu, v, vp)
    return _emit(args, rep.to_json, lambda: (
        f"dim_circ(V) = {rep.dim_circ_v}, exponent = {rep.exponent}, "
        f"threshold = {rep.threshold}\nnu = {rep.nu}: "
        + ("in the convergent range" if rep.in_range
           else "outside the convergent range")))


def _run_verify(args) -> int:
    try:
        rep = verify.run_suite(args.suite, max_dims=_max_dims(args.max_dims),
                               seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(args, rep.to_json, rep.render)
    return 0 if rep.passed else 2


_COMMANDS = {
    "orbits": ("enumerate nilpotent orbits", ("--space",), _run_orbits),
    "descend": ("generalized descent of an orbit",
                ("--orbit-prime", "--target-space", "--real"), _run_descend),
    "lift": ("theta lift of a complex orbit",
             ("--orbit", "--target-space"), _run_lift),
    "stabilizer": ("reductive stabilizer of an orbit", ("--orbit",),
                   _run_stabilizer),
    "whittaker": ("grading and Whittaker datum", ("--orbit",),
                  _run_whittaker),
    "pair-factor": ("stabilizer factorization along a descent",
                    ("--orbit-prime", "--target-space"), _run_pair_factor),
    "cycle-lift": ("transport a cycle along descent",
                   ("--orbit", "--orbit-prime", "--target-space", "--cycle"),
                   _run_cycle_lift),
    "range": ("convergent-range report",
              ("--space", "--target-space", "--nu"), _run_range),
}


@functools.cache
def build_parser() -> _Parser:
    """The shared parser: parse_args only reads it, so it is built once."""
    p = _Parser(prog="dualpairs",
                description="Combinatorics of nilpotent orbits, descent and "
                            "lift for classical dual pairs, with an "
                            "exact-rational verification oracle.")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = {}
    for name, (help_, flags, runner) in _COMMANDS.items():
        sp = p.commands[name] = sub.add_parser(name, help=help_)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON")
        sp.set_defaults(run=runner)
    vp = p.commands["verify"] = sub.add_parser(
        "verify", help="run a verification suite")
    vp.add_argument("--suite", default="all",
                    help="forms, orbit-enum, descent, dim-identity, lift, "
                         "stabilizer, cycles, range, or all")
    vp.add_argument("--max-dims", dest="max_dims", default="4,6",
                    help="dim bounds 'A,B' for the sweeps (default 4,6)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", action="store_true", dest="as_json")
    vp.set_defaults(run=_run_verify)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # after a subcommand, its parser alone reads the rest; the top parser
        # takes any other argv (empty, -h, an option, an unknown command)
        sub = parser.commands.get(argv[0]) if argv else None
        args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
        # the payload flags given '-' (a '-' for --nu is a bad rational)
        stdin = [f for f in _FLAGS if f != "--nu"
                 and getattr(args, f[2:].replace("-", "_"), None) == "-"]
        if len(stdin) > 1:
            raise UsageError("stdin holds one payload, but "
                             f"{', '.join(stdin)} ask for it")
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
