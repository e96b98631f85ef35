"""Verification suites: each re-derives a family of claims with the matrix
oracle and reports named pass/fail checks.  Deterministic for a fixed seed."""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import cycles as cyc
from . import oracle, theta
from .errors import DomainError
from .forms import (complexify, complex_orthogonal_space,
                    complex_symplectic_space, formed_space, isometry_group,
                    iter_spaces, orthogonal_space, symplectic_space,
                    tensor_with_sl2)
from .orbits import (AdmissibleTableau, TableauRow, closure_leq,
                     enumerate_orbits, graded_dims, orbit_dimension,
                     real_forms, stabilizer, whittaker_datum)
from .rational import dense, inv, mul


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    elapsed_s: float = 0.0  # wall time since the suite's previous check

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "elapsed_s": self.elapsed_s}


@dataclass
class SuiteReport:
    suite: str
    seed: int
    max_dims: tuple
    checks: list = field(default_factory=list)
    elapsed_s: float = 0.0  # wall time of the suite, shown in JSON only
    # hits and misses of oracle._identify's, theta._descent's and
    # theta._lift's caches, shown in JSON only
    identify_cache: Counter = field(default_factory=Counter)
    descent_cache: Counter = field(default_factory=Counter)
    lift_cache: Counter = field(default_factory=Counter)
    # perf_counter at the suite's start, then at its latest check
    mark: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        now = time.perf_counter()
        self.checks.append(Check(name, bool(passed), detail, now - self.mark))
        self.mark = now

    def tally(self, name: str, cases: list, check, unit: str = ""):
        """Add a check counted over cases.  A case fails when check(case)
        returns False or raises a DomainError; the detail names the first
        failing case, with the error's code when one was raised."""
        ok, first = 0, ""
        for case in cases:
            try:
                passed, code = check(case) is not False, ""
            except DomainError as exc:
                passed, code = False, f": {exc.code}"
            ok += passed
            if not (passed or first):
                first = f"; first failure {_label(case)}{code}"
        self.add(name, ok == len(cases), f"{ok}/{len(cases)}{unit}{first}")

    def to_json(self) -> dict:
        return {"suite": self.suite, "seed": self.seed,
                "max_dims": list(self.max_dims), "passed": self.passed,
                "elapsed_s": self.elapsed_s,
                "identify_cache": dict(self.identify_cache),
                "descent_cache": dict(self.descent_cache),
                "lift_cache": dict(self.lift_cache),
                "checks": [c.to_json() for c in self.checks]}

    def render(self) -> str:
        lines = [f"suite {self.suite} (seed={self.seed}, "
                 f"max_dims={self.max_dims[0]},{self.max_dims[1]})"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  {mark}  {c.name}{detail}")
        lines.append(("all checks passed" if self.passed else "FAILURES present")
                     + f" ({len(self.checks)} checks)")
        return "\n".join(lines)


def _label(case) -> str:
    """How a counted check names a failing case."""
    if isinstance(case, tuple):
        return ", ".join(map(_label, case))
    if isinstance(case, theta.DescentResult):
        return (f"V={case.target.space.render()}, O'={case.source.diagram()} "
                f"in {case.source.space.render()}")
    if isinstance(case, oracle.MatrixRealization):
        case = case.tableau
    if isinstance(case, AdmissibleTableau):
        return f"{case.diagram()} in {case.space.render()}"
    return case.render() if hasattr(case, "render") else str(case)


def _complex_pairs(max_dims: tuple):
    for v in iter_spaces(max_dims[0], bases=("C",)):
        for vp in iter_spaces(max_dims[1], bases=("C",)):
            if v.epsilon * vp.epsilon == -1:
                yield v, vp


def _image_descents(max_dims: tuple) -> list:
    """The descent of every complex orbit O' in the moment image, read off
    theta._descent's cached verdict, which is None outside the image."""
    return [d for v, vp in _complex_pairs(max_dims)
            for op in enumerate_orbits(vp)
            if (d := theta._descent(op, v)) is not None]


# -- suites ---------------------------------------------------------------


def suite_forms(report: SuiteReport, rng):
    spaces = list(iter_spaces(min(max(report.max_dims), 6)))
    report.tally("standard gram classifies back to its space", spaces,
                 lambda s: oracle.classify_space(
                     oracle.standard_gram(s).ints, s.base, s.division,
                     s.epsilon) == s)

    def tensor_classifies(case) -> bool:
        m, t = case
        want = tensor_with_sl2(m, t)
        real = oracle.realize_triple(
            AdmissibleTableau(want, (TableauRow(t, m),)))
        return oracle.classify_space(dense(real.ambient.gram_mono).ints,
                                     m.base, m.division,
                                     m.epsilon * (-1) ** (t - 1)) == want

    report.tally("tensor_with_sl2 matches gram classification",
                 [(m, t) for m in spaces if m.dim <= 2
                  for t in (1, 2, 3) if m.dim_f * t <= 12], tensor_classifies)
    report.tally("complexify commutes with tensor_with_sl2",
                 [(m, t) for m in spaces if m.base == "R" and m.division != "C"
                  for t in (2, 3)],
                 lambda c: complexify(tensor_with_sl2(*c))
                 == tensor_with_sl2(complexify(c[0]), c[1]))


def suite_orbit_enum(report: SuiteReport, rng):
    frozen = [("sp(2,C)", complex_symplectic_space(2), 2),
              ("sp(4,C)", complex_symplectic_space(4), 4),
              ("o(3,C)", complex_orthogonal_space(3), 2),
              ("o(4,C)", complex_orthogonal_space(4), 3),
              ("o(2,1)", orthogonal_space(2, 1), 2),
              ("sp(2,R)", symplectic_space(2), 3)]
    for name, sp, want in frozen:
        got = len(enumerate_orbits(sp))
        report.add(f"orbit count {name} = {want}", got == want, f"got {got}")
    orbits_of = {sp: enumerate_orbits(sp)
                 for sp in iter_spaces(report.max_dims[1])}
    report.tally("identify(realize(tab)) = tab",
                 [tab for orbs in orbits_of.values() for tab in orbs],
                 lambda tab: oracle.identify(
                     (r := oracle.realize_triple(tab)).x, r.ambient) == tab)
    report.tally("no duplicate orbits", list(orbits_of),
                 lambda sp: len(set(orbits_of[sp])) == len(orbits_of[sp]),
                 unit=" spaces")

    def conjugation_stable(tab) -> bool:
        r = oracle.realize_triple(tab)
        g = oracle.random_isometry(r.ambient, rng)
        return oracle.identify(mul(g, mul(r.x, inv(g))), r.ambient) == tab

    report.tally("identify stable under random conjugation",
                 [tab for _, sp, _ in frozen for tab in enumerate_orbits(sp)],
                 conjugation_stable)


def suite_descent(report: SuiteReport, rng):
    report.tally("descent witnesses verified (moment maps, degrees, kernels)",
                 _image_descents(report.max_dims),
                 lambda d: oracle.construct_descent_element(
                     oracle.realize_triple(d.source), d.target.space))


def suite_dim_identity(report: SuiteReport, rng):
    report.tally("graded dimension identity", _image_descents(report.max_dims),
                 oracle.verify_dimension_identity)


def suite_lift(report: SuiteReport, rng):
    report.tally("theta_lift inverts strict descents",
                 [d for d in _image_descents(report.max_dims) if d.strict],
                 lambda d: theta.theta_lift(d.target, d.source.space)
                 == d.source)
    checked = skipped = failed = 0
    for v, vp in _complex_pairs(report.max_dims):
        vr = oracle.realize_triple(enumerate_orbits(v)[0])
        vpr = oracle.realize_triple(enumerate_orbits(vp)[0])
        for _ in range(200):
            rm = oracle.sample_raising_map(vr, vpr, rng)
            x, xp = oracle._moment_values(rm)
            o = oracle._identify(x, vr.ambient)
            op_id = oracle._identify(xp, vpr.ambient)
            lifted = theta._lift(o, vp)
            if lifted is None:
                skipped += 1
            elif closure_leq(op_id, lifted):
                checked += 1
            else:
                failed += 1
    report.add("random moment-map values stay inside the lift closure",
               failed == 0, f"{checked} contained, {skipped} lift-undefined")


def _factorizes(d) -> bool:
    pf = theta.pair_factorization(d)
    return (stabilizer(d.source).lie_dim == pf.m_xxp.lie_dim + pf.lp.lie_dim
            and stabilizer(d.target).lie_dim >= pf.m_xxp.lie_dim + pf.l.lie_dim)


def _whittaker_symmetric(tab) -> bool:
    w = whittaker_datum(tab)
    return (sum(w.grading.values()) == isometry_group(tab.space).lie_dim
            and all(w.grading.get(-j, 0) == dj for j, dj in w.grading.items())
            and w.dim_g_minus1 % 2 == 0)


def suite_stabilizer(report: SuiteReport, rng):
    # one realization per tableau, shared by the three oracle checks
    reals = [oracle.realize_triple(tab)
             for sp in iter_spaces(report.max_dims[1])
             for tab in enumerate_orbits(sp)]
    report.tally("combinatorial stabilizer dim = oracle centralizer of (X, H)",
                 reals, lambda r: stabilizer(r.tableau).lie_dim
                 == oracle.triple_centralizer_dim(r))
    report.tally("weight-counted grading = oracle graded dims of ad H", reals,
                 lambda r: graded_dims(r.tableau) == oracle.graded_dims(r))
    report.tally("orbit dimension = dim g - oracle centralizer of X", reals,
                 lambda r: orbit_dimension(r.tableau)
                 == isometry_group(r.tableau.space).lie_dim
                 - oracle._centralizer_nullity(r.ambient.classes, r.x))
    report.tally("stabilizer factorization dim M + dim L'",
                 _image_descents(report.max_dims), _factorizes)
    report.tally("whittaker grading sums to dim g and is symmetric",
                 [tab for sp in iter_spaces(report.max_dims[0], bases=("C",))
                  for tab in enumerate_orbits(sp)], _whittaker_symmetric)


def _random_cycle(complex_orbit, real_space, keys, rng) -> cyc.Cycle:
    terms = tuple((k, rng.randint(0, 6)) for k in keys
                  if rng.random() < 0.8)
    return cyc.Cycle(complex_orbit, real_space, terms)


def suite_cycles(report: SuiteReport, rng):
    # a round (O', V'_R, c1, c2, m): two random cycles over O and a scalar,
    # drawn in that order, 15 rounds per descent pair (O', O)
    sp2r, o21 = symplectic_space(2), orthogonal_space(2, 1)
    rounds = []
    for v_real, vp_real in ((sp2r, o21), (o21, sp2r)):
        vc = complexify(v_real)
        for o in enumerate_orbits(vc):
            keys = real_forms(o.diagram(), v_real)
            for op in enumerate_orbits(complexify(vp_real)):
                if keys and (d := theta._descent(op, vc)) is not None \
                        and d.target == o:
                    rounds += [(op, vp_real, _random_cycle(o, v_real, keys, rng),
                                _random_cycle(o, v_real, keys, rng),
                                rng.randint(0, 4)) for _ in range(15)]
    lift = functools.cache(cyc.dlift_cycle)  # each cycle is lifted once

    def lifts(r) -> list:  # of c1, c2, c1 + c2 and m * c1
        op, vp_real, c1, c2, m = r
        return [lift(c1.complex_orbit, op, c, vp_real)
                for c in (c1, c2, c1 + c2, m * c1)]

    report.tally("dlift additivity", rounds, lambda r: (
        (d := lifts(r))[2] == d[0] + d[1] and d[3] == r[4] * d[0]))
    report.tally("dlift monotonicity", rounds,
                 lambda r: cyc.cycle_leq((d := lifts(r))[0], d[2]))
    report.tally("dlift never creates multiplicity", rounds, lambda r: all(
        d.total_multiplicity <= c.total_multiplicity
        for d, c in zip(lifts(r), r[2:4])))
    report.add("cycle corpus size >= 100", 2 * len(rounds) >= 100,
               f"{2 * len(rounds)} cycles")


def suite_range(report: SuiteReport, rng):
    table = [(orthogonal_space(3, 2), Fraction(3)),          # n - 2
             (symplectic_space(4), Fraction(4)),             # 2n
             (formed_space("R", "C", 1, signature=(2, 1)),
              Fraction(5)),                                  # 2(p+q) - 1
             (formed_space("R", "H", 1, signature=(1, 1)), Fraction(15, 2)),
             (formed_space("R", "H", -1, dim=2), Fraction(13, 2))]
    report.tally("dim-circle table (five real classes)", table,
                 lambda case: cyc.dim_circ(case[0]) == case[1])
    r1 = cyc.range_report(1, symplectic_space(4), orthogonal_space(5, 0))
    r2 = cyc.range_report(1, symplectic_space(4), orthogonal_space(4, 0))
    report.add("range example (nu=1, sp4, o5) in range",
               r1.in_range and r1.threshold == Fraction(3, 4),
               f"threshold {r1.threshold}")
    report.add("range example (nu=1, sp4, o4) out of range",
               not r2.in_range and r2.threshold == 1,
               f"threshold {r2.threshold}")
    v = symplectic_space(4)
    thresholds = [cyc.range_report(1, v, orthogonal_space(n, 0)).threshold
                  for n in range(1, 7)]
    report.add("threshold strictly decreasing in dim V'",
               all(a > b for a, b in zip(thresholds, thresholds[1:])))


SUITES = {"forms": suite_forms,
          "orbit-enum": suite_orbit_enum,
          "descent": suite_descent,
          "dim-identity": suite_dim_identity,
          "lift": suite_lift,
          "stabilizer": suite_stabilizer,
          "cycles": suite_cycles,
          "range": suite_range}


def run_suite(name: str, max_dims: tuple = (4, 6), seed: int = 0) -> SuiteReport:
    if name == "all":
        combined = SuiteReport(suite="all", seed=seed, max_dims=tuple(max_dims))
        for sub in SUITES:
            rep = run_suite(sub, max_dims=max_dims, seed=seed)
            combined.elapsed_s += rep.elapsed_s
            combined.identify_cache.update(rep.identify_cache)
            combined.descent_cache.update(rep.descent_cache)
            combined.lift_cache.update(rep.lift_cache)
            combined.checks += [replace(c, name=f"{sub}: {c.name}")
                                for c in rep.checks]
        return combined
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    report = SuiteReport(suite=name, seed=seed, max_dims=tuple(max_dims))
    counted = ((report.identify_cache, oracle._identify),
               (report.descent_cache, theta._descent),
               (report.lift_cache, theta._lift))
    before = [cache.cache_info() for _, cache in counted]
    start = report.mark
    SUITES[name](report, random.Random(seed))
    report.elapsed_s = time.perf_counter() - start
    for (counts, cache), was in zip(counted, before):
        now = cache.cache_info()
        counts.update(hits=now.hits - was.hits, misses=now.misses - was.misses)
    return report
