"""Verification suites: each re-derives a family of claims with the matrix
oracle and reports named pass/fail checks.  Deterministic for a fixed seed."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import cycles as cyc
from . import oracle, theta
from .errors import DomainError, EmptyLift, IdentityViolated, NotInImage
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
    # perf_counter at the suite's start, then at its latest check
    mark: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        now = time.perf_counter()
        self.checks.append(Check(name, bool(passed), detail, now - self.mark))
        self.mark = now

    def to_json(self) -> dict:
        return {"suite": self.suite, "seed": self.seed,
                "max_dims": list(self.max_dims), "passed": self.passed,
                "elapsed_s": self.elapsed_s,
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


def _complex_pairs(max_dims: tuple):
    for v in iter_spaces(max_dims[0], bases=("C",)):
        for vp in iter_spaces(max_dims[1], bases=("C",)):
            if v.epsilon * vp.epsilon == -1:
                yield v, vp


def _image_descents(max_dims: tuple):
    """The descent of every complex orbit O' in the moment image, once."""
    for v, vp in _complex_pairs(max_dims):
        for op in enumerate_orbits(vp):
            try:
                yield theta.generalized_descent(op, v)
            except NotInImage:
                pass


# -- suites ---------------------------------------------------------------


def suite_forms(report: SuiteReport, rng):
    bound = max(report.max_dims)
    spaces = list(iter_spaces(min(bound, 6)))
    ok = 0
    for s in spaces:
        got = oracle.classify_space(oracle.standard_gram(s).ints,
                                    s.base, s.division, s.epsilon)
        ok += got == s
    report.add("standard gram classifies back to its space", ok == len(spaces),
               f"{ok}/{len(spaces)}")
    tensor_ok = tensor_tot = 0
    for m in spaces:
        if m.dim > 2:
            continue
        for t in (1, 2, 3):
            if m.dim_f * t > 12:
                continue
            want = tensor_with_sl2(m, t)
            real = oracle.realize_triple(
                AdmissibleTableau(want, (TableauRow(t, m),)))
            got = oracle.classify_space(dense(real.ambient.gram_mono).ints,
                                        m.base, m.division,
                                        m.epsilon * (-1) ** (t - 1))
            tensor_tot += 1
            tensor_ok += got == want
    report.add("tensor_with_sl2 matches gram classification",
               tensor_ok == tensor_tot, f"{tensor_ok}/{tensor_tot}")
    compl_ok = compl_tot = 0
    for m in spaces:
        if m.base != "R" or m.division == "C":
            continue
        for t in (2, 3):
            compl_tot += 1
            compl_ok += complexify(tensor_with_sl2(m, t)) == \
                tensor_with_sl2(complexify(m), t)
    report.add("complexify commutes with tensor_with_sl2",
               compl_ok == compl_tot, f"{compl_ok}/{compl_tot}")


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
    bound = report.max_dims[1]
    spaces = list(iter_spaces(bound))
    rt_ok = rt_tot = dup_ok = 0
    for sp in spaces:
        orbs = enumerate_orbits(sp)
        dup_ok += len(set(orbs)) == len(orbs)
        for tab in orbs:
            rt_tot += 1
            r = oracle.realize_triple(tab)
            rt_ok += oracle.identify(r.x, r.ambient) == tab
    report.add("identify(realize(tab)) = tab", rt_ok == rt_tot,
               f"{rt_ok}/{rt_tot}")
    report.add("no duplicate orbits", dup_ok == len(spaces),
               f"{dup_ok}/{len(spaces)} spaces")
    conj_ok = conj_tot = 0
    for sp in frozen:
        for tab in enumerate_orbits(sp[1]):
            r = oracle.realize_triple(tab)
            g = oracle.random_isometry(r.ambient, rng)
            xg = mul(g, mul(r.x, inv(g)))
            conj_tot += 1
            conj_ok += oracle.identify(xg, r.ambient) == tab
    report.add("identify stable under random conjugation",
               conj_ok == conj_tot, f"{conj_ok}/{conj_tot}")


def _image_check(report: SuiteReport, name: str, errors, check):
    """Run check(d) on every image descent d; the detail names the first
    (V, O') whose check raised one of errors, with the error code."""
    tot = ok = 0
    first = ""
    for d in _image_descents(report.max_dims):
        tot += 1
        try:
            check(d)
            ok += 1
        except errors as exc:
            first = first or (f"; first failure V={d.target.space.render()}, "
                              f"O'={d.source.diagram()} in "
                              f"{d.source.space.render()}: {exc.code}")
    report.add(name, ok == tot, f"{ok}/{tot}{first}")


def suite_descent(report: SuiteReport, rng):
    _image_check(report, "descent witnesses verified (moment maps, degrees, kernels)",
                 DomainError, lambda d: oracle.construct_descent_element(
                     oracle.realize_triple(d.source), d.target.space))


def suite_dim_identity(report: SuiteReport, rng):
    _image_check(report, "graded dimension identity", IdentityViolated,
                 oracle.verify_dimension_identity)


def suite_lift(report: SuiteReport, rng):
    strict_tot = strict_ok = 0
    for d in _image_descents(report.max_dims):
        if not d.strict:
            continue
        strict_tot += 1
        try:
            strict_ok += theta.theta_lift(d.target, d.source.space) == d.source
        except DomainError:
            pass
    report.add("theta_lift inverts strict descents", strict_ok == strict_tot,
               f"{strict_ok}/{strict_tot}")
    checked = skipped = failed = 0
    for v, vp in _complex_pairs(report.max_dims):
        vr = oracle.realize_triple(enumerate_orbits(v)[0])
        vpr = oracle.realize_triple(enumerate_orbits(vp)[0])
        lift_cache: dict = {}
        for _ in range(200):
            rm = oracle.sample_raising_map(vr, vpr, rng)
            x, xp = oracle._moment_values(rm)
            o = oracle._identify(x, vr.ambient)
            op_id = oracle._identify(xp, vpr.ambient)
            if o not in lift_cache:
                try:
                    lift_cache[o] = theta.theta_lift(o, vp)
                except EmptyLift:
                    lift_cache[o] = None
            lifted = lift_cache[o]
            if lifted is None:
                skipped += 1
            elif closure_leq(op_id, lifted):
                checked += 1
            else:
                failed += 1
    report.add("random moment-map values stay inside the lift closure",
               failed == 0, f"{checked} contained, {skipped} lift-undefined")


def suite_stabilizer(report: SuiteReport, rng):
    tot = ok = grade_ok = dim_ok = 0
    for sp in iter_spaces(report.max_dims[1]):
        g = isometry_group(sp).lie_dim
        for tab in enumerate_orbits(sp):
            tot += 1
            real = oracle.realize_triple(tab)
            ok += stabilizer(tab).lie_dim == oracle.triple_centralizer_dim(real)
            grade_ok += graded_dims(tab) == oracle.graded_dims(real)
            dim_ok += orbit_dimension(tab) == \
                g - oracle.centralizer_dim(real.x, real.ambient)
    report.add("combinatorial stabilizer dim = oracle centralizer of (X, H)",
               ok == tot, f"{ok}/{tot}")
    report.add("weight-counted grading = oracle graded dims of ad H",
               grade_ok == tot, f"{grade_ok}/{tot}")
    report.add("orbit dimension = dim g - oracle centralizer of X",
               dim_ok == tot, f"{dim_ok}/{tot}")
    ftot = fok = 0
    for d in _image_descents(report.max_dims):
        ftot += 1
        pf = theta.pair_factorization(d)
        fine = stabilizer(d.source).lie_dim == pf.m_xxp.lie_dim + pf.lp.lie_dim
        fine = fine and stabilizer(d.target).lie_dim >= \
            pf.m_xxp.lie_dim + pf.l.lie_dim
        dw, _ = theta.reduced_pair_dims(d)
        fine = fine and dw == d.target.space.d * d.b * d.s
        fok += fine
    report.add("stabilizer factorization dim M + dim L'", fok == ftot,
               f"{fok}/{ftot}")
    wtot = wok = 0
    for sp in iter_spaces(report.max_dims[0], bases=("C",)):
        for tab in enumerate_orbits(sp):
            wtot += 1
            w = whittaker_datum(tab)
            g = isometry_group(sp).lie_dim
            fine = sum(w.grading.values()) == g
            fine = fine and all(w.grading.get(-j, 0) == dj
                                for j, dj in w.grading.items())
            fine = fine and w.dim_g_minus1 % 2 == 0
            fine = fine and w.dim_n == w.dim_u + w.dim_g_minus1
            wok += fine
    report.add("whittaker grading sums to dim g and is symmetric",
               wok == wtot, f"{wok}/{wtot}")


def _random_cycle(complex_orbit, real_space, keys, rng) -> cyc.Cycle:
    terms = tuple((k, rng.randint(0, 6)) for k in keys
                  if rng.random() < 0.8)
    return cyc.Cycle(complex_orbit, real_space, terms)


def suite_cycles(report: SuiteReport, rng):
    sp2r = symplectic_space(2)
    o21 = orthogonal_space(2, 1)
    directions = []
    for v_real, vp_real in ((sp2r, o21), (o21, sp2r)):
        vc = complexify(v_real)
        for o in enumerate_orbits(vc):
            for op in enumerate_orbits(complexify(vp_real)):
                try:
                    if theta.generalized_descent(op, vc).target == o:
                        directions.append((o, op, v_real, vp_real))
                except NotInImage:
                    pass
    n_cycles = rounds = add_ok = mono_ok = total_ok = 0
    for o, op, v_real, vp_real in directions:
        keys = real_forms(o.diagram(), v_real)
        if not keys:
            continue
        for _ in range(15):
            c1 = _random_cycle(o, v_real, keys, rng)
            c2 = _random_cycle(o, v_real, keys, rng)
            m = rng.randint(0, 4)
            d1 = cyc.dlift_cycle(o, op, c1, vp_real)
            d2 = cyc.dlift_cycle(o, op, c2, vp_real)
            add_ok += (cyc.dlift_cycle(o, op, c1 + c2, vp_real) == d1 + d2
                       and cyc.dlift_cycle(o, op, m * c1, vp_real) == m * d1)
            big = c1 + c2
            mono_ok += cyc.cycle_leq(d1, cyc.dlift_cycle(o, op, big, vp_real))
            total_ok += (d1.total_multiplicity <= c1.total_multiplicity
                         and d2.total_multiplicity <= c2.total_multiplicity)
            n_cycles += 2
            rounds += 1
    report.add("dlift additivity", add_ok == rounds, f"{add_ok}/{rounds}")
    report.add("dlift monotonicity", mono_ok == rounds, f"{mono_ok}/{rounds}")
    report.add("dlift never creates multiplicity", total_ok == rounds,
               f"{total_ok}/{rounds}")
    report.add("cycle corpus size >= 100", n_cycles >= 100, f"{n_cycles} cycles")


def suite_range(report: SuiteReport, rng):
    table = [(orthogonal_space(3, 2), Fraction(3)),          # n - 2
             (symplectic_space(4), Fraction(4)),             # 2n
             (hermitian := formed_space("R", "C", 1, signature=(2, 1)),
              Fraction(5)),                                  # 2(p+q) - 1
             (formed_space("R", "H", 1, signature=(1, 1)), Fraction(15, 2)),
             (formed_space("R", "H", -1, dim=2), Fraction(13, 2))]
    ok = sum(cyc.dim_circ(v) == want for v, want in table)
    report.add("dim-circle table (five real classes)", ok == len(table),
               f"{ok}/{len(table)}")
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
            combined.checks += [replace(c, name=f"{sub}: {c.name}")
                                for c in rep.checks]
        return combined
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    report = SuiteReport(suite=name, seed=seed, max_dims=tuple(max_dims))
    start = report.mark
    SUITES[name](report, random.Random(seed))
    report.elapsed_s = time.perf_counter() - start
    return report
