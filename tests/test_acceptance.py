"""End-to-end acceptance checks.

Each test re-derives one headline guarantee from scratch (no reuse of the
built-in verify suites except where the guarantee is about the suite itself)
and prints a single pass/fail line, so `pytest -s` reads as a checklist.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from dualpairs import (EmptyLift, IdentityViolated, NotInImage,
                       closure_leq, complexify, complex_orthogonal_space,
                       complex_symplectic_space, construct_descent_element,
                       enumerate_orbits, formed_space, generalized_descent,
                       hermitian_space, identify, in_moment_image,
                       iter_spaces, moment_maps,
                       orthogonal_space, pair_factorization,
                       quaternionic_hermitian_space, quaternionic_skew_space,
                       range_report, real_forms, realize_triple,
                       skew_hermitian_space, stabilizer, symplectic_space,
                       tableau, theta_lift, verify_dimension_identity)
from dualpairs.cycles import Cycle, cycle_leq, dim_circ, dlift_cycle
from dualpairs.oracle import (random_isometry, sample_raising_map,
                              triple_centralizer_dim)
from dualpairs.rational import inv, mul


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def complex_spaces(maxdim):
    out = [complex_orthogonal_space(n) for n in range(1, maxdim + 1)]
    out += [complex_symplectic_space(n) for n in range(2, maxdim + 1, 2)]
    return out


def image_descents(max_v, max_vp):
    for v in complex_spaces(max_v):
        for vp in complex_spaces(max_vp):
            if v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                if in_moment_image(op, v):
                    yield v, vp, op


def test_criterion_1_orbit_counts():
    t0 = time.monotonic()
    frozen = [("sp(2,C)", complex_symplectic_space(2), 2),
              ("sp(4,C)", complex_symplectic_space(4), 4),
              ("o(3,C)", complex_orthogonal_space(3), 2),
              ("o(4,C)", complex_orthogonal_space(4), 3),
              ("o(2,1)", orthogonal_space(2, 1), 2),
              ("sp(2,R)", symplectic_space(2), 3)]
    ok = True
    got = []
    for name, sp, want in frozen:
        orbs = enumerate_orbits(sp)
        got.append(f"{name}={len(orbs)}")
        ok = ok and len(orbs) == want
        # oracle brute force: realizations identify back, pairwise distinct,
        # and identification is stable under seeded random conjugation
        reals = [realize_triple(tab) for tab in orbs]
        ok = ok and len({identify(r.x, r.ambient) for r in reals}) == want
        for seed in (0, 1):
            rng = random.Random(seed)
            for tab, r in zip(orbs, reals):
                g = random_isometry(r.ambient, rng)
                xg = mul(g, mul(r.x, inv(g)))
                ok = ok and identify(xg, r.ambient) == tab
    dt = time.monotonic() - t0
    ok = ok and dt < 60
    report(1, "orbit counts match the matrix oracle, seed-stable",
           ok, ", ".join(got) + f", {dt:.1f}s")


def test_criterion_2_descent_soundness():
    t0 = time.monotonic()
    total = failed = 0
    for v, vp, op in image_descents(4, 6):
        total += 1
        d = generalized_descent(op, v)
        src = realize_triple(op)
        rm = construct_descent_element(src, v)
        x, xp = moment_maps(rm)
        good = identify(x, rm.source) == d.target
        good = good and identify(xp, rm.target) == op
        # T maps the weight-k space of V into the weight-(k+1) space of V'
        tgt = realize_triple(d.target)
        t = rm.t.ints
        for q in range(len(t[0])):
            wq = tgt.weights[q // tgt.ambient.dr]
            for p in range(len(t)):
                if t[p][q] and src.weights[p // src.ambient.dr] != wq + 1:
                    good = False
        failed += not good
    dt = time.monotonic() - t0
    ok = total > 0 and failed == 0 and dt < 180
    report(2, "descent witnesses hit both moment-map targets",
           ok, f"{total - failed}/{total} pairs, {dt:.1f}s")


def test_criterion_3_dimension_identity():
    total = failed = 0
    for v, vp, op in image_descents(4, 6):
        total += 1
        try:
            verify_dimension_identity(generalized_descent(op, v))
        except IdentityViolated:
            failed += 1
    o4 = complex_orthogonal_space(4)
    one = formed_space("C", "C", 1, dim=1)
    t31 = tableau(o4, [(3, one), (1, one)])
    rep = verify_dimension_identity(
        generalized_descent(t31, complex_symplectic_space(4)))
    inst = rep.to_json() == {"dim_g_minus1": 2, "dim_gp_minus1": 0,
                             "dim_W0": 4, "dim_ker_T": 2, "dim_one_row": 1,
                             "lhs": 2, "rhs": 2}
    ok = total > 0 and failed == 0 and inst
    report(3, "graded dimension identity, incl. 2 + 0 = 4 - 2*1 instance",
           ok, f"{total - failed}/{total} pairs")


def test_criterion_4_lift_descent_coherence():
    rng = random.Random(4)
    strict_total = strict_ok = 0
    contained = skipped = failed = 0
    pairs = [(v, vp) for v in complex_spaces(4) for vp in complex_spaces(6)
             if v.epsilon * vp.epsilon == -1]
    for v, vp in pairs:
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            d = generalized_descent(op, v)
            if d.strict:
                strict_total += 1
                strict_ok += theta_lift(d.target, vp) == op
        vr = realize_triple(enumerate_orbits(v)[0])
        vpr = realize_triple(enumerate_orbits(vp)[0])
        for _ in range(200):
            rm = sample_raising_map(vr, vpr, rng)
            x, xp = moment_maps(rm)
            try:
                lifted = theta_lift(identify(x, vr.ambient), vp)
            except EmptyLift:
                skipped += 1  # lift undefined for this orbit, nothing to say
                continue
            if closure_leq(identify(xp, vpr.ambient), lifted):
                contained += 1
            else:
                failed += 1
    ok = (strict_total > 0 and strict_ok == strict_total
          and contained > 0 and failed == 0)
    report(4, "theta_lift inverts strict descent; random maps stay in closure",
           ok, f"{strict_ok}/{strict_total} strict, {contained} contained, "
               f"{skipped} lift-undefined, {failed} escaped")


def test_criterion_5_stabilizer_factorization():
    ftotal = fok = 0
    for v, vp, op in image_descents(4, 6):
        ftotal += 1
        pf = pair_factorization(generalized_descent(op, v))
        fok += stabilizer(op).lie_dim == pf.m_xxp.lie_dim + pf.lp.lie_dim
    ototal = ook = 0
    for sp in iter_spaces(6):
        if sp.is_zero:
            continue
        for tab in enumerate_orbits(sp):
            ototal += 1
            want = stabilizer(tab).lie_dim
            ook += want == triple_centralizer_dim(realize_triple(tab))
    ok = ftotal > 0 and fok == ftotal and ototal > 0 and ook == ototal
    report(5, "dim stabilizer = dim M + dim L'; oracle centralizer agrees",
           ok, f"{fok}/{ftotal} factorizations, {ook}/{ototal} orbits")


def random_cycle(orbit, real_space, keys, rng):
    terms = tuple((k, rng.randint(0, 6)) for k in keys if rng.random() < 0.8)
    return Cycle(orbit, real_space, terms)


def test_criterion_6_cycle_transport_laws():
    rng = random.Random(6)
    sp2r, o21 = symplectic_space(2), orthogonal_space(2, 1)
    sp2c, o3c = complexify(sp2r), complexify(o21)
    directions = []
    for v_real, vp_real in ((sp2r, o21), (o21, sp2r)):
        vc, vpc = complexify(v_real), complexify(vp_real)
        for o in enumerate_orbits(vc):
            for op in enumerate_orbits(vpc):
                try:
                    if generalized_descent(op, vc).target == o:
                        directions.append((o, op, v_real, vp_real))
                except NotInImage:
                    pass
    assert {d[2].epsilon for d in directions} == {1, -1}  # both orientations
    n_cycles = rounds = add_ok = mono_ok = total_ok = 0
    for o, op, v_real, vp_real in directions:
        keys = real_forms(o.diagram(), v_real)
        if not keys:
            continue
        for _ in range(20):
            c1 = random_cycle(o, v_real, keys, rng)
            c2 = random_cycle(o, v_real, keys, rng)
            m = rng.randint(0, 4)
            d1 = dlift_cycle(o, op, c1, vp_real)
            d2 = dlift_cycle(o, op, c2, vp_real)
            add_ok += (dlift_cycle(o, op, c1 + c2, vp_real) == d1 + d2
                       and dlift_cycle(o, op, m * c1, vp_real) == m * d1)
            mono_ok += cycle_leq(d1, dlift_cycle(o, op, c1 + c2, vp_real))
            total_ok += (d1.total_multiplicity <= c1.total_multiplicity
                         and d2.total_multiplicity <= c2.total_multiplicity)
            n_cycles += 2
            rounds += 1
    ok = (n_cycles >= 100 and add_ok == rounds and mono_ok == rounds
          and total_ok == rounds)
    report(6, "dlift is additive, monotone, never creates multiplicity",
           ok, f"{n_cycles} cycles, {rounds} rounds")


def test_criterion_7_convergent_range_table():
    # dim-circle by direct substitution, two sizes per real class:
    # O(p,q): n-2   Sp(2n,R): 2n   U(p,q): 2(p+q)-1
    # Sp(p,q): 4(p+q)-1/2   O*(2n): 4n-3/2
    table = [
        (orthogonal_space(3, 2), Fraction(5 - 2)),
        (orthogonal_space(4, 1), Fraction(5 - 2)),
        (symplectic_space(4), Fraction(4)),
        (symplectic_space(2), Fraction(2)),
        (hermitian_space(2, 1), Fraction(2 * 3 - 1)),
        (skew_hermitian_space(1, 1), Fraction(2 * 2 - 1)),
        (quaternionic_hermitian_space(1, 1), Fraction(4 * 2) - Fraction(1, 2)),
        (quaternionic_hermitian_space(2, 0), Fraction(4 * 2) - Fraction(1, 2)),
        (quaternionic_skew_space(2), Fraction(4 * 2) - Fraction(3, 2)),
        (quaternionic_skew_space(3), Fraction(4 * 3) - Fraction(3, 2)),
    ]
    ok = all(dim_circ(sp) == want for sp, want in table)
    r_in = range_report(1, symplectic_space(4), orthogonal_space(5, 0))
    r_out = range_report(1, symplectic_space(4), orthogonal_space(4, 0))
    ok = ok and r_in.in_range and r_in.threshold == Fraction(3, 4)
    ok = ok and not r_out.in_range and r_out.threshold == Fraction(1)
    # threshold depends on dim V' only, not on the signature split
    ok = ok and (range_report(1, symplectic_space(4),
                              orthogonal_space(3, 2)).threshold
                 == r_in.threshold)
    report(7, "dim-circle table and nu > 2 - dimV'/dim-circle examples",
           ok, f"{len(table)} substitutions, thresholds 3/4 and 1")


GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_all_4_6.txt"


def test_criterion_8_full_verify_suite():
    """The suite passes in time, and its text report is byte-identical to
    the checked-in one: every check detail, seeded counts included, stays
    fixed unless a change means to move it."""
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-m", "dualpairs", "verify", "--suite", "all",
         "--max-dims", "4,6"],
        capture_output=True, text=True, timeout=330)
    dt = time.monotonic() - t0
    ok = res.returncode == 0 and dt < 300
    report(8, "verify --suite all --max-dims 4,6 exits 0 under 5 min",
           ok, f"exit {res.returncode}, {dt:.1f}s")
    assert res.stdout == GOLDEN_VERIFY.read_text()
