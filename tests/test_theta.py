from collections import Counter

import pytest

from dualpairs import (AdmissibleTableau, BoundExceeded, DomainError,
                       EmptyLift, IncompatiblePair, NotEmbeddable, NotInImage,
                       TableauRow, UnsupportedRealClosure, closure_leq,
                       complex_orthogonal_space, complex_symplectic_space,
                       enumerate_orbits, formed_space, generalized_descent,
                       in_moment_image, iter_spaces, k_descent,
                       orthogonal_space, pair_factorization,
                       reduced_pair_dims, symplectic_space, tableau,
                       theta_lift, zero_orbit)
from dualpairs.theta import _descent, _lift, add_column
from helpers import raised_twice

SP2 = complex_symplectic_space(2)
SP4 = complex_symplectic_space(4)
O1 = complex_orthogonal_space(1)
O2 = complex_orthogonal_space(2)
O3 = complex_orthogonal_space(3)
O4 = complex_orthogonal_space(4)


def ctab(space, rows):
    return tableau(space, [(t, formed_space("C", "C", e, dim=m))
                           for t, e, m in rows])


T22 = ctab(SP4, [(2, 1, 2)])
T4 = ctab(SP4, [(4, 1, 1)])
T211 = ctab(SP4, [(2, 1, 1), (1, -1, 2)])
T31_O4 = ctab(O4, [(3, 1, 1), (1, 1, 1)])
REG2 = ctab(SP2, [(2, 1, 1)])


def test_in_moment_image():
    assert in_moment_image(T22, O2)
    assert not in_moment_image(T4, O2)
    for v in (O1, O2, O3):
        assert in_moment_image(zero_orbit(SP4), v)
    with pytest.raises(IncompatiblePair):
        in_moment_image(T22, SP2)  # same-type pair
    with pytest.raises(IncompatiblePair):
        in_moment_image(T22, symplectic_space(2))  # mixed base


def test_descent_22_to_zero():
    res = generalized_descent(T22, O2)
    assert res.target == zero_orbit(O2)
    assert res.a == 2 and res.b == 0 and res.s == 0
    assert res.strict


def test_descent_31_to_sp2():
    res = generalized_descent(T31_O4, SP2)
    assert res.target == REG2
    assert (res.a, res.b, res.s) == (0, 0, 1)
    assert res.strict


def test_descent_31_to_sp4():
    res = generalized_descent(T31_O4, SP4)
    assert res.target == T211
    assert res.b == 2 and not res.strict
    # Ker T is a symplectic plane, pinned by Witt cancellation
    assert res.U == formed_space("C", "C", -1, dim=2)


def test_descent_not_in_image():
    with pytest.raises(NotInImage):
        generalized_descent(T4, O2)


def test_descent_result_invariants():
    for v, vp in [(O2, SP4), (O3, SP4), (SP2, O4), (SP4, O4), (SP2, O3)]:
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            res = generalized_descent(op, v)
            assert res.source == op and res.target.space == v
            assert res.a == res.U1.dim
            assert res.U.dim == res.a + res.b
            assert res.s == op.diagram().count(1)
            # 2-rows become the 1^a part of the padding, so erase to t >= 3
            erased = sorted((t - 1 for t in op.diagram() if t >= 3),
                            reverse=True)
            expect = tuple(sorted(erased + [1] * (res.a + res.b),
                                  reverse=True))
            assert res.target.diagram() == expect
            for row in res.target.rows:
                if row.t >= 2:
                    assert op.mult_of(row.t + 1) == row.mult
            assert res.strict == (res.b == 0)


def test_theta_lift_examples():
    assert theta_lift(REG2, O4) == T31_O4
    assert theta_lift(zero_orbit(O2), SP4) == T22
    assert theta_lift(zero_orbit(O1), SP2) == REG2
    with pytest.raises(EmptyLift):
        theta_lift(REG2, O1)
    with pytest.raises(UnsupportedRealClosure):
        real = enumerate_orbits(symplectic_space(2))[0]
        theta_lift(real, orthogonal_space(2, 1))


def test_add_column_inverts_descent():
    assert add_column(REG2, O4, formed_space("C", "C", -1, dim=0)) == T31_O4
    with pytest.raises(NotEmbeddable):
        add_column(zero_orbit(O2), SP2, O2)  # a 2-row of O(2,C) needs dim 4
    tot = 0
    for v in iter_spaces(4):
        for vp in iter_spaces(6):
            if v.tag()[:2] != vp.tag()[:2] or v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                if in_moment_image(op, v):
                    res = generalized_descent(op, v)
                    assert add_column(res.target, vp, res.U1) == op
                    tot += 1
    assert tot > 400


def _lift_or_code(lift, o, vp):
    try:
        return lift(o, vp)
    except DomainError as exc:
        return exc.code


def _searched_lift(o, vp):
    """The lift by search: every orbit over vp whose descent is o, resolved
    to its unique closure maximum."""
    found = [op for op in enumerate_orbits(vp)
             if in_moment_image(op, o.space)
             and generalized_descent(op, o.space).target == o]
    if not found:
        raise EmptyLift("no orbit descends to the given one")
    tops = [op for op in found if all(closure_leq(c, op) for c in found)]
    assert len(tops) == 1
    return tops[0]


def test_theta_lift_matches_the_search_over_every_orbit():
    cases = [(o, vp) for v in iter_spaces(8, bases=("C",))
             for vp in iter_spaces(10, bases=("C",))
             if v.epsilon * vp.epsilon == -1 for o in enumerate_orbits(v)]
    cases.append((REG2, complex_orthogonal_space(14)))  # bound_exceeded
    cases.append((REG2, complex_symplectic_space(4)))  # incompatible_pair
    assert len(cases) == 447
    outcomes = set()
    for o, vp in cases:
        got = _lift_or_code(theta_lift, o, vp)
        assert got == _lift_or_code(_searched_lift, o, vp), (o, vp)
        outcomes.add(got if isinstance(got, str) else "lifted")
    assert outcomes == {"lifted", "empty_lift", "bound_exceeded",
                        "incompatible_pair"}


def test_theta_lift_bounds_the_orbit_space():
    # both spaces are bounded, the source as well as the target
    o13 = zero_orbit(complex_orthogonal_space(13))
    with pytest.raises(BoundExceeded, match="exceeds dimension bound") as exc:
        theta_lift(o13, SP2)
    assert exc.value.context == {"dim_f": 13, "bound": 12}


def test_lift_descent_round_trip():
    pairs = [(O1, SP2), (O2, SP2), (O3, SP2), (O1, SP4), (O2, SP4),
             (O3, SP4), (SP2, O2), (SP2, O3), (SP2, O4), (SP4, O4)]
    for v, vp in pairs:
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            res = generalized_descent(op, v)
            lifted = theta_lift(res.target, vp)
            assert closure_leq(op, lifted)
            if res.strict:
                assert lifted == op


def test_moment_image_monotone_under_closure():
    for v, vp in [(O2, SP4), (SP2, O4)]:
        orbs = enumerate_orbits(vp)
        for op in orbs:
            if not in_moment_image(op, v):
                continue
            for smaller in orbs:
                if closure_leq(smaller, op):
                    assert in_moment_image(smaller, v)


def test_k_descent_real_example():
    o21 = orthogonal_space(2, 1)
    sp2r = symplectic_space(2)
    op = tableau(o21, [(3, formed_space("R", "R", 1, signature=(1, 0)))])
    got = k_descent(op, sp2r)
    assert got == tableau(sp2r,
                          [(2, formed_space("R", "R", 1, signature=(1, 0)))])


def test_k_descent_embedding_obstruction():
    sp4r = symplectic_space(4)
    op = tableau(sp4r, [(2, formed_space("R", "R", 1, signature=(2, 0)))])
    assert k_descent(op, orthogonal_space(2, 0)) == \
        zero_orbit(orthogonal_space(2, 0))
    assert k_descent(op, orthogonal_space(1, 1)) is None


def test_k_descent_zero_orbit():
    sp2r = symplectic_space(2)
    v = orthogonal_space(2, 1)
    assert k_descent(zero_orbit(sp2r), v) == zero_orbit(v)
    with pytest.raises(IncompatiblePair):
        k_descent(zero_orbit(SP2), v)


def test_k_descent_is_the_image_test_then_the_descent():
    """On every real pair with dims <= (4, 6), k_descent is the descent
    target when the orbit lies in the moment image and None otherwise."""
    count = 0
    for v in iter_spaces(4, bases=("R",)):
        for vp in iter_spaces(6, bases=("R",)):
            if v.division != vp.division or v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                want = generalized_descent(op, v).target \
                    if in_moment_image(op, v) else None
                assert k_descent(op, v) == want
                count += want is not None
    assert count == 416


def test_k_descent_agrees_with_complex_diagrams():
    from dualpairs import complexify, complexify_tableau
    for v in [orthogonal_space(2, 1), orthogonal_space(1, 2),
              symplectic_space(2), symplectic_space(4)]:
        for vp in [orthogonal_space(2, 1), orthogonal_space(3, 1),
                   symplectic_space(2), symplectic_space(4)]:
            if v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                got = k_descent(op, v)
                if got is None:
                    continue
                cres = generalized_descent(complexify_tableau(op),
                                           complexify(v))
                assert complexify_tableau(got).diagram() == \
                    cres.target.diagram()


def test_pair_factorization_examples():
    f = pair_factorization(generalized_descent(T31_O4, SP4))
    assert (f.m_xxp.name, f.l.name, f.lp.name) == \
        ("O(1,C)", "Sp(2,C)", "O(1,C)")
    assert f.l_space == formed_space("C", "C", -1, dim=2)
    assert f.lp_space == formed_space("C", "C", 1, dim=1)

    f = pair_factorization(generalized_descent(T22, O2))
    assert f.m_xxp.name == "O(2,C)"
    assert f.l.name == "1" and f.lp.name == "1"

    f = pair_factorization(generalized_descent(zero_orbit(SP4), O3))
    assert f.m_xxp.name == "1"
    assert f.l.name == "O(3,C)"
    assert f.lp.name == "Sp(4,C)"


def test_factorization_dimension_checks():
    from dualpairs import stabilizer
    for v, vp in [(O2, SP4), (O3, SP4), (SP2, O4), (SP2, O3), (SP4, O4)]:
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            res = generalized_descent(op, v)
            f = pair_factorization(res)
            assert stabilizer(op).lie_dim == f.m_xxp.lie_dim + f.lp.lie_dim
            assert stabilizer(res.target).lie_dim >= \
                f.m_xxp.lie_dim + f.l.lie_dim


def test_reduced_pair_dims():
    assert reduced_pair_dims(generalized_descent(T31_O4, SP4)) == (2, 4)
    strict = generalized_descent(T31_O4, SP2)
    assert reduced_pair_dims(strict)[0] == 0
    zres = generalized_descent(zero_orbit(SP4), O2)
    w, w0 = reduced_pair_dims(zres)
    assert w == 2 * 4
    assert w0 == 2 * 4  # both sides concentrated in weight 0


def test_cached_descent_equals_the_uncached_one():
    """On every (O', V) with dims <= (4, 6), over C and R, the cached
    _descent gives what its undecorated function gives, on a first call and
    on a second: the descent, or None for the orbits outside the moment
    image."""
    outcomes = Counter()
    for v in iter_spaces(4):
        for vp in iter_spaces(6):
            if (v.base, v.division) != (vp.base, vp.division) \
                    or v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                want = _descent.__wrapped__(op, v)
                for _ in range(2):
                    assert _descent(op, v) == want
                outcomes[type(want).__name__] += 1
    # 67 complex and 416 real descents, as witness-sweep counts them
    assert outcomes == {"DescentResult": 483, "NoneType": 323}


def test_descent_errors_are_raised_on_every_call():
    """generalized_descent raises each error again on every call; the one
    entry cached is the verdict that T4 lies outside the moment image of
    O2, read again by the second call."""
    _descent.cache_clear()
    bad = AdmissibleTableau(SP4, (TableauRow(2, O1),))  # blocks sum to dim 2
    cases = [((T22, SP2), "incompatible_pair", "spaces do not form a dual pair"),
             ((T4, O2), "not_in_image", "orbit is not in the moment-map image"),
             ((bad, O2), "not_admissible",
              "tensor blocks do not sum to the ambient space")]
    for args, code, message in cases:
        error = raised_twice(generalized_descent, *args)
        assert (error["code"], error["message"]) == (code, message)
    info = _descent.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    assert _descent(T4, O2) is None


def test_lift_errors_are_raised_on_every_call():
    """theta_lift raises each error again on every call, and only the
    verdict that O1 has no room for a lift of REG2 is cached: the errors
    above the verdict leave the cache as they find it, and the second
    EmptyLift is raised on the cached None."""
    _lift.cache_clear()
    bad = AdmissibleTableau(SP4, (TableauRow(2, O1),))  # blocks sum to dim 2
    cases = [((zero_orbit(symplectic_space(2)), orthogonal_space(2, 0)),
              "unsupported_real_closure"),
             ((T22, SP2), "incompatible_pair"),
             ((REG2, complex_orthogonal_space(14)), "bound_exceeded"),
             ((bad, O4), "not_admissible")]
    for args, code in cases:
        assert raised_twice(theta_lift, *args)["code"] == code
    assert _lift.cache_info().currsize == 0
    error = raised_twice(theta_lift, REG2, O1)
    assert error == {"code": "empty_lift",
                     "message": "no orbit descends to the given one",
                     "context": {"orbit": "(2,)", "space": O1.render()}}
    info = _lift.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    assert _lift(REG2, O1) is None


def test_lift_and_real_descent_errors_carry_their_messages():
    with pytest.raises(UnsupportedRealClosure,
                       match="^orbit lift needs the complex closure order$"):
        theta_lift(zero_orbit(symplectic_space(2)), orthogonal_space(2, 0))
    with pytest.raises(BoundExceeded, match="^space exceeds dimension bound$"):
        theta_lift(REG2, complex_orthogonal_space(14))
    with pytest.raises(IncompatiblePair,
                       match="^real descent needs base R on both sides$"):
        k_descent(T22, O2)
