from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs import (BadShape, Cycle, IncomparableSupports, IncompatiblePair,
                       NonpositiveDimCirc, NotDescentPair, NotInImage,
                       complex_orthogonal_space, complex_symplectic_space,
                       complexify, cycle_leq, dlift_cycle, enumerate_orbits,
                       equality_hypotheses, formed_space,
                       generalized_descent, hermitian_space, in_moment_image,
                       isometry_group, iter_spaces, orthogonal_space,
                       quaternionic_hermitian_space, quaternionic_skew_space,
                       range_report, real_forms, skew_hermitian_space,
                       symplectic_space, tableau, zero_cycle, zero_orbit)
from dualpairs.cycles import dim_circ

SP2C = complex_symplectic_space(2)
O3C = complex_orthogonal_space(3)
SP2R = symplectic_space(2)
O21 = orthogonal_space(2, 1)


def rtab(space, t, sig):
    return tableau(space, [(t, formed_space("R", "R", 1, signature=sig))])


O_SP = tableau(SP2C, [(2, formed_space("C", "C", 1, dim=1))])
OP_O3 = tableau(O3C, [(3, formed_space("C", "C", 1, dim=1))])
PLUS = rtab(SP2R, 2, (1, 0))
MINUS = rtab(SP2R, 2, (0, 1))


def mk_cycle(terms):
    return Cycle(O_SP, SP2R, tuple(terms))


def test_cycle_normalization_and_accessors():
    c = mk_cycle([(MINUS, 5), (PLUS, 2)])
    assert [t.rows[0].mult.signature for t, _ in c.terms] == [(1, 0), (0, 1)]
    assert c.multiplicity(PLUS) == 2 and c.multiplicity(MINUS) == 5
    assert c.total_multiplicity == 7
    assert not c.is_zero
    z = zero_cycle(O_SP, SP2R)
    assert z.is_zero and z.terms == ()
    assert mk_cycle([(PLUS, 0)]).is_zero


def test_cycle_validation():
    with pytest.raises(BadShape, match="^complex_orbit must live over base C$"):
        Cycle(PLUS, SP2R, ())
    with pytest.raises(BadShape, match="^real ambient space must be a real "
                                       "or quaternionic form$"):
        Cycle(O_SP, SP2C, ())
    with pytest.raises(BadShape, match="^real ambient space does not "
                                       "complexify to the orbit's space$"):
        Cycle(O_SP, symplectic_space(4), ())
    with pytest.raises(BadShape, match="^multiplicities must be non-negative "
                                       "integers$"):
        Cycle(O_SP, SP2R, ((PLUS, -1),))
    # a bool is no multiplicity: to_json would write "mult": true, which
    # from_json refuses
    with pytest.raises(BadShape, match="^multiplicities must be non-negative "
                                       "integers$"):
        Cycle(O_SP, SP2R, ((PLUS, True),))
    with pytest.raises(BadShape, match="^term lives over the wrong real "
                                       "space$"):
        Cycle(O_SP, SP2R, ((rtab(symplectic_space(4), 2, (2, 0)), 1),))
    # diagram (1,1) does not complexify to the supporting orbit (2,)
    with pytest.raises(BadShape, match="^term diagram does not complexify to "
                                       "the complex orbit$"):
        Cycle(O_SP, SP2R, ((zero_orbit(SP2R), 1),))
    with pytest.raises(BadShape, match="^duplicate term$"):
        Cycle(O_SP, SP2R, ((PLUS, 1), (PLUS, 2)))


def test_cycle_arithmetic():
    a = mk_cycle([(PLUS, 2)])
    b = mk_cycle([(PLUS, 1), (MINUS, 4)])
    s = a + b
    assert s.multiplicity(PLUS) == 3 and s.multiplicity(MINUS) == 4
    assert (2 * a).multiplicity(PLUS) == 4
    assert (0 * b).is_zero
    for m in (-1, Fraction(1, 2), True):
        with pytest.raises(BadShape, match="^cycle multiplier must be a "
                                           "non-negative integer$"):
            m * a


def test_cycle_incomparable():
    other = Cycle(OP_O3, O21, ())
    with pytest.raises(IncomparableSupports,
                       match="^cycles live over different data$"):
        mk_cycle([]) + other
    with pytest.raises(IncomparableSupports,
                       match="^cycles live over different data$"):
        cycle_leq(mk_cycle([]), other)


def test_cycle_leq():
    a = mk_cycle([(PLUS, 1)])
    b = mk_cycle([(PLUS, 2), (MINUS, 1)])
    assert cycle_leq(a, b)
    assert not cycle_leq(b, a)
    assert cycle_leq(zero_cycle(O_SP, SP2R), a)


mults = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=30, deadline=None)
@given(mults, mults)
def test_cycle_addition_commutes(m1, m2):
    a = mk_cycle([(PLUS, m1[0]), (MINUS, m1[1])])
    b = mk_cycle([(PLUS, m2[0]), (MINUS, m2[1])])
    assert a + b == b + a
    assert (a + b).total_multiplicity == \
        a.total_multiplicity + b.total_multiplicity


def test_cycle_json_round_trip():
    c = mk_cycle([(PLUS, 2), (MINUS, 5)])
    assert Cycle.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        Cycle.from_json({"complex_orbit": O_SP.to_json()})
    with pytest.raises(ValueError):
        bad = c.to_json()
        bad["terms"] = [{"orbit": PLUS.to_json(), "mult": "two"}]
        Cycle.from_json(bad)


def test_cycle_render():
    c = mk_cycle([(PLUS, 2)])
    assert c.render() == "2 * {(2,) | R,R,+1 sig=(1,0)}"
    assert zero_cycle(O_SP, SP2R).render().startswith("0 ")


def test_dlift_forward_example():
    c = mk_cycle([(PLUS, 2), (MINUS, 5)])
    out = dlift_cycle(O_SP, OP_O3, c, O21)
    assert out.render() == "2 * {(3,) | R,R,+1 sig=(1,0)}"
    lifted_plus = rtab(O21, 3, (1, 0))
    assert out.multiplicity(lifted_plus) == 2
    assert out.total_multiplicity == 2


def test_dlift_reversed_pair_transports_nothing():
    # over the flipped pair both [2]-forms of sp(2,R) descend to the zero
    # orbit non-strictly (b=2), so no term is reachable by a strict descent
    o_zero = tableau(O3C, [(1, formed_space("C", "C", 1, dim=3))])
    c = Cycle(o_zero, O21,
              ((tableau(O21, [(1, formed_space("R", "R", 1,
                                               signature=(2, 1)))]), 3),))
    out = dlift_cycle(o_zero, O_SP, c, SP2R)
    assert out.is_zero


def test_dlift_additive_and_monotone():
    c1 = mk_cycle([(PLUS, 2)])
    c2 = mk_cycle([(PLUS, 1), (MINUS, 3)])
    f = lambda c: dlift_cycle(O_SP, OP_O3, c, O21)
    assert f(c1 + c2) == f(c1) + f(c2)
    assert f(3 * c1) == 3 * f(c1)
    assert cycle_leq(f(c1), f(c1 + c2))
    # non-creation: every lifted term pulls back to a term of the input
    out = f(c2)
    for tab, m in out.terms:
        assert m <= c2.total_multiplicity


def test_dlift_rejections():
    c = mk_cycle([(PLUS, 1)])
    with pytest.raises(NotDescentPair,
                       match="^cycle does not live over the stated orbit$"):
        dlift_cycle(OP_O3, O_SP, c, O21)
    # op over base R is refused before its division-C real form, which
    # complexify would refuse with another code
    u11 = hermitian_space(1, 1)
    with pytest.raises(NotDescentPair,
                       match="^descent pair must be stated over base C$"):
        dlift_cycle(O_SP, zero_orbit(u11), c, u11)
    # real form complexifies to o(2,C), not to op's space o(3,C)
    with pytest.raises(NotDescentPair, match="^real form does not complexify "
                                             "to the lifted orbit's space$"):
        dlift_cycle(O_SP, OP_O3, c, orthogonal_space(2, 0))
    # the 5-row of o(5,C) leaves a core of dim 4, too big for sp(2,C)
    o5_regular = tableau(complex_orthogonal_space(5),
                         [(5, formed_space("C", "C", 1, dim=1))])
    with pytest.raises(NotDescentPair,
                       match="^orbit pair is not a descent pair$"):
        dlift_cycle(O_SP, o5_regular, c, orthogonal_space(3, 2))
    o3_zero = tableau(O3C, [(1, formed_space("C", "C", 1, dim=3))])
    with pytest.raises(NotDescentPair, match="^descent of the source orbit "
                                             "misses the target$"):
        dlift_cycle(O_SP, o3_zero, c, O21)
    # O*(4) complexifies to O(4,C), but it does not pair with Sp(2,R)
    sp2_zero = tableau(SP2C, [(1, SP2C)])
    c = Cycle(sp2_zero, SP2R, ((tableau(SP2R, [(1, SP2R)]), 1),))
    o4_22 = tableau(complex_orthogonal_space(4),
                    [(2, formed_space("C", "C", -1, dim=2))])
    with pytest.raises(IncompatiblePair):
        dlift_cycle(sp2_zero, o4_22, c, quaternionic_skew_space(2))


def _searched_dlift(op, c, vp_real):
    """dlift by search: every real form of op's diagram over vp_real whose
    descent to c's real space is strict and lands on a term of c."""
    out = {}
    for sop in real_forms(op.diagram(), vp_real):
        try:
            res = generalized_descent(sop, c.real_space)
        except NotInImage:
            continue
        if res.strict and c.multiplicity(res.target):
            out[sop] = c.multiplicity(res.target)
    return Cycle(op, vp_real, tuple(out.items()))


def test_dlift_matches_the_search_over_every_real_form():
    n_cycles = n_lifted = 0
    for v in iter_spaces(4, bases=("R",)):
        for vp in iter_spaces(8, bases=("R",)):
            if v.division == "C" or vp.division != v.division \
                    or v.epsilon * vp.epsilon != -1:
                continue
            vc, vpc = complexify(v), complexify(vp)
            for op in enumerate_orbits(vpc):
                if not in_moment_image(op, vc):
                    continue
                o = generalized_descent(op, vc).target
                keys = real_forms(o.diagram(), v)
                if not keys:
                    continue
                # distinct multiplicities, so a term landing on the wrong
                # key shows
                c = Cycle(o, v, tuple((k, i + 1) for i, k in enumerate(keys)))
                got = dlift_cycle(o, op, c, vp)
                assert got == _searched_dlift(op, c, vp), (c.render(), vp)
                n_cycles += 1
                n_lifted += not got.is_zero
    assert n_cycles == 529
    assert 0 < n_lifted < n_cycles


def test_dim_circ_table():
    assert dim_circ(orthogonal_space(2, 1)) == Fraction(1)  # n - 2
    assert dim_circ(symplectic_space(4)) == Fraction(4)  # 2n with 2n = 4
    assert dim_circ(hermitian_space(2, 1)) == Fraction(5)  # 2(p+q) - 1
    assert dim_circ(skew_hermitian_space(2, 1)) == Fraction(5)
    assert dim_circ(quaternionic_hermitian_space(1, 1)) == Fraction(15, 2)
    assert dim_circ(quaternionic_skew_space(2)) == Fraction(13, 2)


def test_range_report():
    rep = range_report(1, symplectic_space(4), orthogonal_space(3, 2))
    assert rep.threshold == Fraction(3, 4)
    assert rep.in_range
    rep = range_report(1, symplectic_space(4), orthogonal_space(2, 2))
    assert rep.threshold == Fraction(1)
    assert not rep.in_range  # strict inequality required
    rep = range_report(Fraction(7, 8), symplectic_space(4),
                       orthogonal_space(3, 2))
    assert rep.in_range and rep.nu == Fraction(7, 8)
    js = range_report(1, symplectic_space(4), orthogonal_space(3, 2)).to_json()
    assert js == {"dim_circ_V": "4", "exponent": "5/4", "threshold": "3/4",
                  "nu": "1", "in_range": True}
    with pytest.raises(NonpositiveDimCirc, match="^dim° V must be positive$"):
        range_report(1, orthogonal_space(1, 1), symplectic_space(2))


def test_threshold_decreasing_in_target_dim():
    v = symplectic_space(4)
    last = None
    for n in range(1, 6):
        t = range_report(0, v, orthogonal_space(n, 0)).threshold
        if last is not None:
            assert t < last
        last = t


def test_equality_hypotheses():
    g_sp = isometry_group(symplectic_space(4))
    g_o = isometry_group(orthogonal_space(3, 1))
    two_col = tableau(SP2C, [(2, formed_space("C", "C", 1, dim=1))])
    assert equality_hypotheses(two_col, g_o)
    # equal first two columns fail for real symplectic groups
    sq = tableau(complex_symplectic_space(4),
                 [(2, formed_space("C", "C", 1, dim=2))])
    assert not equality_hypotheses(sq, g_sp)
    assert equality_hypotheses(sq, g_o)
    one_col = tableau(complex_orthogonal_space(3),
                      [(1, formed_space("C", "C", 1, dim=3))])
    assert not equality_hypotheses(one_col, g_o)
    tall = tableau(complex_orthogonal_space(4),
                   [(3, formed_space("C", "C", 1, dim=1)),
                    (1, formed_space("C", "C", 1, dim=1))])
    assert equality_hypotheses(tall, g_sp)
