from collections import Counter
from itertools import combinations_with_replacement

import pytest

from dualpairs import orbits
from dualpairs import (AdmissibleTableau, BadShape, BadSign, BoundExceeded,
                       DomainError, NotAdmissible, TableauRow,
                       UnsupportedRealClosure, closure_leq,
                       column_partition, complex_orthogonal_space,
                       complex_symplectic_space, complexify,
                       complexify_tableau, enumerate_orbits, formed_space,
                       hermitian_space, isometry_group, iter_spaces,
                       orbit_dimension, orthogonal_space, real_forms,
                       stabilizer, symplectic_space, tableau, validate,
                       whittaker_datum, zero_orbit)
from dualpairs.oracle import graded_dims, realize_triple
from helpers import (block_sum, brute_enumerate, candidate_tableaux,
                     closed_form_orbit_count, expected_grading, raised_twice)

SP2 = complex_symplectic_space(2)
SP4 = complex_symplectic_space(4)
O3 = complex_orthogonal_space(3)
O4 = complex_orthogonal_space(4)
CPLUS1 = formed_space("C", "C", 1, dim=1)
CPLUS2 = formed_space("C", "C", 1, dim=2)
CMINUS2 = formed_space("C", "C", -1, dim=2)


def ctab(space, rows):
    return tableau(space, [(t, formed_space("C", "C", e, dim=m))
                           for t, e, m in rows])


REG2 = ctab(SP2, [(2, 1, 1)])
T211 = ctab(SP4, [(2, 1, 1), (1, -1, 2)])
T22 = ctab(SP4, [(2, 1, 2)])
T31_O4 = ctab(O4, [(3, 1, 1), (1, 1, 1)])


def test_enumeration_counts():
    assert len(enumerate_orbits(SP2)) == 2
    assert len(enumerate_orbits(SP4)) == 4
    assert len(enumerate_orbits(O3)) == 2
    assert len(enumerate_orbits(O4)) == 3
    assert len(enumerate_orbits(orthogonal_space(2, 1))) == 2
    assert len(enumerate_orbits(symplectic_space(2))) == 3


def test_enumeration_is_valid_and_duplicate_free():
    for v in iter_spaces(6):
        orbs = enumerate_orbits(v)
        for tab in orbs:
            validate(tab)
            assert tab.space == v
            assert sum(t for t in tab.diagram()) == v.dim
        assert len(set(orbs)) == len(orbs)


def test_mult_of_reads_the_rows_or_the_zero_space():
    # the multiplicity space of the rows of length t, and for a missing
    # length the zero space of type epsilon(V)(-1)^(t-1), its sign an int
    # (no float from a negative power) down to t = 0
    for v in iter_spaces(6):
        for tab in enumerate_orbits(v):
            rows = {row.t: row.mult for row in tab.rows}
            for t in range(0, max(rows) + 2):
                mult = tab.mult_of(t)
                if t in rows:
                    assert mult == rows[t]
                    continue
                assert mult.is_zero and type(mult.epsilon) is int
                assert mult.epsilon == v.epsilon * (-1) ** abs(t - 1), \
                    (tab.diagram(), t)
                assert (mult.base, mult.division) == (v.base, v.division)


def test_enumeration_matches_brute_force():
    # the same tableaux, in the same order, as every product of
    # multiplicity forms filtered through validate
    spaces = list(iter_spaces(12))
    assert len(spaces) == 180
    for v in spaces:
        assert enumerate_orbits(v) == brute_enumerate(v), v.render()


def brute_partitions(n: int) -> list:
    """Every partition of n as a weakly decreasing tuple, lexicographically
    decreasing: the multisets of parts that sum to n, sorted."""
    return sorted((parts for k in range(n + 1) for parts in
                   combinations_with_replacement(range(n, 0, -1), k)
                   if sum(parts) == n), reverse=True)


def test_row_shapes_are_the_partitions_in_decreasing_order():
    # rows (t, c) of each partition with t decreasing, and base the
    # positive index c * floor(t/2) the rows carry before any odd row's p
    for n in range(orbits.DEFAULT_DIM_BOUND + 1):
        want = []
        for parts in brute_partitions(n):
            rows = tuple(sorted(Counter(parts).items(), reverse=True))
            want.append((rows, sum(c * (t // 2) for t, c in rows)))
        assert orbits._row_shapes(n) == tuple(want), n


def test_row_shapes_memo_holds_one_entry_per_dimension():
    assert orbits._row_shapes.cache_info().maxsize == orbits.SHAPES_CACHE_SIZE
    for v in iter_spaces(12):
        enumerate_orbits(v)
    assert orbits._row_shapes.cache_info().currsize <= 13


def test_enumeration_past_the_bound_adds_no_row_shapes():
    orbits._row_shapes.cache_clear()
    with pytest.raises(BoundExceeded):
        enumerate_orbits(complex_orthogonal_space(13))
    info = orbits._row_shapes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_enumeration_hands_out_a_fresh_list():
    for v in (SP4, orthogonal_space(3, 3), hermitian_space(2, 1)):
        first = enumerate_orbits(v)
        first.clear()
        second = enumerate_orbits(v)
        assert second == brute_enumerate(v)
        second.append(REG2)
        assert enumerate_orbits(v) == brute_enumerate(v)
        assert enumerate_orbits(v) is not enumerate_orbits(v)


def test_orbit_count_matches_the_closed_form():
    # partitions over C and signed Young diagrams over R, counted without
    # the admissibility rule that enumerate_orbits applies
    families = Counter()
    for v in iter_spaces(12):
        families[v.tag()[:2] if v.division != "R" else v.tag()] += 1
        assert len(enumerate_orbits(v)) == closed_form_orbit_count(v), \
            v.render()
    assert families == {("C", "C"): 18, ("R", "C"): 54, ("R", "R", 1): 90,
                        ("R", "R", -1): 6, ("R", "H"): 12}


def test_validate_matches_the_block_sum_on_every_candidate():
    # the formed-space sum of the blocks decides admissibility and is the
    # rejection's payload
    for v in iter_spaces(12):
        for tab in candidate_tableaux(v):
            total = block_sum(tab)
            if total == v:
                validate(tab)
                continue
            with pytest.raises(NotAdmissible) as exc:
                validate(tab)
            assert exc.value.context == {"got": total.render(),
                                         "expected": v.render()}


def test_enumeration_starts_at_closure_maximum():
    for v in iter_spaces(6, bases=("C",)):
        orbs = enumerate_orbits(v)
        for other in orbs:
            assert closure_leq(other, orbs[0])


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        enumerate_orbits(complex_orthogonal_space(13))


def unchecked(space, rows) -> AdmissibleTableau:
    """The tableau of (t, mult) rows, built without validation."""
    return AdmissibleTableau(space, tuple(TableauRow(t, m) for t, m in rows))


def test_validate_rejections():
    # even row in a symplectic space must carry an orthogonal-type mult
    with pytest.raises(BadSign):
        validate(unchecked(SP2, [(2, CMINUS2)]))
    with pytest.raises(NotAdmissible):
        validate(unchecked(SP4, [(2, CPLUS1)]))  # blocks sum to dim 2, not 4
    with pytest.raises(BadShape):
        validate(unchecked(SP4, [(1, CMINUS2), (2, CPLUS1)]))  # not decreasing
    with pytest.raises(BadSign):
        validate(unchecked(
            O3, [(3, formed_space("R", "R", 1, signature=(1, 0)))]))


def _error_json(space, rows) -> dict:
    with pytest.raises(DomainError) as exc:
        validate(unchecked(space, rows))
    return exc.value.to_json()["error"]


def test_validate_error_payloads():
    r01 = formed_space("R", "R", 1, signature=(0, 1))
    assert _error_json(orthogonal_space(2, 1), [(3, r01)]) == {
        "code": "not_admissible",
        "message": "tensor blocks do not sum to the ambient space",
        "context": {"got": "R,R,+1 sig=(1,2)", "expected": "R,R,+1 sig=(2,1)"}}
    assert _error_json(SP4, [(2, CPLUS1)]) == {
        "code": "not_admissible",
        "message": "tensor blocks do not sum to the ambient space",
        "context": {"got": "C,C,-1 dim=2", "expected": "C,C,-1 dim=4"}}
    # the sign of the second row is checked before the sum, which is off too
    assert _error_json(SP4, [(2, CPLUS1), (1, CPLUS1)]) == {
        "code": "bad_sign",
        "message": "multiplicity sign must be (-1)^(t-1)*epsilon",
        "context": {"t": 1, "expected": -1, "got": 1}}
    assert _error_json(O3, [(3, r01)]) == {
        "code": "bad_sign",
        "message": "multiplicity space over wrong base/division",
        "context": {"t": 3, "mult": "R,R,+1 sig=(0,1)"}}
    # the shape is checked before any sign
    assert _error_json(SP4, [(1, CPLUS1), (2, CPLUS1)]) == {
        "code": "bad_shape",
        "message": "row lengths must be strictly decreasing",
        "context": {"rows": "[1, 2]"}}


def test_real_admissibility_uses_signed_multiplicities():
    sp2r = symplectic_space(2)
    orbs = enumerate_orbits(sp2r)
    diagrams = sorted(tab.diagram() for tab in orbs)
    assert diagrams == [(1, 1), (2,), (2,)]
    sigs = sorted(tab.rows[0].mult.signature for tab in orbs
                  if tab.diagram() == (2,))
    assert sigs == [(0, 1), (1, 0)]


def test_json_round_trip():
    for v in list(iter_spaces(4)) + [SP4, O4]:
        for tab in enumerate_orbits(v):
            assert AdmissibleTableau.from_json(tab.to_json()) == tab
    with pytest.raises(ValueError):
        AdmissibleTableau.from_json({"rows": []})


def test_render():
    from dualpairs import tableau as mk
    t = mk(symplectic_space(2),
           [(2, formed_space("R", "R", 1, signature=(1, 0)))])
    assert t.render() == "[][]  [R,R,+1 sig=(1,0)]"
    assert T211.render() == "[][]  [C,C,+1 dim=1]\n[]  [C,C,-1 dim=2]\n[]"
    assert zero_orbit(SP2).render() == "[]  [C,C,-1 dim=2]\n[]"


def test_column_partition():
    assert column_partition(T31_O4) == [2, 1, 1]
    assert column_partition(T22) == [2, 2]
    assert column_partition(zero_orbit(SP4)) == [4]
    assert column_partition(zero_orbit(formed_space("C", "C", 1, dim=0))) == []


def test_closure_order():
    assert closure_leq(T211, T22)
    assert not closure_leq(T22, T211)
    assert closure_leq(T22, T22)
    for tab in enumerate_orbits(SP4):
        assert closure_leq(zero_orbit(SP4), tab)
    with pytest.raises(UnsupportedRealClosure):
        real = enumerate_orbits(symplectic_space(2))
        closure_leq(real[0], real[0])
    with pytest.raises(BadShape):
        closure_leq(REG2, T22)


def test_orbit_dimension():
    assert orbit_dimension(REG2) == 2
    assert orbit_dimension(zero_orbit(SP4)) == 0
    assert orbit_dimension(zero_orbit(orthogonal_space(2, 1))) == 0
    assert orbit_dimension(T211) == 4


def closed_formula_dimension(diagram, epsilon):
    """Collingwood-McGovern Cor. 6.1.4 with lambda* the dual partition:
    dim O = n(n-1)/2 - 1/2 sum (lambda*_i)^2 + 1/2 #odd parts in so(n), and
    n(n+1)/2 - 1/2 sum (lambda*_i)^2 - 1/2 #odd parts in sp(n)."""
    n = sum(diagram)
    dual = [sum(1 for t in diagram if t > i)
            for i in range(max(diagram, default=0))]
    odd = sum(t % 2 for t in diagram)
    twice = n * (n - epsilon) - sum(c * c for c in dual) + epsilon * odd
    assert twice % 2 == 0
    return twice // 2


def test_orbit_dimension_matches_closed_formula():
    cases = [tab for v in iter_spaces(8, bases=("C",))
             for tab in enumerate_orbits(v)]
    assert len(cases) == 61
    real = [tab for v in iter_spaces(6, bases=("R",)) if v.division == "R"
            for tab in enumerate_orbits(v)]
    assert len(real) == 92
    cases += real
    for space in (complex_symplectic_space(12), complex_orthogonal_space(12)):
        cases.append(max(enumerate_orbits(space), key=lambda t: t.diagram()))
    assert [t.diagram() for t in cases[-2:]] == [(12,), (11, 1)]
    for tab in cases:
        ct = complexify_tableau(tab) if tab.space.base == "R" else tab
        expected = closed_formula_dimension(ct.diagram(), ct.space.epsilon)
        assert orbit_dimension(tab) == expected, tab.render()


def test_stabilizer_descriptors():
    assert stabilizer(T211).name == "O(1,C) x Sp(2,C)"
    assert stabilizer(T211).lie_dim == 3
    assert stabilizer(T22).name == "O(2,C)"
    assert stabilizer(zero_orbit(SP4)).name == "Sp(4,C)"
    real = tableau(orthogonal_space(2, 1),
                   [(3, formed_space("R", "R", 1, signature=(1, 0)))])
    assert stabilizer(real).name == "O(1)"


def test_one_validate_per_public_call(monkeypatch):
    """whittaker_datum, orbit_dimension and stabilizer each validate their
    tableau once, and before the dimension bound: a bad tableau past the
    bound fails validation, a good one the bound."""
    calls = []

    def counting(tab):
        calls.append(tab)
        validate(tab)

    monkeypatch.setattr(orbits, "validate", counting)
    tab = enumerate_orbits(symplectic_space(6))[0]
    for call in (whittaker_datum, orbit_dimension, stabilizer):
        calls.clear()
        call(tab)
        assert calls == [tab], call.__name__
    big = complex_symplectic_space(14)
    bad = unchecked(big, [(2, CMINUS2)])
    for call in (whittaker_datum, orbit_dimension):
        calls.clear()
        with pytest.raises(BadSign):
            call(bad)
        with pytest.raises(BoundExceeded, match="exceeds dimension bound"):
            call(zero_orbit(big))
        assert calls == [bad, zero_orbit(big)]


def nonzero(grading):
    return {k: v for k, v in grading.items() if v}


def test_whittaker_frozen_examples():
    w = whittaker_datum(REG2)
    assert w.grading == {-2: 1, -1: 0, 0: 1, 1: 0, 2: 1}
    assert w.dim_g_minus1 == 0 and not w.heisenberg_case
    assert w.dim_u == 1 and w.dim_n == 1

    w = whittaker_datum(T211)
    assert w.grading == {-2: 1, -1: 2, 0: 4, 1: 2, 2: 1}
    assert w.dim_g_minus1 == 2 and w.heisenberg_case
    assert w.dim_u == 1 and w.dim_n == 3

    w = whittaker_datum(ctab(O3, [(3, 1, 1)]))
    assert nonzero(w.grading) == {-2: 1, 0: 1, 2: 1}
    assert w.dim_g_minus1 == 0


def test_grading_against_weight_counting():
    spaces = [SP2, SP4, O3, O4, complex_orthogonal_space(2),
              orthogonal_space(2, 1), orthogonal_space(1, 2),
              symplectic_space(2), symplectic_space(4),
              hermitian_space(1, 1), formed_space("R", "C", -1, signature=(1, 1)),
              formed_space("R", "H", 1, signature=(1, 0)),
              formed_space("R", "H", -1, dim=1)]
    for v in spaces:
        lie_dim = isometry_group(v).lie_dim
        for tab in enumerate_orbits(v):
            w = whittaker_datum(tab)
            assert nonzero(w.grading) == expected_grading(tab)
            assert w.grading == graded_dims(realize_triple(tab))
            assert sum(w.grading.values()) == lie_dim
            assert all(w.grading.get(j, 0) == w.grading.get(-j, 0)
                       for j in w.grading)


def test_real_diagram_surjection():
    for v in iter_spaces(6, bases=("R",)):
        if v.division == "C":
            continue
        real_diagrams = {complexify_tableau(t).diagram()
                         for t in enumerate_orbits(v)}
        admitting = {t.diagram() for t in enumerate_orbits(complexify(v))
                     if real_forms(t.diagram(), v)}
        assert real_diagrams == admitting


def test_real_forms_of_regular_diagram():
    forms = real_forms((2,), symplectic_space(2))
    assert len(forms) == 2
    assert {f.rows[0].mult.signature for f in forms} == {(1, 0), (0, 1)}
    assert real_forms((1, 1), orthogonal_space(2, 1)) == []
    assert len(real_forms((1, 1, 1), orthogonal_space(2, 1))) == 1


def test_real_forms_validates_nothing(monkeypatch):
    # enumerate_orbits' tableaux are admissible by construction
    v = symplectic_space(6)
    calls = []
    monkeypatch.setattr(orbits, "validate", calls.append)
    diagrams = {tab.diagram() for tab in enumerate_orbits(v)}
    found = sum(len(real_forms(d, v)) for d in diagrams)
    assert found == len(enumerate_orbits(v)) and calls == []


def test_complexify_tableau_validates_its_input():
    """A real tableau whose blocks miss the signature of V is refused, as
    validate refuses it, although its complexification is admissible."""
    o21 = orthogonal_space(2, 1)
    bad = unchecked(o21, [(1, orthogonal_space(0, 3))])
    validate(orbits._complexified(bad))  # admissible over C
    with pytest.raises(NotAdmissible) as exc:
        validate(bad)
    with pytest.raises(NotAdmissible) as again:
        complexify_tableau(bad)
    assert again.value.to_json() == exc.value.to_json()


def test_validate_checks_each_admissible_tableau_once():
    """An admissible tableau is checked on its first call and found in the
    cache on the next, an equal tableau built anew included; an invalid one
    raises on every call and is never cached."""
    validate.cache_clear()
    validate(unchecked(SP4, [(2, CPLUS2)]))
    validate(unchecked(SP4, [(2, CPLUS2)]))
    info = validate.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    cases = [
        ((SP2, [(0, CPLUS1)]), "bad_shape", "row lengths must be positive"),
        ((SP4, [(1, CMINUS2), (2, CPLUS1)]), "bad_shape",
         "row lengths must be strictly decreasing"),
        ((SP2, [(2, formed_space("C", "C", 1, dim=0))]), "bad_shape",
         "rows must have nonzero multiplicity"),
        ((O3, [(3, orthogonal_space(1, 0))]), "bad_sign",
         "multiplicity space over wrong base/division"),
        ((SP2, [(2, CMINUS2)]), "bad_sign",
         "multiplicity sign must be (-1)^(t-1)*epsilon"),
        ((SP4, [(2, CPLUS1)]), "not_admissible",
         "tensor blocks do not sum to the ambient space"),
    ]
    for args, code, message in cases:
        error = raised_twice(validate, unchecked(*args))
        assert (error["code"], error["message"]) == (code, message)
    assert validate.cache_info().currsize == 1


def test_bound_and_closure_errors_carry_their_messages():
    big = complex_symplectic_space(14)
    with pytest.raises(BoundExceeded, match="^space exceeds dimension bound$"):
        enumerate_orbits(big)
    with pytest.raises(BoundExceeded, match="^space exceeds dimension bound$"):
        orbit_dimension(zero_orbit(big))
    with pytest.raises(BadShape,
                       match="^closure order needs a common ambient space$"):
        closure_leq(REG2, T22)
    real = zero_orbit(symplectic_space(2))
    with pytest.raises(UnsupportedRealClosure,
                       match="^closure order implemented for base C only$"):
        closure_leq(real, real)
