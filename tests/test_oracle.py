import contextlib
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dualpairs import (BoundExceeded, IdentityViolated, IncompatiblePair,
                       NotInAlgebra, NotNilpotent, centralizer_dim,
                       complex_orthogonal_space, complex_symplectic_space,
                       construct_descent_element, enumerate_orbits,
                       formed_space, generalized_descent, identify,
                       in_moment_image, isometry_group, iter_spaces,
                       moment_maps, orthogonal_space, realize_triple,
                       symplectic_space, tableau, theta_lift,
                       verify_dimension_identity, zero_orbit)
from dualpairs import oracle
from dualpairs.oracle import (_check_triple, _moment_values, algebra_basis,
                              classify_space, in_algebra,
                              kernel_form_nondegenerate, make_map,
                              random_isometry, sample_raising_map,
                              standard_gram)
from dualpairs.rational import (Monomial, Scaled, dense, eye, fraction_mat,
                                int_mul, inv, mul, scaled, transpose, zeros)
from dualpairs.theta import reduced_pair_dims
from helpers import (add, commutator, constrained_kernel,
                     constrained_nullity, dense_basis, is_zero_mat, kron,
                     kron_gram, kron_standard_gram, kron_structures,
                     kron_triple, mat, matpow, nullspace, rank,
                     ref_random_isometry, scal)

SP2 = complex_symplectic_space(2)
SP4 = complex_symplectic_space(4)
O1 = complex_orthogonal_space(1)
O3 = complex_orthogonal_space(3)
O4 = complex_orthogonal_space(4)


def ctab(space, rows):
    return tableau(space, [(t, formed_space("C", "C", e, dim=m))
                           for t, e, m in rows])


REG2 = ctab(SP2, [(2, 1, 1)])
T211 = ctab(SP4, [(2, 1, 1), (1, -1, 2)])
T31_O4 = ctab(O4, [(3, 1, 1), (1, 1, 1)])


def test_realize_standard_sl2():
    r = realize_triple(REG2)
    assert mat(r.x) == mat([[0, 1], [0, 0]])
    assert mat(r.h) == mat([[1, 0], [0, -1]])
    assert r.ambient.gram == mat([[0, 1], [-1, 0]])


def test_realize_triple_matches_kron_reference():
    # every orbit with dim_F <= 8, over R and C
    tabs = [tab for v in iter_spaces(8) for tab in enumerate_orbits(v)]
    assert len(tabs) == 373
    for tab in tabs:
        r = realize_triple(tab)
        assert tuple(map(mat, (r.x, r.h, r.y))) == kron_triple(tab), \
            tab.to_json()


def test_reference_forms_match_kron_reference():
    # the Gram matrices and D-structures of every orbit with dim_F <= 8,
    # over R and C, and the standard Gram matrix of every space with
    # dim_F <= 6, against their assembly from Kronecker products
    tabs = [tab for v in iter_spaces(8) for tab in enumerate_orbits(v)]
    assert len(tabs) == 373
    for tab in tabs:
        amb = realize_triple(tab).ambient
        assert amb.gram == kron_gram(tab), tab.to_json()
        assert amb.structures == kron_structures(tab.space), tab.to_json()
    for s in iter_spaces(6):
        assert fraction_mat(standard_gram(s)) == kron_standard_gram(s), \
            s.render()


def test_cached_realization_cannot_be_changed_through_its_matrices():
    tab = enumerate_orbits(orthogonal_space(2, 1))[0]
    r = realize_triple(tab)
    gram = mat(r.ambient.gram)
    with pytest.raises(TypeError):
        r.x[0][1] = 5
    r.ambient.gram[0][0] += 7
    for z in r.ambient.structures:
        z[0][0] += 7
    again = realize_triple(tab)
    assert again.ambient.gram == gram
    assert again.ambient.structures == kron_structures(tab.space)


def test_moment_maps_out_of_the_zero_space():
    src = realize_triple(zero_orbit(formed_space("C", "C", 1, dim=0))).ambient
    tgt = realize_triple(zero_orbit(SP2)).ambient
    x, xp = moment_maps(make_map(src, tgt, scaled([[], []])))
    assert x == [] and xp == zeros(2, 2)
    assert identify(xp, tgt) == zero_orbit(SP2)


def test_moment_maps_into_the_zero_space():
    src = realize_triple(zero_orbit(SP2)).ambient
    tgt = realize_triple(zero_orbit(formed_space("C", "C", 1, dim=0))).ambient
    rm = make_map(src, tgt, scaled([]))
    assert rm.t_star == Scaled(((), ()), 1)
    x, xp = moment_maps(rm)
    assert x == zeros(2, 2) and xp == []
    assert identify(x, src) == zero_orbit(SP2)
    with pytest.raises(NotInAlgebra, match="map has wrong shape"):
        make_map(src, tgt, scaled([[]]))


def test_realize_zero_orbit():
    r = realize_triple(zero_orbit(SP4))
    assert is_zero_mat(r.x) and is_zero_mat(r.h) and is_zero_mat(r.y)


def test_realize_triple_refuses_spaces_beyond_the_bound():
    with pytest.raises(BoundExceeded,
                       match="^space exceeds dimension bound$") as exc:
        realize_triple(zero_orbit(complex_symplectic_space(14)))
    assert exc.value.context == {"dim_f": 14, "bound": 12}


def test_principal_orthogonal_gram_is_antidiagonal():
    g = realize_triple(ctab(O3, [(3, 1, 1)])).ambient.gram
    assert g == mat([[0, 0, 1], [0, Fraction(-1, 2), 0], [1, 0, 0]])


def test_classify_space_reads_rational_gram_matrices():
    spaces = list(iter_spaces(6))
    assert {("R", "C", -1), ("R", "H", -1)} <= {s.tag() for s in spaces}
    for s in spaces:
        gram = standard_gram(s).ints  # a positive multiple
        assert len(gram) == s.dim_f
        assert classify_space(gram, s.base, s.division, s.epsilon) == s
        with pytest.raises(IdentityViolated,
                           match="form is not epsilon-Hermitian"):
            classify_space(gram, s.base, s.division, -s.epsilon)
    # an int Gram matrix of determinant -1 with entries near 1e20
    big = [[10**20, 10**20 + 1], [10**20 + 1, 10**20 + 2]]
    assert classify_space(big, "R", "R", 1) == orthogonal_space(1, 1)


def test_classify_space_reads_positive_multiples():
    """A positive multiple of a Gram matrix is the same form; its negative
    swaps the signature, over every signature-classified type, (R, C, -1)
    included."""
    for s in iter_spaces(6):
        gram = standard_gram(s).ints
        for c in (1, 6, 10**20):
            scaled_gram = [[c * x for x in row] for row in gram]
            assert classify_space(scaled_gram, *s.tag()) == s
        negated = classify_space([[-x for x in row] for row in gram],
                                 *s.tag())
        if s.kind == "sig":
            assert negated == formed_space(*s.tag(),
                                           signature=s.signature[::-1])
        else:
            assert negated == s


def test_classify_space_refuses_degenerate_forms():
    singular = [("R", "R", 1, [[1, 0], [0, 0]]),
                ("R", "R", -1, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
                ("R", "H", 1,
                 scaled(kron(mat([[1, 0], [0, 0]]), eye(4))).ints)]
    for base, division, eps, gram in singular:
        with pytest.raises(IdentityViolated, match="form is degenerate"):
            classify_space(gram, base, division, eps)


def test_classify_space_checks_signature_kinds_once(monkeypatch):
    """A signature-classified form takes its degeneracy from the zero count
    of its signature and makes no echelon call; a dimension-classified one
    makes exactly one."""
    calls = []
    echelon = oracle.echelon

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    monkeypatch.setattr(oracle, "echelon", counted)
    for s in iter_spaces(6):
        calls.clear()
        assert classify_space(standard_gram(s).ints, *s.tag()) == s
        assert len(calls) == (s.kind == "dim"), s.render()
    calls.clear()
    # kron([[1, 0], [0, 0]], L_i): skew-Hermitian over C and degenerate
    singular = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(IdentityViolated, match="form is degenerate"):
        classify_space(singular, "R", "C", -1)
    assert calls == []


def test_classify_space_reads_degenerate_forms_of_a_given_dimension():
    """Given dim, a Gram matrix on more D-lines classifies by its
    non-degenerate part, whose D-dimension must be dim: the standard Gram
    matrix of every space with dim_F <= 6, padded by two zero D-lines."""
    for s in iter_spaces(6):
        gram = standard_gram(s).ints
        pad = 2 * s.d
        padded = ([list(row) + [0] * pad for row in gram]
                  + [[0] * (len(gram) + pad)] * pad)
        assert classify_space(padded, *s.tag(), dim=s.dim) == s
        with pytest.raises(IdentityViolated, match="form is degenerate"):
            classify_space(padded, *s.tag(), dim=s.dim + 1)
        if s.dim:
            with pytest.raises(IdentityViolated,
                               match="form rank exceeds its dimension"):
                classify_space(padded, *s.tag(), dim=s.dim - 1)


def test_triple_relations_and_membership():
    for v in list(iter_spaces(5)) + [SP4, O4]:
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            assert commutator(r.h, r.x) == scal(2, r.x)
            assert commutator(r.h, r.y) == scal(-2, r.y)
            assert commutator(r.x, r.y) == mat(r.h)
            for z in (r.x, r.h, r.y):
                assert in_algebra(Scaled(z, 1), r.ambient)
            assert r.ambient.n_real == v.dim_f


def test_check_triple_rejects_broken_triples():
    """Each sl2 relation and the membership test fails on its own planted
    realization, given like every realization as int tuples.  The last
    triple is the principal one of O(3,C) conjugated by a diagonal
    non-isometry: its relations hold, and X leaves the algebra."""
    r = realize_triple(enumerate_orbits(O3)[0])

    def frozen(a):
        return tuple(tuple(int(x) for x in row) for row in a)

    g = mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    conj = {k: frozen(mul(g, mul(getattr(r, k), inv(g)))) for k in "xhy"}
    assert conj["x"] != r.x
    cases = [(replace(r, x=frozen(add(r.x, r.h))), "[H,X] != 2X"),
             (replace(r, h=frozen(scal(2, r.h))), "[H,X] != 2X"),
             (replace(r, y=frozen(add(r.y, r.h))), "[H,Y] != -2Y"),
             (replace(r, x=frozen(scal(2, r.x))), "[X,Y] != H"),
             (replace(r, **conj), "X is not in the isometry algebra")]
    _check_triple(r)
    for bad, msg in cases:
        with pytest.raises(IdentityViolated, match=re.escape(msg)):
            _check_triple(bad)


def test_identify_realize_round_trip_dims_8():
    count = 0
    for v in iter_spaces(8):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            assert identify(r.x, r.ambient) == tab
            count += 1
    assert count == 373


def test_identify_realize_round_trip_dimension_bound():
    """All orbits of sp(12,C) and O(12,C), and the principal orbit of each
    conjugated by a random isometry, identify back to their tableaux."""
    rng = random.Random(12)
    count = 0
    for v in [complex_symplectic_space(12), complex_orthogonal_space(12)]:
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            assert identify(r.x, r.ambient) == tab
            count += 1
        principal = enumerate_orbits(v)[0]
        r = realize_triple(principal)
        g = random_isometry(r.ambient, rng)
        assert identify(mul(g, mul(r.x, inv(g))), r.ambient) == principal
    assert count == 68


def test_identify_is_conjugation_invariant():
    rng = random.Random(7)
    tabs = [tab for v in [SP4, O3, formed_space("R", "C", 1, signature=(1, 1))]
            for tab in enumerate_orbits(v)]
    tabs += [tab for v in iter_spaces(6, bases=("R",))
             for tab in enumerate_orbits(v)]
    # at the dimension bound: the principal sp(12,R) orbit, and the orbit
    # with the most rows of U(3,3) and of Sp(2,1)
    tabs.append(enumerate_orbits(symplectic_space(12))[0])
    for v in [formed_space("R", "C", 1, signature=(3, 3)),
              formed_space("R", "H", 1, signature=(2, 1))]:
        tabs.append(max(enumerate_orbits(v), key=lambda tab: len(tab.rows)))
    assert tabs[-3].rows[0].t == 12
    for tab in tabs:
        r = realize_triple(tab)
        g = random_isometry(r.ambient, rng)
        conj = mul(g, mul(r.x, inv(g)))
        assert identify(conj, r.ambient) == tab


def test_multiplicity_form_on_ker_x_t_has_the_quotient_as_radical():
    """The lemma of the real identify, computed without it: x is skew for
    B, so on ker x^t the form (a, b) -> B(a, x^(t-1) b) has radical
    ker x^(t-1) + x ker x^(t+1), and its rank is dr m_t, for each row
    length t of every realized base-R orbit with dim_F <= 8."""
    count = 0
    for v in iter_spaces(8, bases=("R",)):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            x, dr = mat(r.x), r.ambient.dr
            for row in tab.rows:
                t, rank_t = row.t, dr * row.mult.dim
                below, kers, above = (nullspace(matpow(x, s))
                                      for s in (t - 1, t, t + 1))
                form = mul(r.ambient.gram, matpow(x, t - 1))
                assert rank(mul(mul(kers, form), transpose(kers))) == rank_t
                radical = below + transpose(mul(x, transpose(above)))
                assert is_zero_mat(mul(mul(radical, form), transpose(kers)))
                assert rank(radical) == len(kers) - rank_t, tab.to_json()
            count += 1
    assert count == 312


def test_identify_errors():
    r = realize_triple(REG2)
    with pytest.raises(NotNilpotent,
                       match="power sequence does not reach zero"):
        identify(r.h, r.ambient)
    with pytest.raises(NotInAlgebra):
        bad = zeros(2, 2)  # the right shape, not skew for the form
        bad[0][0] = Fraction(1)
        identify(bad, r.ambient)


def _dense_skew(z, amb):
    return is_zero_mat(add(mul(transpose(z), amb.gram), mul(amb.gram, z)))


def _dense_d_linear(z, amb):
    return all(mul(z, j) == mul(j, z) for j in amb.structures)


def _fails_only_d_linearity(amb):
    """B^-1 S with S = E_pq - eps E_qp (B^T = eps B): skew for B, and the
    first such matrix that does not commute with the D-structures.  None
    when every skew matrix is D-linear, as for u(1)."""
    n = amb.n_real
    eps = 1 if amb.gram == transpose(amb.gram) else -1
    b_inv = inv(amb.gram)
    for p in range(n):
        for q in range(n):
            s = zeros(n, n)
            s[p][q] += 1
            s[q][p] -= eps
            z = mul(b_inv, s)
            if not is_zero_mat(z) and not _dense_d_linear(z, amb):
                return z
    return None


def test_in_algebra_matches_dense_definition():
    checked = non_d_linear = 0
    for v in iter_spaces(4, bases=("R", "C")):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            amb = r.ambient
            if v.base == "C":
                assert amb.structures == []
            cases = [(r.x, True, True), (r.h, True, True), (r.y, True, True),
                     (eye(amb.n_real), False, True)]
            z = _fails_only_d_linearity(amb)
            if z is not None:
                cases.append((z, True, False))
                non_d_linear += 1
            for z, skew, d_linear in cases:
                assert (_dense_skew(z, amb), _dense_d_linear(z, amb)) == \
                    (skew, d_linear)
                assert in_algebra(scaled(z), amb) == (skew and d_linear)
                checked += 1
    assert {v.division for v in iter_spaces(4)} == {"R", "C", "H"}
    assert checked > 250 and non_d_linear == 15


def test_make_map_adjoint_and_d_linearity():
    rng = random.Random(13)
    pairs = [(O3, SP4), (SP2, O4),
             (formed_space("R", "C", 1, signature=(1, 1)),
              formed_space("R", "C", -1, signature=(1, 1))),
             (formed_space("R", "H", 1, signature=(1, 0)),
              formed_space("R", "H", -1, dim=2))]
    for v, vp in pairs:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        src, tgt = v_real.ambient, vp_real.ambient
        for _ in range(5):
            rm = sample_raising_map(v_real, vp_real, rng)
            dense = mul(inv(src.gram),
                        mul(transpose(fraction_mat(rm.t)), tgt.gram))
            assert fraction_mat(rm.t_star) == dense
        if v.base == "C":
            # no D-structures on a Q-form: only the shape can be wrong
            bad, msg = zeros(tgt.n_real + 1, src.n_real), "map has wrong shape"
        else:
            bad, msg = zeros(tgt.n_real, src.n_real), "map is not D-linear"
            bad[0][0] = Fraction(1, 3)
        with pytest.raises(NotInAlgebra, match=msg):
            make_map(src, tgt, scaled(bad))


def test_make_map_refuses_spaces_that_are_not_a_dual_pair():
    """Both spaces need one base and division and epsilon * epsilon' = -1:
    a different base either way round, or the same epsilon, is refused
    before T's shape is checked."""
    cases = [(formed_space("R", "R", -1, dim=2), O3),
             (SP2, formed_space("R", "R", -1, dim=2)),
             (SP2, SP2)]
    rng = random.Random(0)
    for v, vp in cases:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        src, tgt = v_real.ambient, vp_real.ambient
        with pytest.raises(IncompatiblePair) as exc:
            make_map(src, tgt, scaled(zeros(tgt.n_real + 1, src.n_real)))
        assert exc.value.context == {"left": v.render(),
                                     "right": vp.render()}
        with pytest.raises(IncompatiblePair):
            sample_raising_map(v_real, vp_real, rng)


def test_identify_rejects_matrices_outside_the_algebra():
    """A wrong shape, a non-skew matrix and a skew but not D-linear one all
    raise NotInAlgebra with the same message and context."""
    non_d_linear = 0
    for v in [SP4, O3, orthogonal_space(2, 1),
              formed_space("R", "C", 1, signature=(1, 1)),
              formed_space("R", "H", -1, dim=1)]:
        amb = realize_triple(zero_orbit(v)).ambient
        n = amb.n_real
        bad = [zeros(n + 1, n), zeros(n, n + 1), eye(n)]
        z = _fails_only_d_linearity(amb)
        if z is not None:
            bad.append(z)
            non_d_linear += 1
        for x in bad:
            with pytest.raises(NotInAlgebra) as exc:
                identify(x, amb)
            assert exc.value.message == \
                "matrix violates the form or D-linearity"
            assert exc.value.context == {"space": v.render()}
    assert non_d_linear == 2


def _dual_pairs(max_dims):
    for v in iter_spaces(max_dims[0]):
        for vp in iter_spaces(max_dims[1]):
            if (v.base, v.division) == (vp.base, vp.division) and \
                    v.epsilon * vp.epsilon == -1:
                yield v, vp


def _same_value(a, b):
    """Whether two scaled integer matrices hold the same rational matrix."""
    return a.den > 0 and b.den > 0 and len(a.ints) == len(b.ints) and all(
        len(ra) == len(rb) and all(x * b.den == y * a.den
                                   for x, y in zip(ra, rb))
        for ra, rb in zip(a.ints, b.ints))


def _dense_diagram(x, dr: int) -> tuple:
    """Jordan type of a nilpotent x from the dense ranks of its powers,
    counted over D: rank x^(t-1) - 2 rank x^t + rank x^(t+1) rows of
    length t."""
    ranks = [len(x) // dr]
    while ranks[-1]:
        ranks.append(rank(matpow(x, len(ranks))) // dr)
    ranks.append(0)
    return tuple(t for t in range(len(ranks) - 2, 0, -1)
                 for _ in range(ranks[t - 1] - 2 * ranks[t] + ranks[t + 1]))


def _identify_moment_values_by_dense_ranks(base: str, rng) -> list:
    """identify against _dense_diagram on both moment-map values of 2
    raising maps between the top orbits of every pair over base with dims
    <= (4, 6); returns the division of each value checked."""
    checked = []
    for v, vp in _dual_pairs((4, 6)):
        if v.base != base:
            continue
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        for _ in range(2):
            rm = sample_raising_map(v_real, vp_real, rng)
            for x, amb in zip(moment_maps(rm), (rm.source, rm.target)):
                assert identify(x, amb).diagram() == \
                    _dense_diagram(x, amb.dr), (v.render(), vp.render())
                checked.append(v.division)
    return checked


def test_real_identify_of_moment_values_matches_dense_ranks():
    """The real branch of identify on values that no realization wrote,
    over R, C and H."""
    checked = _identify_moment_values_by_dense_ranks("R", random.Random(16))
    assert set(checked) == {"R", "C", "H"} and len(checked) == 760


def test_complex_identify_of_moment_values_matches_dense_ranks():
    """The base-C branch of identify on values that no realization wrote."""
    checked = _identify_moment_values_by_dense_ranks("C", random.Random(17))
    assert len(checked) == 96


def test_real_identify_computes_each_kernel_once(monkeypatch):
    """Over base R, identify reads one kernel, ker x^t, per row length t
    of the tableau, and computes each once."""
    calls = []
    kernel = oracle.kernel

    def counted(rows, n):
        rows = list(rows)
        calls.append(tuple(tuple(sorted(r.items())) for r in rows))
        return kernel(rows, n)

    monkeypatch.setattr(oracle, "kernel", counted)
    checked = 0
    for space in iter_spaces(6, bases=("R",)):
        for tab in enumerate_orbits(space):
            if len({row.t for row in tab.rows}) < 2:
                continue
            real = realize_triple(tab)
            calls.clear()
            oracle._identify.cache_clear()  # a hit would compute no kernel
            assert identify(real.x, real.ambient) == tab
            assert len(calls) == len(set(calls)) == len(
                {row.t for row in tab.rows}), \
                tab.diagram()
            checked += 1
    assert checked == 48


def test_moment_values_match_fraction_products():
    """On every dual pair with dims <= (4, 6), over C and over R with
    D = R, C, H: seeded raising maps and every descent witness.  The public
    moment_maps are the Fraction products of T and T*, and _moment_values
    the same values on integers over one denominator."""
    from dualpairs import in_moment_image
    rng = random.Random(7)
    maps, kinds, witnesses = [], set(), {"C": 0, "R": 0}
    for v, vp in _dual_pairs((4, 6)):
        kinds.add((v.base, v.division))
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        maps += [sample_raising_map(v_real, vp_real, rng) for _ in range(3)]
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            try:
                maps.append(construct_descent_element(realize_triple(op), v))
            except IdentityViolated:  # no witness: the real-pair sign defect
                continue
            witnesses[v.base] += 1
    assert kinds == {("C", "C"), ("R", "R"), ("R", "C"), ("R", "H")}
    assert witnesses["C"] == 67 and witnesses["R"] >= 268
    for rm in maps:
        t, t_star = fraction_mat(rm.t), fraction_mat(rm.t_star)
        want = (mul(t_star, t), mul(t, t_star))
        got = moment_maps(rm)
        assert got == want
        assert all(type(x) is Fraction for z in got for row in z for x in row)
        assert all(_same_value(g, scaled(w))
                   for g, w in zip(_moment_values(rm), want))


def test_realize_cache_is_bounded_lru():
    from dualpairs import oracle
    tabs = [tab for v in iter_spaces(8) for tab in enumerate_orbits(v)]
    assert len(set(tabs)) > oracle.REALIZE_CACHE_SIZE
    first = realize_triple(tabs[0])
    for tab in tabs:
        realize_triple(tab)
    info = oracle._realize.cache_info()
    assert info.currsize <= oracle.REALIZE_CACHE_SIZE
    assert realize_triple(tabs[-1]) is realize_triple(tabs[-1])
    again = realize_triple(tabs[0])  # evicted, so built anew
    assert again is not first
    assert (again.x, again.h, again.ambient.gram) == \
        (first.x, first.h, first.ambient.gram)


def test_identify_cache_is_bounded_lru():
    """_identify keeps at most REALIZE_CACHE_SIZE tableaux: a value met
    again returns the same frozen tableau, and an evicted one is identified
    anew to an equal one."""
    reals = [realize_triple(tab) for v in iter_spaces(8)
             for tab in enumerate_orbits(v)]
    assert len(reals) > oracle.REALIZE_CACHE_SIZE

    def ident(r):
        return oracle._identify(Scaled(r.x, 1), r.ambient)

    oracle._identify.cache_clear()
    first = ident(reals[0])
    for r in reals:
        assert ident(r) == r.tableau
    assert oracle._identify.cache_info().currsize <= oracle.REALIZE_CACHE_SIZE
    assert ident(reals[-1]) is ident(reals[-1])
    again = ident(reals[0])  # evicted, so identified anew
    assert again is not first and again == first


def test_identify_cache_hits_match_fresh_identification():
    """Both moment values of seeded raising maps on every dual pair with
    dims <= (2, 4), over C and R: a second call is a hit returning the
    tableau of the first, equal to a fresh identification after
    cache_clear()."""
    rng = random.Random(23)
    cases = []
    for v, vp in _dual_pairs((2, 4)):
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        for _ in range(2):
            rm = sample_raising_map(v_real, vp_real, rng)
            cases += zip(_moment_values(rm), (rm.source, rm.target))
    assert {amb.space.base for _, amb in cases} == {"C", "R"}
    oracle._identify.cache_clear()
    first = [oracle._identify(x, amb) for x, amb in cases]
    misses = oracle._identify.cache_info().misses
    hits = [oracle._identify(x, amb) for x, amb in cases]
    assert oracle._identify.cache_info().misses == misses
    assert all(h is f for h, f in zip(hits, first))
    oracle._identify.cache_clear()
    assert hits == [oracle._identify(x, amb) for x, amb in cases]


def test_identify_errors_are_never_cached():
    """A matrix outside g raises NotInAlgebra and a non-nilpotent one
    NotNilpotent, on each of two calls, each a miss that leaves the cache
    as it was."""
    r = realize_triple(T211)
    n = r.ambient.n_real
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cases = [(Scaled(ident, 1), NotInAlgebra),
             (Scaled(r.h, 1), NotNilpotent)]
    oracle._identify.cache_clear()
    oracle._identify(Scaled(r.x, 1), r.ambient)
    for x, err in cases:
        for _ in range(2):
            before = oracle._identify.cache_info()
            with pytest.raises(err):
                oracle._identify(x, r.ambient)
            after = oracle._identify.cache_info()
            assert after.currsize == before.currsize == 1
            assert (after.hits, after.misses) == \
                (before.hits, before.misses + 1)


def test_corrupted_adjoint_is_refused_by_every_identify_path():
    """A RationalMap whose t_star is not T's adjoint: T*T and TT* leave
    o(1) and sp(2), and both moment_maps and _identify of each raw product
    raise NotInAlgebra."""
    src = realize_triple(zero_orbit(O1)).ambient
    tgt = realize_triple(zero_orbit(SP2)).ambient
    rm = replace(make_map(src, tgt, scaled(mat([[3], [5]]))),
                 t_star=Scaled(((1, 0),), 1))
    with pytest.raises(NotInAlgebra):
        moment_maps(rm)
    oracle._identify.cache_clear()
    for x, amb in zip(_moment_values(rm), (rm.source, rm.target)):
        with pytest.raises(NotInAlgebra):
            oracle._identify(x, amb)
    assert oracle._identify.cache_info().currsize == 0


def test_witness_sweep_identifies_each_moment_value_once():
    """Over the 483 (V, V', O') in the moment image with dims <= (4, 6),
    complex and real, construct_descent_element identifies both moment
    values of each witness: 966 _identify calls on an emptied cache, of
    which exactly the 183 distinct (value, ambient) pairs are misses."""
    oracle._identify.cache_clear()
    items = 0
    for v, vp in _dual_pairs((4, 6)):
        for op in enumerate_orbits(vp):
            if not in_moment_image(op, v):
                continue
            with contextlib.suppress(IdentityViolated):  # real-pair sign
                construct_descent_element(realize_triple(op), v)
            items += 1
    info = oracle._identify.cache_info()
    assert items == 483
    assert (info.hits + info.misses, info.misses) == (966, 183)


def test_random_isometry_preserves_form():
    rng = random.Random(3)
    for v in [SP4, O4, orthogonal_space(2, 1)]:
        amb = realize_triple(zero_orbit(v)).ambient
        g = random_isometry(amb, rng)
        assert mul(transpose(g), mul(amb.gram, g)) == amb.gram


def test_random_isometry_is_pinned():
    """The exact g at random.Random(0), and the number of draws it takes:
    O(2,1) at its principal orbit (a basis with denominators), U(1,1),
    Sp(1) and O(1,1), whose first two draws give a singular I + a."""
    cases = [
        (enumerate_orbits(orthogonal_space(2, 1))[0], 1,
         ["-1/5 -1/5 -1/5", "-4/5 1/5 6/5", "-4/5 6/5 -9/5"]),
        (zero_orbit(formed_space("R", "C", 1, signature=(1, 1))), 1,
         ["-25/17 2/17 -14/17 12/17", "-2/17 -25/17 -12/17 -14/17",
          "-18/17 -4/17 -23/17 10/17", "4/17 -18/17 -10/17 -23/17"]),
        (zero_orbit(formed_space("R", "H", 1, signature=(1, 0))), 1,
         ["-5/7 -4/7 -2/7 2/7", "4/7 -5/7 2/7 2/7", "2/7 -2/7 -5/7 -4/7",
          "-2/7 -2/7 4/7 -5/7"]),
        (zero_orbit(orthogonal_space(1, 1)), 3, ["-5/3 -4/3", "-4/3 -5/3"]),
    ]
    for tab, draws, want in cases:
        amb = realize_triple(tab).ambient
        rng = random.Random(0)
        g = random_isometry(amb, rng)
        assert [" ".join(map(str, row)) for row in g] == want
        ref = random.Random(0)
        for _ in range(draws * len(algebra_basis(amb))):
            ref.randint(-2, 2)
        assert rng.random() == ref.random()


def test_random_isometry_is_the_solve_of_i_plus_a_against_i_minus_a():
    """On every ambient with dim_F <= 8, at three rng states, g is the one
    that solving [den I + ai | den I - ai] gives, Fraction for Fraction,
    after the same draws."""
    for v in iter_spaces(8):
        amb = realize_triple(zero_orbit(v)).ambient
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            g, want = random_isometry(amb, rng), ref_random_isometry(amb, ref)
            assert g == want, v.render()
            assert all(type(x) is Fraction for row in g for x in row)
            assert rng.getstate() == ref.getstate()


def test_random_isometry_gives_up_after_fifty_singular_draws(monkeypatch):
    calls = []

    def singular(ai, den):
        calls.append(ai)
        raise ValueError("matrix is singular")

    monkeypatch.setattr(oracle, "cayley", singular)
    amb = realize_triple(zero_orbit(SP2)).ambient
    with pytest.raises(IdentityViolated, match=(
            "could not sample an invertible Cayley transform")):
        random_isometry(amb, random.Random(0))
    assert len(calls) == 50


def test_adjoint_identity():
    src = realize_triple(zero_orbit(O1)).ambient
    tgt = realize_triple(zero_orbit(SP2)).ambient
    t = mat([[3], [5]])
    rm = make_map(src, tgt, scaled(t))
    assert mul(transpose(fraction_mat(rm.t)), tgt.gram) == \
        mul(src.gram, fraction_mat(rm.t_star))


def test_moment_maps_zero():
    src = realize_triple(zero_orbit(O3)).ambient
    tgt = realize_triple(zero_orbit(SP4)).ambient
    rm = make_map(src, tgt, scaled(zeros(4, 3)))
    x, xp = moment_maps(rm)
    assert is_zero_mat(x) and is_zero_mat(xp)


def test_rank_one_real_map():
    src = realize_triple(zero_orbit(orthogonal_space(1, 0))).ambient
    tgt = realize_triple(zero_orbit(symplectic_space(2))).ambient
    rm = make_map(src, tgt, scaled(mat([[1], [0]])))
    x, xp = moment_maps(rm)
    assert is_zero_mat(x)  # o(1) = 0
    assert rank(xp) <= 1 and is_zero_mat(matpow(xp, 2))


def test_descent_witness_regular_sp2():
    src = realize_triple(REG2)
    rm = construct_descent_element(src, O1)
    x, xp = moment_maps(rm)
    assert is_zero_mat(x)
    assert xp == mat(src.x)
    # rank sequences of T*T and TT* differ here (0 vs 1 at k=1): adjoint
    # pairs over isotropic forms only satisfy the product interlacing below
    assert rank(x) == 0 and rank(xp) == 1


def test_moment_rank_interlacing():
    rng = random.Random(11)
    pairs = [(O1, SP2), (O3, SP4), (SP2, O4)]
    for v, vp in pairs:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        for _ in range(25):
            rm = sample_raising_map(v_real, vp_real, rng)
            x, xp = moment_maps(rm)
            for k in range(1, 5):
                assert rank(matpow(x, k + 1)) <= rank(matpow(xp, k))
                assert rank(matpow(xp, k + 1)) <= rank(matpow(x, k))


def test_descent_witness_kernel():
    src = realize_triple(T31_O4)
    rm = construct_descent_element(src, SP4)
    dr = src.ambient.dr
    assert len(nullspace(rm.t.ints)) == 2 * dr
    assert kernel_form_nondegenerate(rm)
    x, xp = moment_maps(rm)
    assert identify(x, rm.source) == T211
    assert identify(xp, rm.target) == T31_O4


def test_descent_witness_zero_source():
    src = realize_triple(zero_orbit(SP4))
    rm = construct_descent_element(src, O3)
    assert is_zero_mat(rm.t.ints)


def test_real_descent_witness():
    o21 = orthogonal_space(2, 1)
    op = tableau(o21, [(3, formed_space("R", "R", 1, signature=(1, 0)))])
    src = realize_triple(op)
    rm = construct_descent_element(src, symplectic_space(2))
    x, _ = moment_maps(rm)
    expect = tableau(symplectic_space(2),
                     [(2, formed_space("R", "R", 1, signature=(1, 0)))])
    assert identify(x, rm.source) == expect


def test_real_even_row_signature_flip():
    sp2r = symplectic_space(2)
    op = tableau(sp2r, [(2, formed_space("R", "R", 1, signature=(1, 0)))])
    src = realize_triple(op)
    with pytest.raises(IdentityViolated, match=(
            "descent witness does not recover the source orbit; its even "
            "rows carry an asymmetric signature that the moment map flips")):
        construct_descent_element(src, orthogonal_space(1, 0))


def test_degree_condition():
    """Every witness construct_descent_element returns over C and R with
    dims <= (4, 6) maps weight-k vectors into weight-(k+1) vectors, as its
    links pair weights t - 2r and t - 1 - 2r, or 1 and 0."""
    witnesses = 0
    for v in iter_spaces(4):
        for vp in iter_spaces(6):
            if (v.base, v.division) != (vp.base, vp.division) \
                    or v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                if not in_moment_image(op, v):
                    continue
                src = realize_triple(op)
                try:
                    rm = construct_descent_element(src, v)
                except IdentityViolated:
                    continue
                tgt = realize_triple(generalized_descent(op, v).target)
                dr = src.ambient.dr
                assert all(src.weights[p // dr] == tgt.weights[q // dr] + 1
                           for p, row in enumerate(rm.t.ints)
                           for q, val in enumerate(row) if val)
                witnesses += 1
    assert witnesses == 335


def test_descent_witness_rejects_planted_faults(monkeypatch):
    """Each remaining guard of the T31 -> T211 witness fails on its own
    planted fault: T*T identified as the zero orbit and a kernel form
    reported degenerate."""
    src = realize_triple(T31_O4)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_identify", lambda x, amb: zero_orbit(amb.space))
        with pytest.raises(IdentityViolated, match=(
                "moment map misses the descent target")) as exc:
            construct_descent_element(src, SP4)
    assert exc.value.context == {"expected": T211.to_json(),
                                 "got": zero_orbit(SP4).to_json()}
    with monkeypatch.context() as m:
        m.setattr(oracle, "kernel_form_nondegenerate", lambda rm: False)
        with pytest.raises(IdentityViolated, match=(
                "kernel of the descent witness is degenerate")):
            construct_descent_element(src, SP4)


def test_truncation_kernel_nondegenerate():
    from dualpairs import in_moment_image
    rng = random.Random(5)
    cases = [(SP2, O3), (SP2, O4), (complex_orthogonal_space(2), SP4),
             (O3, SP4)]
    checked = 0
    for v, vp in cases:
        for op in enumerate_orbits(vp):
            if op.is_zero_orbit:
                continue
            if not in_moment_image(op, v):
                continue
            src = realize_triple(op)
            t0 = construct_descent_element(src, v)
            g = random_isometry(t0.source, rng)
            s_map = make_map(t0.source, t0.target,
                             scaled(mul(fraction_mat(t0.t), g)))
            xp0 = moment_maps(t0)[1]
            assert moment_maps(s_map)[1] == xp0
            assert kernel_form_nondegenerate(s_map)
            checked += 1
    assert checked >= 8


def test_random_maps_land_in_lift_closure():
    from dualpairs import EmptyLift, closure_leq
    rng = random.Random(0)
    for v, vp in [(O3, SP4), (SP2, O4)]:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        contained = 0
        for _ in range(30):
            rm = sample_raising_map(v_real, vp_real, rng)
            x, xp = moment_maps(rm)
            o = identify(x, v_real.ambient)
            opp = identify(xp, vp_real.ambient)
            try:
                lifted = theta_lift(o, vp)
            except EmptyLift:
                continue
            assert closure_leq(opp, lifted)
            contained += 1
        assert contained > 0


def test_raising_map_draws_over_base_r_are_pinned():
    # U(1,1) x U(2,1) and O*(2) x Sp(1,1), top orbits: each raising
    # D-entry z is drawn as dr integers and written as its block L_z
    cases = [
        (formed_space("R", "C", -1, signature=(1, 1)),
         formed_space("R", "C", 1, signature=(2, 1)),
         [[3, -4, -8, 1], [4, 3, -1, -8], [0, 0, 7, -6], [0, 0, 6, 7],
          [0, 0, 0, 0], [0, 0, 0, 0]]),
        (formed_space("R", "H", -1, dim=1),
         formed_space("R", "H", 1, signature=(1, 1)),
         [[3, -4, 8, 1], [4, 3, 1, -8], [-8, -1, 3, -4], [-1, 8, 4, 3]]
         + [[0, 0, 0, 0]] * 4),
    ]
    for v, vp, want in cases:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        rm = sample_raising_map(v_real, vp_real, random.Random(0))
        assert rm.t == Scaled(tuple(map(tuple, want)), 1)


def test_raising_map_draws_over_base_c_are_pinned():
    # O(3,C) x Sp(4,C) and Sp(2,C) x O(4,C), top orbits: over the Q-form
    # each raising entry is one drawn integer
    cases = [(O3, SP4, [[3, 4, -8], [0, -1, 7], [0, 0, 6], [0, 0, 0]]),
             (SP2, O4, [[3, 4], [0, -8], [0, 0], [0, -1]])]
    for v, vp, want in cases:
        v_real = realize_triple(enumerate_orbits(v)[0])
        vp_real = realize_triple(enumerate_orbits(vp)[0])
        rm = sample_raising_map(v_real, vp_real, random.Random(0))
        assert rm.t == Scaled(tuple(map(tuple, want)), 1)


def test_centralizer_dims():
    amb4 = realize_triple(zero_orbit(SP4)).ambient
    assert centralizer_dim(zeros(4, 4), amb4) == 10
    reg = realize_triple(REG2)
    assert centralizer_dim(reg.x, reg.ambient) == 1
    r211 = realize_triple(T211)
    assert centralizer_dim(r211.x, r211.ambient) == 6
    assert isometry_group(SP4).lie_dim - 6 == 4  # orbit dimension


def test_constrained_nullity_matches_kernel():
    """The reference elimination's echelon-only nullity equals the size of
    its back-substituted kernel on the centralizer and graded systems of
    every realization with dim_F <= 4; centralizer kernel vectors lie in
    the algebra and commute with x."""
    count = 0
    for v in iter_spaces(4):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            amb, n = r.ambient, r.ambient.n_real
            full = [(i, j) for i in range(n) for j in range(n)]
            systems = [(full, [r.x])]
            for d in range(-2 * max(r.weights), 2 * max(r.weights) + 1):
                pairs = _graded_pairs_of(r, d)
                systems += [(pairs, []), (pairs, [r.x])]
            for pairs, commute in systems:
                kern = constrained_kernel(amb, pairs, commute).ints
                assert constrained_nullity(amb, pairs, commute) == len(kern)
            for vec in constrained_kernel(amb, full, [r.x]).ints:
                z = zeros(n, n)
                for (i, j), c in zip(full, vec):
                    z[i][j] = c
                assert in_algebra(scaled(z), amb) and \
                    mul(z, r.x) == mul(r.x, z)
            count += 1
    assert count == 62


def _graded_pairs_of(r, j):
    """The degree-j matrix entries of a realization, from its weights."""
    n, dr = r.ambient.n_real, r.ambient.dr
    wts = [r.weights[i // dr] for i in range(n)]
    return [(p, q) for p in range(n) for q in range(n) if wts[p] == wts[q] + j]


def test_graded_nullities_are_computed_once_per_realization(monkeypatch):
    """The graded questions of the witness sweep over every (V, V', O') in
    the moment image with dims <= (4, 6), complex and real: the centralizer
    of O' and dim g_-1 on both sides of its descent.  Each distinct
    realization's ambient has its classes of tied entries walked once,
    whatever degrees are asked of it."""
    oracle._realize.cache_clear()
    calls = []
    classes = oracle._classes

    def counted(*args):
        calls.append(args)
        return classes(*args)

    monkeypatch.setattr(oracle, "_classes", counted)
    items, realized = 0, set()
    for v in iter_spaces(4):
        for vp in iter_spaces(6):
            if (v.base, v.division) != (vp.base, vp.division) \
                    or v.epsilon * vp.epsilon != -1:
                continue
            for op in enumerate_orbits(vp):
                if not in_moment_image(op, v):
                    continue
                d = generalized_descent(op, v)
                verify_dimension_identity(d)
                oracle.triple_centralizer_dim(realize_triple(op))
                items += 1
                realized |= {d.target, op}
    # every realization stays cached, so each is built once
    assert len(realized) <= oracle.REALIZE_CACHE_SIZE
    assert items == 483
    assert len(calls) == len(realized) == 156


def test_memoized_graded_nullities_match_direct_elimination():
    """On every realization with dim_F <= 6, the ambient's classes inside
    the degree-j entries are the reference kernel on those entries, vector
    for vector, in order and over one denominator, and between them the
    degrees hold every class.  The grading and dim M_X equal the reference
    nullities, when computed and when read back."""
    for v in iter_spaces(6):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            amb, n = r.ambient, r.ambient.n_real
            span = 2 * max(r.weights, default=-1)
            held = 0
            for j in range(-span, span + 1):
                pairs = _graded_pairs_of(r, j)
                classes = [c for c in amb.classes if set(pairs) >= set(c)]
                basis = dense_basis(classes, n)
                cols = [p * n + q for p, q in pairs]
                assert Scaled(tuple(tuple(row[c] for c in cols)
                                    for row in basis.ints), basis.den) \
                    == constrained_kernel(amb, pairs, [])
                held += len(classes)
            assert held == len(amb.classes)
            cen = constrained_nullity(amb, _graded_pairs_of(r, 0), [r.x])
            for _ in range(2):
                assert oracle.triple_centralizer_dim(r) == cen
                dims = oracle.graded_dims(r)
                assert list(dims) == list(range(-span, span + 1))
                assert dims == {j: constrained_nullity(
                    amb, _graded_pairs_of(r, j), []) for j in dims}


def test_filled_memo_changes_nothing_outside_itself():
    """A realization with its grading and dim M_X cached, on an ambient with
    its classes cached, equals a fresh one of the same tableau, hashes the
    same and prints the same, and so does its ambient."""
    cached = {"grading", "dim_m_x", "classes"}
    for tab in (T211, enumerate_orbits(symplectic_space(4))[0]):
        r = realize_triple(tab)
        oracle.triple_centralizer_dim(r)
        oracle.graded_dims(r)
        assert set(vars(r)) | set(vars(r.ambient)) >= cached
        oracle._realize.cache_clear()
        fresh = realize_triple(tab)
        assert fresh is not r
        assert not (set(vars(fresh)) | set(vars(fresh.ambient))) & cached
        for a, b in ((fresh, r), (fresh.ambient, r.ambient)):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert not any(name in repr(b) for name in cached)


def test_cached_values_are_never_shared_or_handed_out():
    """replace(r, x=0) computes its own dim M_X, which is dim g_0, and not
    r's; graded_dims returns a copy, so changing it changes no later
    call."""
    r = realize_triple(T211)
    n = r.ambient.n_real
    dims = oracle.graded_dims(r)
    assert oracle.triple_centralizer_dim(r) == 3 < dims[0] == 4
    z = replace(r, x=((0,) * n,) * n)
    assert oracle.triple_centralizer_dim(z) == oracle.graded_dims(z)[0] == 4
    assert oracle.triple_centralizer_dim(r) == 3
    want = dict(dims)
    dims[0] += 1
    dims[99] = 1
    assert oracle.graded_dims(r) == want


def test_one_ambient_walks_its_tied_entries_once(monkeypatch):
    """random_isometry, centralizer_dim, graded_dims and
    triple_centralizer_dim on one new realization walk its classes of tied
    entries once between them."""
    walks = []
    classes = oracle._classes

    def counted(*args):
        walks.append(args)
        return classes(*args)

    monkeypatch.setattr(oracle, "_classes", counted)
    oracle._realize.cache_clear()
    r = realize_triple(enumerate_orbits(orthogonal_space(2, 1))[0])
    assert not walks
    random_isometry(r.ambient, random.Random(0))
    centralizer_dim(r.x, r.ambient)
    oracle.graded_dims(r)
    oracle.triple_centralizer_dim(r)
    assert len(walks) == 1


def test_dimension_identity_reports():
    rep = verify_dimension_identity(generalized_descent(T31_O4, SP4))
    assert rep.to_json() == {"dim_g_minus1": 2, "dim_gp_minus1": 0,
                             "dim_W0": 4, "dim_ker_T": 2, "dim_one_row": 1,
                             "lhs": 2, "rhs": 2}
    rep = verify_dimension_identity(
        generalized_descent(ctab(SP4, [(2, 1, 2)]),
                            complex_orthogonal_space(2)))
    assert (rep.lhs, rep.rhs) == (0, 0)
    assert (rep.dim_w0, rep.dim_ker_t) == (0, 0)
    rep = verify_dimension_identity(
        generalized_descent(ctab(O3, [(3, 1, 1)]), SP2))
    assert (rep.lhs, rep.rhs) == (0, 0)


def test_dimension_identity_rejects_a_planted_fault(monkeypatch):
    """A reduced_pair_dims that overstates dim W by one moves the right
    side off the graded dimensions: the check raises with its report."""
    dres = generalized_descent(T31_O4, SP4)
    dim_w, w0 = reduced_pair_dims(dres)
    monkeypatch.setattr(oracle, "reduced_pair_dims",
                        lambda d: (dim_w + 1, w0))
    with pytest.raises(IdentityViolated,
                       match="graded dimension identity fails") as exc:
        verify_dimension_identity(dres)
    report = exc.value.context["report"]
    assert (report["lhs"], report["rhs"]) == (2, 1)


def test_algebra_basis_spans_lie_dim():
    # each vector holds the n^2 entries of one algebra element, row-major
    for v in iter_spaces(6):
        amb = realize_triple(zero_orbit(v)).ambient
        n = amb.n_real
        basis = dense_basis(algebra_basis(amb), n).ints
        assert rank(basis) == len(basis) == isometry_group(v).lie_dim
        for vec in basis:
            z = tuple(vec[i:i + n] for i in range(0, n * n, n))
            assert in_algebra(Scaled(z, 1), amb)


def test_algebra_basis_and_nullities_match_the_reference_elimination():
    """On every realization with dim_F <= 8, algebra_basis is the reference
    elimination's kernel vector for vector, in order and over the same
    denominator, and the centralizer of x, each dim g_j of the grading and
    dim M_X equal the reference nullities."""
    count = 0
    for v in iter_spaces(8):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            amb, n = r.ambient, r.ambient.n_real
            full = [(i, j) for i in range(n) for j in range(n)]
            assert dense_basis(algebra_basis(amb), n) == \
                constrained_kernel(amb, full, [])
            assert centralizer_dim(fraction_mat(Scaled(r.x, 1)), amb) == \
                constrained_nullity(amb, full, [r.x])
            assert r.grading == {j: constrained_nullity(
                amb, _graded_pairs_of(r, j), []) for j in r.grading}
            assert r.dim_m_x == constrained_nullity(
                amb, _graded_pairs_of(r, 0), [r.x])
            count += 1
    assert count == 373


def _random_monomial_form(rng):
    """An ambient carrying only a random monomial Gram matrix B with
    B^T = eps B: an involution perm, fixed points only for eps = 1, and
    scales from 1 to 6 with num[perm k] = eps num[k], over a random den."""
    eps = rng.choice((1, -1))
    n = rng.randrange(0, 4) * 2 + (eps == 1 and rng.random() < 0.5)
    idx = list(range(n))
    rng.shuffle(idx)
    perm, num = [0] * n, [0] * n
    if n % 2:
        k = idx.pop()
        perm[k], num[k] = k, rng.choice((1, -1)) * rng.randint(1, 6)
    for k, q in zip(idx[::2], idx[1::2]):
        perm[k], perm[q] = q, k
        num[k] = rng.choice((1, -1)) * rng.randint(1, 6)
        num[q] = eps * num[k]
    gram = Monomial(tuple(perm), tuple(num), rng.randint(1, 4))
    return SimpleNamespace(gram_mono=gram, structure_monos=(), n_real=n)


def test_tied_entries_solve_random_monomial_forms():
    """On random monomial forms, with unequal scales that no realization
    has, algebra_basis is the reference kernel, and in_algebra agrees with
    the dense equations on random algebra elements and their
    corruptions."""
    rng = random.Random(24)
    for _ in range(300):
        amb = _random_monomial_form(rng)
        n = amb.n_real
        full = [(i, j) for i in range(n) for j in range(n)]
        basis = dense_basis(algebra_basis(amb), n)
        assert basis == constrained_kernel(amb, full, [])
        element = [0] * (n * n)
        for vec in basis.ints:
            c = rng.randint(-2, 2)
            element = [e + c * x for e, x in zip(element, vec)]
        z = [element[i:i + n] for i in range(0, n * n, n or 1)]
        assert in_algebra(Scaled(tuple(map(tuple, z)), 1), amb)
        if n:
            z[rng.randrange(n)][rng.randrange(n)] += 1
            z = tuple(map(tuple, z))
            assert in_algebra(Scaled(z, 1), amb) == _dense_in_algebra(z, amb)


def _dense_in_algebra(z, amb) -> bool:
    """z^T B + B z = 0 and zJ = Jz on the dense integer matrices."""
    b = dense(amb.gram_mono).ints
    lhs, rhs = int_mul(tuple(zip(*z)), b), int_mul(b, z)
    return all(x == -y for r1, r2 in zip(lhs, rhs) for x, y in zip(r1, r2)) \
        and all(int_mul(z, j) == int_mul(j, z)
                for j in (dense(m).ints for m in amb.structure_monos))


def test_in_algebra_matches_dense_equations_on_random_and_corrupted_matrices():
    """in_algebra, which checks only the nonzero entries, agrees with the
    dense equations on random integer matrices and random algebra elements
    and on every single-entry corruption of x and of those elements (one
    added to the entry, and a nonzero entry set to zero), on every
    realization with dim_F <= 6."""
    rng = random.Random(24)
    verdicts = {True: 0, False: 0}
    for v in iter_spaces(6):
        for tab in enumerate_orbits(v):
            r = realize_triple(tab)
            amb, n = r.ambient, r.ambient.n_real
            basis = dense_basis(algebra_basis(amb), n).ints
            element = [0] * (n * n)
            for vec in basis:
                c = rng.randint(-2, 2)
                element = [e + c * x for e, x in zip(element, vec)]
            element = tuple(tuple(element[i:i + n])
                            for i in range(0, n * n, n))
            cases = [tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                           for _ in range(n)) for _ in range(2)]
            for z in (r.x, element):
                cases.append(z)
                for p in range(n):
                    for q in range(n):
                        for new in {z[p][q] + 1, 0} - {z[p][q]}:
                            w = [list(row) for row in z]
                            w[p][q] = new
                            cases.append(tuple(map(tuple, w)))
            for z in cases:
                want = _dense_in_algebra(z, amb)
                assert in_algebra(Scaled(z, 1), amb) == want
                verdicts[want] += 1
    assert verdicts[True] > 300 and verdicts[False] > 10000


def test_non_square_input_is_not_in_the_algebra():
    """A matrix with a row of the wrong length, whichever row it is, is not
    in the algebra: identify and centralizer_dim raise NotInAlgebra."""
    amb = realize_triple(zero_orbit(SP2)).ambient
    for rows in ([[0, 0], [0, 0, 7]], [[0, 0], [0]], [[0, 0, 1], [0, 0]]):
        z = mat(rows)
        assert not in_algebra(scaled(z), amb)
        with pytest.raises(NotInAlgebra):
            identify(z, amb)
        with pytest.raises(NotInAlgebra):
            centralizer_dim(z, amb)
