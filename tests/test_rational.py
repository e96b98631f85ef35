import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.rational import (Monomial, Scaled, _reduced, _solved, cayley,
                                dense, echelon, eye, fraction_mat, inv,
                                kernel, monomial_inv, monomial_rows, mul,
                                sandwich, scaled, scaled_mul, shape,
                                sylvester_signature, transpose, zeros)
from helpers import (add, block_diag, kron, mat, nullspace, rank, scal,
                     sparse_rows)

SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def small_mat(m, n, entries=SMALL):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=m, max_size=m)


def textbook_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@st.composite
def mul_operands(draw):
    """Two conformable matrices; entries mix Fractions over denominators
    1..6 with plain ints, and the inner dimension may be 1."""
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    entries = st.one_of(SMALL, st.integers(-6, 6))
    return draw(small_mat(m, k, entries)), draw(small_mat(k, n, entries))


@settings(max_examples=200, deadline=None)
@given(mul_operands())
def test_mul_matches_textbook_triple_loop(ab):
    a, b = ab
    got = mul(a, b)
    assert got == textbook_mul(a, b)
    assert all(type(x) is Fraction for row in got for x in row)


def test_monomial_round_trip_and_sandwich():
    a = mat([[0, Fraction(-1, 2), 0], [0, 0, 3], [Fraction(2, 3), 0, 0]])
    m = Monomial((1, 2, 0), (-3, 18, 4), 6)
    assert dense(m) == Scaled(((0, -3, 0), (0, 0, 18), (4, 0, 0)), 6)
    assert fraction_mat(dense(m)) == a
    assert dense(Monomial((), (), 1)) == Scaled((), 1)
    v = [[4, -2, 6], [1, 0, -1]]
    assert monomial_rows(m, v) == [[m.den * x for x in row]
                                   for row in mul(v, transpose(a))]
    m_inv = monomial_inv(m)
    c = mat([[1, Fraction(1, 5), 2], [0, -3, Fraction(7, 2)], [4, 1, 0]])
    assert fraction_mat(sandwich(m, scaled(c), m_inv)) == mul(a, mul(c, inv(a)))
    assert fraction_mat(sandwich(m_inv, scaled(eye(3)), m)) == eye(3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda m: st.integers(0, 4).flatmap(
    lambda n: small_mat(m, n, st.one_of(SMALL, st.integers(-6, 6))))))
def test_scaled_round_trip(a):
    s = scaled(a)
    assert s.den == math.lcm(*[Fraction(x).denominator for row in a for x in row])
    assert all(type(x) is int for row in s.ints for x in row)
    assert fraction_mat(s) == a
    assert all(type(x) is Fraction for row in fraction_mat(s) for x in row)


def test_scaled_zero_sized_operands():
    assert scaled([]) == Scaled((), 1) and fraction_mat(Scaled((), 1)) == []
    assert scaled([[], []]) == Scaled(((), ()), 1)
    assert fraction_mat(Scaled(((), ()), 5)) == [[], []]
    a = scaled(mat([[1, 2, 3], [4, 5, 6]]))
    assert scaled_mul(scaled([]), a) == Scaled((), 1)
    assert scaled_mul(a, Scaled(((), (), ()), 2)) == Scaled(((), ()), 2)


def test_scaled_mul_denominator_is_the_product():
    a = mat([[Fraction(1, 2), Fraction(1, 3)], [1, 0]])
    b = mat([[Fraction(2, 5), 0, 1], [Fraction(1, 7), 3, 0]])
    assert (scaled(a).den, scaled(b).den) == (6, 35)
    p = scaled_mul(scaled(a), scaled(b))
    assert p.den == 6 * 35
    assert fraction_mat(p) == mul(a, b)


def test_integer_sandwich_matches_dense_product():
    """B^-1 A B' on integers for monomial B (n x n) and B' (m x m) and an
    n x m A, as make_map writes an adjoint: against the dense product, and
    over the product of the three denominators."""
    rng = random.Random(4)

    def random_monomial(n):
        perm = list(range(n))
        rng.shuffle(perm)
        s = scaled([[Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                     for _ in perm]])
        return Monomial(tuple(perm), s.ints[0], s.den)

    for n, m in ((1, 1), (2, 3), (4, 2), (3, 3)):
        b, bp = random_monomial(n), random_monomial(m)
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
             for _ in range(n)]
        left, right = monomial_inv(b), bp
        got = sandwich(left, scaled(a), right)
        assert got.den == left.den * scaled(a).den * right.den
        assert fraction_mat(got) == mul(inv(fraction_mat(dense(b))),
                                        mul(a, fraction_mat(dense(bp))))


def over_leads(a, b):
    """a^-1 b read from _solved on the integer rows of [a | b]: row i is
    pivot row i's entries in b's columns over its lead."""
    n, m = len(a), shape(b)[1]
    rows = _solved(sparse_rows([[*ra, *rb] for ra, rb in zip(a, b)]), n)
    return [[Fraction(r.get(n + j, 0), r[i]) for j in range(m)]
            for i, r in enumerate(rows)]


def textbook_rref(a):
    """Dense Gauss-Jordan on Fractions: (R, pivot columns)."""
    r = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for col in range(shape(a)[1]):
        k = len(pivots)
        i = next((i for i in range(k, len(r)) if r[i][col]), None)
        if i is None:
            continue
        r[k], r[i] = r[i], r[k]
        r[k] = [x / r[k][col] for x in r[k]]
        for i in range(len(r)):
            if i != k and r[i][col]:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[k])]
        pivots.append(col)
    return r, pivots


@st.composite
def elimination_input(draw):
    """A matrix with mostly zero entries over denominators 1..6, built row
    by row from new rows, zero rows and rational multiples of earlier rows;
    m = 0, n = 0, wide and tall shapes all occur."""
    n = draw(st.integers(0, 6))
    entries = st.one_of(st.just(Fraction(0)), SMALL)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["new", "zero", "repeat"]),
                              max_size=7)):
        if kind == "repeat" and rows:
            c = draw(SMALL)
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([Fraction(0)] * n)
        else:
            rows.append(draw(small_mat(1, n, entries))[0])
    return rows


def textbook_nullspace(a):
    """One vector per free column of the textbook RREF: 1 there, minus the
    RREF's entries in that column at the pivots."""
    r, pivots = textbook_rref(a)
    n = shape(a)[1]
    out = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        out.append(v)
    return out


@settings(max_examples=300, deadline=None)
@given(elimination_input())
def test_elimination_matches_textbook_gauss_jordan(a):
    m, n = shape(a)
    r, pivots = textbook_rref(a)
    # the reduced pivots are the RREF's nonzero rows up to a positive scale
    reduced = _reduced(sparse_rows(a))
    assert sorted(reduced) == pivots
    for row, c in zip(r, pivots):
        p = reduced[c]
        assert p[c] > 0 and all(type(x) is int for x in p.values())
        assert [Fraction(p.get(j, 0), p[c]) for j in range(n)] == row
    assert len(echelon(sparse_rows(a))) == len(pivots)
    assert nullspace(a) == textbook_nullspace(a)
    if m == n:
        if len(pivots) < n:
            with pytest.raises(ValueError):
                inv(a)
        else:
            aug = [row + [Fraction(int(i == j)) for j in range(n)]
                   for i, row in enumerate(a)]
            assert inv(a) == [row[n:] for row in textbook_rref(aug)[0]]


@settings(max_examples=200, deadline=None)
@given(elimination_input())
def test_echelon_invariants(a):
    pivots = echelon(sparse_rows(a))
    assert sorted(pivots) == textbook_rref(a)[1]
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1


@st.composite
def rows_over_own_denominators(draw):
    """An m x (m + k) matrix whose row i is integers over its own
    denominator d_i, some rows rational multiples of earlier ones, so the
    least common denominator of the matrix scales its rows differently."""
    m, k = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    rows = []
    for _ in range(m):
        den = draw(st.integers(1, 12))
        if rows and draw(st.booleans()):
            c = Fraction(draw(st.integers(-4, 4)), den)
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append([Fraction(x, den) for x in draw(st.lists(
                st.integers(-6, 6), min_size=m + k, max_size=m + k))])
    return rows


def rows_cleared_one_by_one(a):
    """Sparse integer rows of a, each row times the lcm of its own
    denominators."""
    out = []
    for row in a:
        d = math.lcm(*[x.denominator for x in row])
        out.append({j: int(x * d) for j, x in enumerate(row) if x})
    return out


@settings(max_examples=300, deadline=None)
@given(rows_over_own_denominators())
def test_one_common_denominator_changes_no_pivot(a):
    """sparse_rows clears a over one common denominator, a positive
    multiple of each row cleared on its own, and every pivot row is kept
    primitive with a positive lead: echelon, the reduced pivots, kernel
    and _solved come out identical."""
    m, n = shape(a)
    assert echelon(sparse_rows(a)) == echelon(rows_cleared_one_by_one(a))
    pivots = _reduced(rows_cleared_one_by_one(a))
    assert _reduced(sparse_rows(a)) == pivots
    assert kernel(sparse_rows(a), n) == kernel(rows_cleared_one_by_one(a), n)
    square, rest = [row[:m] for row in a], [row[m:] for row in a]
    if any(i not in pivots for i in range(m)):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            _solved(sparse_rows(a), m)
    else:
        assert _solved(sparse_rows(a), m) == [pivots[i] for i in range(m)]


def test_shapes_and_identity():
    assert shape(zeros(2, 3)) == (2, 3)
    assert eye(3) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    a = mat([[1, 2], [3, 4]])
    assert mul(eye(2), a) == a
    assert mul(a, eye(2)) == a
    with pytest.raises(ValueError, match=r"^shape mismatch \(2, 3\) x \(2, 2\)$"):
        mul(zeros(2, 3), a)


@settings(max_examples=300, deadline=None)
@given(elimination_input())
def test_kernel_is_the_textbook_nullspace_over_one_denominator(a):
    """kernel's integer vectors are den times the textbook nullspace's, den
    one positive int shared by all of them."""
    k = kernel(sparse_rows(a), shape(a)[1])
    assert type(k.den) is int and k.den > 0
    assert all(type(x) is int for row in k.ints for x in row)
    assert [[k.den * x for x in v] for v in textbook_nullspace(a)] == \
        [list(row) for row in k.ints]


def test_solve_and_kernel_known():
    a = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert rank(a) == 2
    # RREF rows (1, 0, -1) and (0, 1, 2): one kernel vector, leads 1
    assert kernel(sparse_rows(a), 3) == Scaled(((1, -2, 1),), 1)
    # leads 2 and 3 put both vectors over their lcm 6
    assert kernel(sparse_rows([[2, 0, 1, 0], [0, 3, 0, 1]]), 4) == \
        Scaled(((-3, 0, 6, 0), (0, -2, 0, 6)), 6)
    assert kernel([], 2) == Scaled(((1, 0), (0, 1)), 1)
    assert kernel(sparse_rows([[1, 0], [0, 5]]), 2) == Scaled((), 1)
    with pytest.raises(ValueError, match="^matrix is singular$"):
        over_leads(a, [[1], [0], [0]])
    with pytest.raises(ValueError, match="^matrix is singular$"):
        inv(a)
    b = [[1, 0], [0, 1], [Fraction(1, 2), 4]]
    c = [[2, 1, 0], [1, 1, 0], [0, 0, 3]]
    # [c | b] over 2: the pivot rows of [I | c^-1 b] times 1, 1 and 6
    assert _solved(sparse_rows([[*rc, *rb] for rc, rb in zip(c, b)]), 3) == \
        [{0: 1, 3: 1, 4: -1}, {1: 1, 3: -1, 4: 2}, {2: 6, 3: 1, 4: 8}]
    got = over_leads(c, b)
    assert got == [[1, -1], [-1, 2], [Fraction(1, 6), Fraction(4, 3)]]
    assert mul(c, got) == b
    c_inv = inv(c)
    assert c_inv == [[1, -1, 0], [-1, 2, 0], [0, 0, Fraction(1, 3)]]
    assert all(type(x) is Fraction for row in c_inv for x in row)
    assert _solved([], 0) == [] and inv([]) == []


@settings(max_examples=40, deadline=None)
@given(small_mat(3, 4))
def test_rank_transpose(a):
    assert rank(a) == rank(transpose(a))


@settings(max_examples=40, deadline=None)
@given(small_mat(3, 4))
def test_nullspace_dimension_and_membership(a):
    ns = nullspace(a)
    assert len(ns) == 4 - rank(a)
    for v in ns:
        assert mul(a, transpose([v])) == zeros(3, 1)


SQUARE = st.integers(0, 4).flatmap(lambda n: small_mat(
    n, n, st.one_of(st.just(Fraction(0)), SMALL, st.integers(-3, 3))))


@settings(max_examples=200, deadline=None)
@given(SQUARE, st.integers(0, 3))
def test_solve_matches_textbook_gauss_jordan(a, width):
    """_solved and inv on square inputs, singular (a third of the entries
    are 0) and not, against the RREF of [a | b] for an int b of any width
    and of [a | I]."""
    n = len(a)
    b = [[i - 2 * j + 1 for j in range(width)] for i in range(n)]
    r, pivots = textbook_rref([row + brow for row, brow in zip(a, b)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            over_leads(a, b)
        with pytest.raises(ValueError, match="^matrix is singular$"):
            inv(a)
    else:
        assert over_leads(a, b) == [row[n:] for row in r[:n]]
        r, _ = textbook_rref([row + [int(i == j) for j in range(n)]
                              for i, row in enumerate(a)])
        assert inv(a) == [row[n:] for row in r]


@st.composite
def cayley_input(draw):
    """(ai, den) for a square integer ai of size 1 to 5; in about half the
    cases one row of den I + ai is zero, so that it is singular."""
    n, den = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ai = draw(small_mat(n, n, st.integers(-4, 4)))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        ai[k] = [-den if j == k else 0 for j in range(n)]
    return ai, den


@settings(max_examples=200, deadline=None)
@given(cayley_input())
def test_cayley_is_the_textbook_cayley_transform(case):
    """cayley(ai, den) is (I + a)^-1 (I - a) for a = ai / den, with
    (I + a)^-1 from the RREF of [I + a | I], in Fractions throughout."""
    ai, den = case
    n = len(ai)
    a = [[Fraction(x, den) for x in row] for row in ai]
    one = eye(n)
    r, pivots = textbook_rref([[one[i][j] + x for j, x in enumerate(row)]
                               + one[i] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            cayley(ai, den)
        return
    minus = [[one[i][j] - x for j, x in enumerate(row)]
             for i, row in enumerate(a)]
    g = cayley(ai, den)
    assert g == textbook_mul([row[n:] for row in r], minus)
    assert all(type(x) is Fraction for row in g for x in row)


def test_cayley_known():
    # a rotation by a quarter turn, from a = [[0, 1], [-1, 0]]
    assert cayley([[0, 1], [-1, 0]], 1) == [[0, -1], [1, 0]]
    # a = [[1/2]]: (1 - 1/2) / (1 + 1/2)
    assert cayley([[1]], 2) == [[Fraction(1, 3)]]
    assert cayley([], 1) == []
    with pytest.raises(ValueError, match="^matrix is singular$"):
        cayley([[-2, 0], [5, 1]], 2)


@settings(max_examples=30, deadline=None)
@given(small_mat(3, 3))
def test_inverse(a):
    b = [[i - 2 * j for j in range(2)] for i in range(3)]  # int entries
    if rank(a) == 3:
        assert mul(a, inv(a)) == eye(3)
        assert over_leads(a, b) == mul(inv(a), b)
    else:
        with pytest.raises(ValueError):
            inv(a)
        with pytest.raises(ValueError):
            over_leads(a, b)


@settings(max_examples=20, deadline=None)
@given(small_mat(2, 2), small_mat(2, 2), small_mat(2, 2), small_mat(2, 2))
def test_kron_mixed_product(a, b, c, d):
    assert mul(kron(a, b), kron(c, d)) == kron(mul(a, c), mul(b, d))


def test_sylvester_signature():
    assert sylvester_signature([[2, 0], [0, -3]]) == (1, 1, 0)
    # hyperbolic plane: no nonzero diagonal entry to pivot on
    assert sylvester_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert sylvester_signature([[1, 1], [1, 1]]) == (1, 0, 1)
    assert sylvester_signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert sylvester_signature([]) == (0, 0, 0)
    # int entries near 1e20 with det = -1: floats would round to (1, 0, 1)
    big = [[10**20, 10**20 + 1], [10**20 + 1, 10**20 + 2]]
    assert sylvester_signature(big) == (1, 1, 0)
    assert big == [[10**20, 10**20 + 1], [10**20 + 1, 10**20 + 2]]
    # a zero diagonal after the first pivot, entries near 1e20
    e = 10**20
    assert sylvester_signature([[e, e, e], [e, e, e + 1],
                                [e, e + 1, e]]) == (2, 1, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1, 0, 1]), max_size=6),
       st.lists(st.integers(-3, 3), min_size=36, max_size=36),
       st.sampled_from([1, 7, 10**20]))
def test_sylvester_signature_of_congruent_integer_matrices(signs, draws, c):
    """c P^T D P for a diagonal D of signs and P = LU, L and U unit
    triangular with the random draws off the diagonal, has D's inertia;
    for c = 1e20 the entries lie far beyond the precision of a float."""
    n = len(signs)
    lower, upper = ([[int(i == j) or (draws[i * 6 + j] if side(i, j) else 0)
                      for j in range(n)] for i in range(n)]
                    for side in (int.__gt__, int.__lt__))
    p = mul(lower, upper)  # det 1
    d = [[c * signs[i] * (i == j) for j in range(n)] for i in range(n)]
    b = scaled(mul(transpose(p), mul(d, p))).ints
    want = (signs.count(1), signs.count(-1), signs.count(0))
    assert sylvester_signature(b) == want


@settings(max_examples=30, deadline=None)
@given(small_mat(3, 3))
def test_sylvester_counts_congruence_invariant(a):
    b = scaled(add(a, transpose(a))).ints  # symmetrize, clear denominators
    p, n, z = sylvester_signature(b)
    assert p + n + z == 3
    assert p + n == rank(b)


def test_matrix_ring_ops():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert mul(a, b) == mat([[2, 1], [4, 3]])
    assert transpose(mul(a, b)) == mul(transpose(b), transpose(a))
    assert mul(scal(Fraction(-1, 2), a), b) == scal(Fraction(-1, 2), mul(a, b))
    assert block_diag([a, b]) == add(kron(mat([[1, 0], [0, 0]]), a),
                                     kron(mat([[0, 0], [0, 1]]), b))
