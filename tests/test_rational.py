from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.rational import (add, eye, inv, is_zero_mat, kron, mat,
                                mat_vec, monomial, monomial_inv, mul,
                                nullspace, rank, rref, sandwich, shape, sub,
                                sylvester_signature, transpose, zeros)

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
    m = monomial(a)
    assert m.perm == (1, 2, 0)
    assert [Fraction(c, m.den) for c in m.num] == [Fraction(-1, 2), 3,
                                                   Fraction(2, 3)]
    m_inv = monomial_inv(m)
    c = mat([[1, Fraction(1, 5), 2], [0, -3, Fraction(7, 2)], [4, 1, 0]])
    assert sandwich(m, c, m_inv) == mul(a, mul(c, inv(a)))
    assert sandwich(m_inv, eye(3), m) == eye(3)


def test_monomial_rejects_non_monomial_rows():
    with pytest.raises(ValueError):
        monomial(mat([[0, 1], [0, 0]]))          # a row with no nonzero entry
    with pytest.raises(ValueError):
        monomial(mat([[1, 1], [0, 1]]))          # a row with two
    with pytest.raises(ValueError):
        monomial(mat([[1, 0], [2, 0]]))          # two rows share a column


def test_shapes_and_identity():
    assert shape(zeros(2, 3)) == (2, 3)
    assert eye(3) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    a = mat([[1, 2], [3, 4]])
    assert mul(eye(2), a) == a
    assert mul(a, eye(2)) == a


def test_rref_known():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(a)
    assert rank(a) == 2
    assert pivots == [0, 1]
    assert r[0][:2] == [Fraction(1), Fraction(0)]


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
        assert all(x == 0 for x in mat_vec(a, v))


@settings(max_examples=30, deadline=None)
@given(small_mat(3, 3))
def test_inverse(a):
    if rank(a) == 3:
        assert mul(a, inv(a)) == eye(3)
    else:
        with pytest.raises(ValueError):
            inv(a)


@settings(max_examples=20, deadline=None)
@given(small_mat(2, 2), small_mat(2, 2), small_mat(2, 2), small_mat(2, 2))
def test_kron_mixed_product(a, b, c, d):
    assert mul(kron(a, b), kron(c, d)) == kron(mul(a, c), mul(b, d))


def test_sylvester_signature():
    assert sylvester_signature(mat([[2, 0], [0, -3]])) == (1, 1, 0)
    # hyperbolic plane: no nonzero diagonal entry to pivot on
    assert sylvester_signature(mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert sylvester_signature(mat([[1, 1], [1, 1]])) == (1, 0, 1)
    assert sylvester_signature(zeros(2, 2)) == (0, 0, 2)


@settings(max_examples=30, deadline=None)
@given(small_mat(3, 3))
def test_sylvester_counts_congruence_invariant(a):
    b = add(a, transpose(a))  # symmetrize
    p, n, z = sylvester_signature(b)
    assert p + n + z == 3
    assert p + n == rank(b)


def test_matrix_ring_ops():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert sub(add(a, b), b) == a
    assert is_zero_mat(sub(a, a))
