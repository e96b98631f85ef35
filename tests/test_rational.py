from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.rational import (add, eye, inv, is_zero_mat, kron, mat,
                                mat_vec, mul, nullspace, rank, rref, shape,
                                sub, sylvester_signature, transpose, zeros)


def small_mat(m, n):
    return st.lists(
        st.lists(st.integers(-6, 6).map(Fraction), min_size=n, max_size=n),
        min_size=m, max_size=m)


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
