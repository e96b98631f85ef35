"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction, vectors are flat lists of Fraction:
Fraction is the scalar type at the API.  Inside, the products work on
Python integers: `mul` clears the denominators of each row of its left
operand and each column of its right operand once, takes integer dot
products and builds one Fraction per output entry.  Monomial matrices (one
nonzero entry in each row and each column, like every reference Gram and
D-structure matrix) are also kept as a permutation with integer scales.
All routines tolerate zero-sized operands so that empty blocks (trivial
kernels, zero multiplicity spaces) flow through block constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul as _imul
from typing import NamedTuple

Mat = list
Vec = list


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def zeros(m: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(m)]


def eye(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def shape(a: Mat) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def copy_mat(a: Mat) -> Mat:
    return [row[:] for row in a]


def transpose(a: Mat) -> Mat:
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scal(c, a: Mat) -> Mat:
    c = frac(c)
    return [[c * x for x in row] for row in a]


_ZERO = Fraction(0)


def cleared(vec) -> tuple:
    """(integer numerators, common denominator) of a vector of rationals."""
    d = math.lcm(*[x.denominator for x in vec])
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // x.denominator) for x in vec], d


def cleared_mat(a: Mat) -> tuple:
    """(integer matrix, common denominator) with a = integer matrix / den."""
    d = math.lcm(*[x.denominator for row in a for x in row])
    if d == 1:
        return [[x.numerator for x in row] for row in a], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def _ratio(s: int, d: int) -> Fraction:
    if not s:
        return _ZERO
    return Fraction(s) if d == 1 else Fraction(s, d)


def mul(a: Mat, b: Mat) -> Mat:
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")
    cols = [cleared(col) for col in zip(*b)]
    out = []
    for row in a:
        ai, da = cleared(row)
        out.append([_ratio(sum(map(_imul, ai, bj)), da * db)
                    for bj, db in cols])
    return out


class Monomial(NamedTuple):
    """A matrix with one nonzero entry in each row and each column: row i
    holds num[i] / den in column perm[i]."""
    perm: tuple
    num: tuple
    den: int


def monomial(a: Mat) -> Monomial:
    """Monomial form of a square matrix; ValueError if it is not monomial."""
    perm, vals = [], []
    for i, row in enumerate(a):
        nz = [j for j, x in enumerate(row) if x]
        if len(nz) != 1:
            raise ValueError(f"row {i} has {len(nz)} nonzero entries, not 1")
        perm.append(nz[0])
        vals.append(row[nz[0]])
    if sorted(perm) != list(range(len(a))) or shape(a)[1] != len(a):
        raise ValueError("nonzero entries do not form a permutation")
    num, den = cleared(vals)
    return Monomial(tuple(perm), tuple(num), den)


def monomial_inv(m: Monomial) -> Monomial:
    n = len(m.perm)
    perm, vals = [0] * n, [_ZERO] * n
    for i, (j, c) in enumerate(zip(m.perm, m.num)):
        perm[j] = i
        vals[j] = Fraction(m.den, c)
    num, den = cleared(vals)
    return Monomial(tuple(perm), tuple(num), den)


def sandwich(left: Monomial, a: Mat, right: Monomial) -> Mat:
    """left * a * right for monomial left and right, in O(n^2):
    entry [p][right.perm[k]] is left_p * a[left.perm[p]][k] * right_k."""
    ai, da = cleared_mat(a)
    den = left.den * da * right.den
    out = []
    for lp, lc in zip(left.perm, left.num):
        row = [_ZERO] * len(right.perm)
        for q, x, rc in zip(right.perm, ai[lp], right.num):
            if x:
                row[q] = Fraction(lc * x * rc, den)
        out.append(row)
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((x * y for x, y in zip(row, v) if x), Fraction(0)) for row in a]


def matpow(a: Mat, k: int) -> Mat:
    n = len(a)
    out = eye(n)
    for _ in range(k):
        out = mul(out, a)
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    return sub(mul(a, b), mul(b, a))


def kron(a: Mat, b: Mat) -> Mat:
    ma, na = shape(a)
    mb, nb = shape(b)
    out = zeros(ma * mb, na * nb)
    for i in range(ma):
        for j in range(na):
            x = a[i][j]
            if not x:
                continue
            for k in range(mb):
                for l in range(nb):
                    out[i * mb + k][j * nb + l] = x * b[k][l]
    return out


def hstack(a: Mat, b: Mat) -> Mat:
    if not a:
        return copy_mat(b)
    if not b:
        return copy_mat(a)
    return [ra + rb for ra, rb in zip(a, b)]


def is_zero_mat(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def rref(a: Mat) -> tuple:
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = copy_mat(a)
    m, n = shape(r)
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        # pick the structurally simplest nonzero pivot in this column
        best = -1
        best_key = None
        for i in range(row, m):
            x = r[i][col]
            if x:
                key = (abs(x.numerator) != abs(x.denominator),
                       abs(x.numerator) + x.denominator)
                if best < 0 or key < best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        r[row], r[best] = r[best], r[row]
        piv = r[row][col]
        if piv != 1:
            inv_p = Fraction(1) / piv
            r[row] = [x * inv_p for x in r[row]]
        rr = r[row]
        for i in range(m):
            if i != row and r[i][col]:
                f = r[i][col]
                ri = r[i]
                for j in range(col, n):
                    if rr[j]:
                        ri[j] -= f * rr[j]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: Mat) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Mat) -> list:
    """Basis of the right kernel, one vector per free column."""
    m, n = shape(a)
    if n == 0:
        return []
    if m == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(n)]
                for i in range(n)]
    r, pivots = rref(a)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def inv(a: Mat) -> Mat:
    n = len(a)
    aug = hstack(a, eye(n))
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def sylvester_signature(b: Mat) -> tuple:
    """Inertia (pos, neg, zero) of a symmetric rational matrix.

    Symmetric congruence reduction; exact, no eigenvalues needed.
    """
    a = copy_mat(b)
    n = len(a)
    pos = negv = zero = 0
    idx = list(range(n))
    start = 0
    while start < n:
        # find a nonzero diagonal pivot
        dpiv = -1
        for i in range(start, n):
            if a[idx[i]][idx[i]]:
                dpiv = i
                break
        if dpiv < 0:
            # hyperbolic trick: a[j][k] != 0 off-diagonal makes a[j][j] nonzero
            found = False
            for i in range(start, n):
                for j in range(i + 1, n):
                    if a[idx[i]][idx[j]]:
                        ii, jj = idx[i], idx[j]
                        for t in range(n):
                            a[ii][t] += a[jj][t]
                        for t in range(n):
                            a[t][ii] += a[t][jj]
                        found = True
                        break
                if found:
                    break
            if not found:
                zero += n - start
                break
            continue
        idx[start], idx[dpiv] = idx[dpiv], idx[start]
        p = idx[start]
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            negv += 1
        for i in range(start + 1, n):
            q = idx[i]
            if a[q][p]:
                f = a[q][p] / d
                for t in range(n):
                    a[q][t] -= f * a[p][t]
                for t in range(n):
                    a[t][q] -= f * a[t][p]
        start += 1
    return pos, negv, zero
