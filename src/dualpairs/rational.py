"""Exact linear algebra over the rationals.

A matrix is a list of rows of Fraction (an integral matrix may hold int
entries), a vector a flat list of Fraction.  `Scaled` carries a rational
matrix as one integer matrix over one positive common denominator, so that
a chain of products and checks runs on Python integers and builds
Fractions only at its end.  There is one way into the integers and one way
out: `scaled` is the only routine that splits a Fraction into numerator and
denominator, and `_ratio` (for `fraction_mat` and the per-row leads of
`inv` and `cayley`) builds the Fractions again.  `mul` is `scaled_mul`
between the two.  Monomial matrices (one nonzero entry in each row and each
column, like every reference Gram and D-structure matrix) are kept as a
permutation with integer scales over one denominator, built entry by entry
(there is no parser from dense form); `dense` writes one out as its Scaled
integer matrix, `monomial_rows` applies one to integer vectors and
`sandwich` multiplies a scaled matrix by one on each side.
Elimination is fraction-free on sparse integer rows {column: nonzero int}:
`echelon` reduces each row against the pivot of its smallest column and
keeps every pivot row primitive; its size is the rank.  One
back-substitution gives the reduced pivots: `kernel` reads them as a
Scaled basis, and `_solved`, the one solve core, as the pivot rows of
[a | b] for a square a; its readouts `inv` and `cayley` build Fractions
only for their entries, each over its row's lead.
`sylvester_signature` counts the inertia of a symmetric integer matrix by
fraction-free congruence.  All routines tolerate zero-sized operands so
that empty blocks (trivial kernels, zero multiplicity spaces) flow through
block constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul as _imul
from typing import NamedTuple

Mat = list


def zeros(m: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(m)]


def eye(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def shape(a: Mat) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Mat) -> Mat:
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


_ZERO = Fraction(0)


def _ratio(s: int, d: int) -> Fraction:
    if not s:
        return _ZERO
    return Fraction(s) if d == 1 else Fraction(s, d)


def int_mul(a, b) -> tuple:
    """Product of two integer matrices (sequences of int rows), as a tuple
    of int tuples."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(_imul, row, col)) for col in cols])
                  for row in a])


class Scaled(NamedTuple):
    """The rational matrix ints / den: an integer matrix, a tuple of int
    tuples, over one positive common denominator."""
    ints: tuple
    den: int


def scaled(a: Mat) -> Scaled:
    """a as an integer matrix over the least common denominator of its
    entries."""
    d = math.lcm(*[x.denominator for row in a for x in row])
    if d == 1:
        return Scaled(tuple([tuple([x.numerator for x in row])
                             for row in a]), 1)
    return Scaled(tuple([tuple([x.numerator * (d // x.denominator)
                                for x in row]) for row in a]), d)


def fraction_mat(a: Scaled) -> Mat:
    """The Fraction matrix a.ints / a.den."""
    d = a.den
    return [[_ratio(x, d) for x in row] for row in a.ints]


def scaled_mul(a: Scaled, b: Scaled) -> Scaled:
    """The product, over the product of the denominators."""
    return Scaled(int_mul(a.ints, b.ints), a.den * b.den)


def mul(a: Mat, b: Mat) -> Mat:
    if shape(a)[1] != shape(b)[0]:
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")
    return fraction_mat(scaled_mul(scaled(a), scaled(b)))


class Monomial(NamedTuple):
    """A matrix with one nonzero entry in each row and each column: row i
    holds num[i] / den in column perm[i]."""
    perm: tuple
    num: tuple
    den: int


def monomial_inv(m: Monomial) -> Monomial:
    """Row perm[i] holds den / num[i], over L = lcm(|num|), and then the
    numerators and L are divided by their gcd."""
    n = len(m.perm)
    big = math.lcm(*m.num)
    perm, num = [0] * n, [0] * n
    for i, (j, c) in enumerate(zip(m.perm, m.num)):
        perm[j] = i
        num[j] = m.den * (big // c)
    g = math.gcd(big, *num)
    return Monomial(tuple(perm), tuple(v // g for v in num), big // g)


def dense(m: Monomial) -> Scaled:
    """The integer matrix of m over m.den."""
    n = len(m.perm)
    return Scaled(tuple([tuple([c if q == j else 0 for q in range(n)])
                         for j, c in zip(m.perm, m.num)]), m.den)


def monomial_rows(m: Monomial, vectors) -> list:
    """m.den * m v for each integer vector v, as int lists: entry p is
    m.num[p] * v[m.perm[p]]."""
    return [[c * v[q] for q, c in zip(m.perm, m.num)] for v in vectors]


def sandwich(left: Monomial, a: Scaled, right: Monomial) -> Scaled:
    """left * a * right for monomial left and right, in O(n^2):
    entry [p][right.perm[k]] is left_p * a[left.perm[p]][k] * right_k."""
    n = len(right.perm)
    out = []
    for lp, lc in zip(left.perm, left.num):
        row = [0] * n
        for q, x, rc in zip(right.perm, a.ints[lp], right.num):
            row[q] = lc * x * rc
        out.append(tuple(row))
    return Scaled(tuple(out), left.den * a.den * right.den)


def int_rows(a) -> list:
    """Rows of an integer matrix as {column: nonzero int}."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _cancel(r: dict, p: dict, col: int):
    """r <- a*r - b*p in place, where col is p's leading column and a, b
    (divided by gcd(a, b)) cancel the entry of r at col."""
    a, b = p[col], r[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, x in p.items():
        y = r.get(j, 0) - b * x
        if y:
            r[j] = y
        else:
            del r[j]


def _primitive(r: dict) -> dict:
    """r divided in place by its content, with a positive leading entry."""
    g = math.gcd(*r.values())
    if r[min(r)] < 0:
        g = -g
    if g != 1:
        for j in r:
            r[j] //= g
    return r


def echelon(rows) -> dict:
    """Fraction-free row echelon form of integer rows {column: nonzero int}.

    Each row is reduced in place (the rows are consumed) against the pivot
    of its smallest column until it vanishes or its smallest column has no
    pivot; it then becomes that column's pivot, divided by its content.
    Returns {leading column: primitive row}; its size is the rank."""
    pivots = {}
    for r in rows:
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _primitive(r)
                break
            _cancel(r, p, lead)
    return pivots


def _reduced(rows) -> dict:
    """The echelon form back-substituted to the RREF up to a positive scale
    per row: each primitive row is zero at every other pivot column."""
    pivots = echelon(rows)
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        # pivots right of c are already reduced, so cancelling one adds
        # entries only in free columns
        for k in [k for k in r if k != c and k in pivots]:
            _cancel(r, pivots[k], k)
        _primitive(r)
    return pivots


def kernel(rows, n: int) -> Scaled:
    """Basis of the right kernel of integer rows over n columns, one vector
    per free column, over den, the lcm of the reduced pivots' leads: den
    at its free column, -den / lead times each pivot's entry in that column
    at the pivot's column, 0 elsewhere."""
    pivots = _reduced(rows)
    den = math.lcm(*[r[c] for c, r in pivots.items()])
    free = {j: i for i, j in enumerate(j for j in range(n) if j not in pivots)}
    basis = [[0] * n for _ in free]
    for i, j in enumerate(free):
        basis[i][j] = den
    for c, r in pivots.items():
        f = den // r[c]
        for j, x in r.items():
            if j != c:
                basis[free[j]][c] = -f * x
    return Scaled(tuple(map(tuple, basis)), den)


def _solved(rows, n: int) -> list:
    """The reduced pivot rows of integer rows [a | b] with a square of size
    n: row i leads at column i, and its entries in b's columns over that
    lead are row i of a^-1 b.  ValueError if a is singular."""
    pivots = _reduced(rows)
    if any(i not in pivots for i in range(n)):
        raise ValueError("matrix is singular")
    return [pivots[i] for i in range(n)]


def inv(a: Mat) -> Mat:
    """a^-1 for a = ai / den, read from the reduced rows of [ai | den I]."""
    n = len(a)
    ai, den = scaled(a)
    rows = int_rows(ai)
    for i, r in enumerate(rows):
        r[n + i] = den
    return [[_ratio(r.get(n + j, 0), r[i]) for j in range(n)]
            for i, r in enumerate(_solved(rows, n))]


def cayley(ai, den: int) -> Mat:
    """The Cayley transform (I + a)^-1 (I - a) = 2 (I + a)^-1 - I of
    a = ai / den for a square integer matrix ai.  Row i of the reduced rows
    of [den I + ai | I] is lead_i at column i and s_ij at column n + j, so
    (I + a)^-1 = den s / lead and entry ij is (2 den s_ij - [i = j] lead_i)
    / lead_i.  ValueError if den I + ai is singular."""
    n, two = len(ai), 2 * den
    rows = int_rows(ai)
    for i, r in enumerate(rows):
        d = r.pop(i, 0) + den
        if d:
            r[i] = d
        r[n + i] = 1
    return [[_ratio(two * r.get(n + j, 0) - (r[i] if i == j else 0), r[i])
             for j in range(n)] for i, r in enumerate(_solved(rows, n))]


def sylvester_signature(b) -> tuple:
    """Inertia (pos, neg, zero) of a symmetric integer matrix, by
    fraction-free congruence: exact, no eigenvalues and no Fractions.

    A nonzero diagonal entry d = a[p][p] is a pivot.  For each other q, with
    f_q = a[q][p], the row step a[q] <- d a[q] - f_q a[p] and the same step
    on the columns clear row and column p and leave d (d a[q][t] - f_q f_t),
    d^2 times the Schur complement of d, on the other indices.  That block
    goes on divided by the gcd of its entries, a positive integer, which
    keeps them as small as in Bareiss's elimination.  With a zero diagonal,
    adding row and column j to i for a nonzero a[i][j] makes a[i][i] =
    2 a[i][j] a pivot.
    """
    a = [list(row) for row in b]
    n = len(a)
    pos = neg = 0
    while a:
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            hit = next(((i, j) for i, row in enumerate(a)
                        for j, x in enumerate(row) if x), None)
            if hit is None:
                break
            p, j = hit
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        d = a[p][p]
        pos += d > 0
        neg += d < 0
        f = [row[p] for row in a]
        rest = [q for q in range(len(a)) if q != p]
        a = [[d * (d * a[q][t] - f[q] * f[t]) for t in rest] for q in rest]
        g = math.gcd(*[x for row in a for x in row])
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, neg, n - pos - neg
