"""Independent cross-checks shared by the test modules.

Graded dimensions of the isometry Lie algebra are recomputed here purely by
weight counting on the diagram: g = Sym^2(V) for symplectic-type forms,
Lambda^2(V) for orthogonal-type ones, and gl(V) = V (x) V* for unitary
groups.  None of this touches the matrix code under test.

Small dense matrix helpers that only tests need (Fraction matrices,
scalar multiples, sums, differences, commutators, powers, the zero test,
the sparse integer rows of `scaled`, the rank, the nullspace, Kronecker
products and block diagonals) sit at the end.  With them is the reference
for the oracle's isometry algebra: its defining equations (skewness,
D-linearity, commuting with given matrices) on chosen matrix entries as
one sparse linear system, solved by
`kernel` and `echelon`, and `dense_basis`, which writes the oracle's
classes of tied entries in the form of that kernel.  After them come the
realization's sl2 triple, Gram matrix and D-structures assembled from
Kronecker products, a reference for the entry-by-entry ones; `mul`, `echelon` and `kernel` come
from the package, which test_rational checks against the textbook product
and Gauss-Jordan elimination.

Last comes the brute-force orbit enumeration: every product of
multiplicity forms over every partition, kept when `validate` accepts it,
and the block sum it checks built as a formed space with `direct_sum` and
`tensor_with_sl2`, and the closed-form orbit count, partitions over C and
signed Young diagrams over R, which calls neither `validate` nor the
admissibility rule of `enumerate_orbits`.  Then the formed-space
arithmetic written branch by branch, one branch per classification
(signature or dimension), the reference for `forms`' arithmetic on (p, n).  Then the Cayley draw solved
from [den I + ai | den I - ai], the reference for `random_isometry`'s
solve against I.  At the very end, `raised_twice` checks that a cached
function raises again, alike, on a second identical call.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from dualpairs import (AdmissibleTableau, BadShape, DomainError,
                       MismatchedType, NotAdmissible, NotEmbeddable,
                       TableauRow, complexify_tableau, direct_sum,
                       formed_space, tensor_with_sl2, validate)
from dualpairs.division import DIVISIONS
from dualpairs.forms import EVEN_DIM_KINDS, SIG_KINDS, zero_space
from dualpairs.oracle import _over_one_den
from dualpairs.rational import (_reduced, echelon, eye, fraction_mat,
                                int_rows, kernel, mul, scaled, zeros)


def sl2_weights(t: int) -> list:
    return [t - 1 - 2 * r for r in range(t)]


def diagram_weights(diagram) -> list:
    out = []
    for t in diagram:
        out.extend(sl2_weights(t))
    return out


def graded_dims_by_counting(diagram, epsilon: int) -> dict:
    """dim g_j for g = Sym^2 V (epsilon=-1) or Lambda^2 V (epsilon=+1)."""
    w = diagram_weights(diagram)
    out = Counter()
    for i in range(len(w)):
        start = i if epsilon == -1 else i + 1
        for j in range(start, len(w)):
            out[w[i] + w[j]] += 1
    return {k: v for k, v in out.items() if v}


def unitary_graded_dims(diagram) -> dict:
    """dim_R u(V)_j = dim_C gl(V)_j, counted as weight differences."""
    w = diagram_weights(diagram)
    out = Counter()
    for wi in w:
        for wk in w:
            out[wi - wk] += 1
    return {k: v for k, v in out.items() if v}


def expected_grading(tab) -> dict:
    """Graded dims of g(V) for any admissible tableau, by counting alone."""
    space = tab.space
    if space.base == "C":
        return graded_dims_by_counting(tab.diagram(), space.epsilon)
    if space.division == "C":
        return unitary_graded_dims(tab.diagram())
    ct = complexify_tableau(tab)
    return graded_dims_by_counting(ct.diagram(), ct.space.epsilon)


def mat(rows):
    """The Fraction matrix of rows of int or Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def scal(c, a):
    return [[c * x for x in row] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return sub(mul(a, b), mul(b, a))


def matpow(a, k: int):
    out = eye(len(a))
    for _ in range(k):
        out = mul(out, a)
    return out


def is_zero_mat(a) -> bool:
    return all(not x for row in a for x in row)


def sparse_rows(a) -> list:
    """Rows of a rational matrix as {column: nonzero int}: the rows of
    scaled(a), over one common denominator."""
    return int_rows(scaled(a).ints)


def rank(a) -> int:
    return len(echelon(sparse_rows(a)))


def nullspace(a):
    """Basis of the right kernel of a rational matrix, one vector per free
    column, as Fractions: the kernel's integer vectors over their
    denominator."""
    return fraction_mat(kernel(sparse_rows(a), len(a[0]) if a else 0))


def _nonzeros(mi) -> tuple:
    """Nonzero entries of an integer matrix: the (column, value) pairs of
    each row and the (row, value) pairs of each column."""
    by_row = [[(q, c) for q, c in enumerate(row) if c] for row in mi]
    by_col = [[(p, c) for p, c in enumerate(col) if c] for col in zip(*mi)]
    return by_row, by_col


def _monomial_nonzeros(m) -> tuple:
    """_nonzeros of a monomial matrix: one entry in each row and column."""
    by_col = [None] * len(m.perm)
    for p, (q, c) in enumerate(zip(m.perm, m.num)):
        by_col[q] = [(p, c)]
    return [[entry] for entry in zip(m.perm, m.num)], by_col


def constraint_rows(amb, pairs: list, commute_with: list) -> list:
    """Sparse integer rows of the skewness + D-linearity + [Z, M] = 0
    constraints over the matrix entries Z[i][j], (i, j) in pairs, for
    integer matrices M in commute_with; entries outside pairs are 0."""
    rows: dict = {}

    def bump(cell, var, coeff):
        row = rows.setdefault(cell, {})
        row[var] = row.get(var, 0) + coeff

    b_rows, b_cols = _monomial_nonzeros(amb.gram_mono)
    for vi, (i, j) in enumerate(pairs):
        # (Z^T B + B Z)[p][q] = sum_k Z[k][p] B[k][q] + sum_k B[p][k] Z[k][q]
        for q, c in b_rows[i]:
            bump(("s", j, q), vi, c)
        for p, c in b_cols[i]:
            bump(("s", p, j), vi, c)
    blocks = ([_monomial_nonzeros(j) for j in amb.structure_monos]
              + [_nonzeros(m) for m in commute_with])
    for mi, (m_rows, m_cols) in enumerate(blocks):
        for vi, (i, j) in enumerate(pairs):
            # (Z M - M Z)[p][q]
            for q, c in m_rows[j]:
                bump(("c", mi, i, q), vi, c)
            for p, c in m_cols[i]:
                bump(("c", mi, p, j), vi, -c)
    return [{v: c for v, c in row.items() if c} for row in rows.values()]


def constrained_kernel(amb, pairs: list, commute_with: list):
    """Kernel vectors of the constraints, one entry per pair, over one
    denominator (a Scaled)."""
    return kernel(constraint_rows(amb, pairs, commute_with), len(pairs))


def constrained_nullity(amb, pairs: list, commute_with: list) -> int:
    """Dimension of the same kernel, from the echelon form alone."""
    return len(pairs) - len(echelon(constraint_rows(amb, pairs, commute_with)))


def dense_basis(classes, n: int):
    """The classes of tied entries {(k, p): (num, den)} as n^2-entry rows,
    row-major, over their least common denominator (a Scaled): the form of
    constrained_kernel's vectors."""
    rows = []
    for cls in classes:
        row = [Fraction(0)] * (n * n)
        for (k, p), (num, d) in cls.items():
            row[k * n + p] = Fraction(num, d)
        rows.append(row)
    return scaled(rows)


def kron(a, b):
    na, nb = (len(z[0]) if z else 0 for z in (a, b))
    out = zeros(len(a) * len(b), na * nb)
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            for k, brow in enumerate(b):
                for l, y in enumerate(brow):
                    out[i * len(b) + k][j * len(brow) + l] = x * y
    return out


def block_diag(blocks):
    """Square blocks down the diagonal, zeros elsewhere."""
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def sl2_triple(t: int) -> tuple:
    """x, h, y on one string: X e_r = r e_(r-1), H e_r = (t-1-2r) e_r,
    Y e_r = (t-1-r) e_(r+1)."""
    x, h, y = zeros(t, t), zeros(t, t), zeros(t, t)
    for r in range(t):
        h[r][r] = Fraction(t - 1 - 2 * r)
        if r >= 1:
            x[r - 1][r] = Fraction(r)
        if r + 1 < t:
            y[r + 1][r] = Fraction(t - 1 - r)
    return x, h, y


def kron_triple(tab) -> tuple:
    """(x, h, y) of realize_triple(tab): per row, kron(eye(m), z) with the
    D-coordinate kron(., eye(dr)) innermost, the rows down the diagonal."""
    blocks = ([], [], [])
    for row in tab.rows:
        for out, z in zip(blocks, sl2_triple(row.t)):
            out.append(kron(kron(eye(row.mult.dim), z), eye(tab.space.d)))
    return tuple(block_diag(zs) for zs in blocks)


def _coordinates(space):
    # a base-C space is its Q-form, a base-R one is realified over D
    return DIVISIONS["R" if space.base == "C" else space.division]


def _reference_form(space) -> tuple:
    """(g, L_u): the +-1 or hyperbolic pattern of D-entries and the block of
    left multiplication by u, the unit i for the (R, C, -1) and (R, H, -1)
    types and 1 otherwise."""
    div = _coordinates(space)
    n = space.dim
    g = eye(n)
    if space.kind == "sig":
        for i in range(space.signature[0], n):
            g[i][i] = Fraction(-1)
    elif space.epsilon == -1 and space.division != "H":  # symplectic
        g = kron(eye(n // 2), mat([[0, 1], [-1, 0]]))
    u = 1 if space.tag() in (("R", "C", -1), ("R", "H", -1)) else 0
    return g, div.lmat(div.unit(u))


def kron_standard_gram(space):
    return kron(*_reference_form(space))


def sl2_gram(t: int, base: str):
    """s_t S_t: S_t[r][t-1-r] = (-1)^r r!(t-1-r)!/(t-1)! sigma_t, with the
    sign sigma_t and the twist s_t of the real forms."""
    sigma = (-1) ** ((t - 1) // 2) if base == "R" and t % 2 else 1
    twist = (-1) ** (t // 2) if base == "R" and t % 2 == 0 else 1
    out = zeros(t, t)
    for r in range(t):
        out[r][t - 1 - r] = Fraction(
            (-1) ** r * math.factorial(r) * math.factorial(t - 1 - r)
            * sigma * twist, math.factorial(t - 1))
    return out


def kron_gram(tab):
    """Gram matrix of realize_triple(tab): per row kron(kron(g, s_t S_t),
    L_u) from the multiplicity space's reference form, the rows down the
    diagonal."""
    blocks = []
    for row in tab.rows:
        g, l_u = _reference_form(row.mult)
        blocks.append(kron(kron(g, sl2_gram(row.t, tab.space.base)), l_u))
    return block_diag(blocks)


def kron_structures(space) -> list:
    """The D-structures kron(I, R_e), e each non-real unit of D."""
    div = _coordinates(space)
    return [kron(eye(space.dim), div.rmat(div.unit(k)))
            for k in range(1, div.dim)]


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _mult_choices(v, t: int, count: int) -> list:
    """Every multiplicity space of D-dimension count for a row of length t."""
    tag = (v.base, v.division, v.epsilon * (-1) ** (t - 1))
    if tag in SIG_KINDS:
        return [formed_space(*tag, signature=(p, count - p))
                for p in range(count + 1)]
    if tag in EVEN_DIM_KINDS and count % 2:
        return []
    return [formed_space(*tag, dim=count)]


def candidate_tableaux(v):
    """Every tableau over v with rows of the right signs: all partitions of
    dim v, each row length taking every multiplicity form of its count."""
    for diagram in _partitions(v.dim, v.dim):
        lengths = sorted(set(diagram), reverse=True)
        pools = [_mult_choices(v, t, diagram.count(t)) for t in lengths]
        for combo in product(*pools):
            yield AdmissibleTableau(v, tuple(map(TableauRow, lengths, combo)))


def block_sum(tab):
    """The direct sum of the rows' blocks mult (x) F^t, a formed space."""
    total = zero_space(tab.space.tag())
    for row in tab.rows:
        total = direct_sum(total, tensor_with_sl2(row.mult, row.t))
    return total


def brute_enumerate(v) -> list:
    """The candidate tableaux that validate accepts, canonically ordered."""
    found = []
    for tab in candidate_tableaux(v):
        try:
            validate(tab)
        except NotAdmissible:
            continue
        found.append(tab)
    found.sort(key=lambda tb: tb.sort_key(), reverse=True)
    return found


# How the rows of each length carry signs in the closed-form count, for
# (odd lengths, even lengths): "free" rows start with either sign, "even"
# ones split evenly between the two first signs (so their number is even),
# and "none" rows carry no sign (one of even length t holds t/2 of each,
# and an odd one meets no signature).  Over C the even split is only the parity
# condition of o(n) and sp(n) (Collingwood-McGovern, ch. 5 and 9).
SIGNED_ROWS = {
    ("C", "C", 1): ("none", "even"), ("C", "C", -1): ("even", "none"),
    ("R", "R", 1): ("free", "even"), ("R", "R", -1): ("even", "free"),
    ("R", "C", 1): ("free", "free"), ("R", "C", -1): ("free", "free"),
    ("R", "H", 1): ("free", "none"), ("R", "H", -1): ("none", "free"),
}


def closed_form_orbit_count(v) -> int:
    """The number of nilpotent orbits over v: partitions of dim v over C,
    signed Young diagrams of v's signature over R, each row of length t
    with alternating signs holding ceil(t/2) of its first sign, under the
    rules of SIGNED_ROWS.  A signature-free type matches no signature."""
    count = 0
    for diagram in _partitions(v.dim, v.dim):
        # the positive indices each length's rows can carry
        options = []
        for t, c in Counter(diagram).items():
            rule = SIGNED_ROWS[v.tag()][t % 2 == 0]
            plus = range(c + 1) if rule == "free" else \
                [c // 2] if rule == "none" or c % 2 == 0 else []
            options.append([a * ((t + 1) // 2) + (c - a) * (t // 2)
                            for a in plus])
        count += sum(1 for combo in product(*options)
                     if v.kind != "sig" or sum(combo) == v.signature[0])
    return count


def _ref_same_type(a, b):
    if a.tag() != b.tag():
        raise MismatchedType("spaces have different (base, division, epsilon)",
                             left=a.render(), right=b.render())


def ref_direct_sum(a, b):
    _ref_same_type(a, b)
    if a.kind == "sig":
        return formed_space(*a.tag(), signature=(a.signature[0] + b.signature[0],
                                                 a.signature[1] + b.signature[1]))
    return formed_space(*a.tag(), dim=a.dim + b.dim)


def ref_tensor_with_sl2(a, m: int):
    if m < 1:
        raise BadShape("tensor length must be positive", m=m)
    eps = a.epsilon * (-1) ** (m - 1)
    tag = (a.base, a.division, eps)
    if a.kind == "sig" and m % 2 == 1:
        p, q = a.signature
        hi, lo = (m + 1) // 2, m // 2
        return formed_space(*tag, signature=(p * hi + q * lo, p * lo + q * hi))
    n = a.dim * m
    if tag in SIG_KINDS:
        return formed_space(*tag, signature=(n // 2, n // 2))
    return formed_space(*tag, dim=n)


def ref_embeds(a, b) -> bool:
    _ref_same_type(a, b)
    if a.kind == "sig":
        return a.signature[0] <= b.signature[0] and a.signature[1] <= b.signature[1]
    return a.dim <= b.dim


def ref_orth_complement(a, b):
    if not ref_embeds(a, b):
        raise NotEmbeddable("no isometric embedding", sub=a.render(),
                            ambient=b.render())
    if a.kind == "sig":
        return formed_space(*a.tag(), signature=(b.signature[0] - a.signature[0],
                                                 b.signature[1] - a.signature[1]))
    return formed_space(*a.tag(), dim=b.dim - a.dim)


def ref_solve(a, b):
    """a^-1 b for a square a from the reduced pivot rows of [a | b], cleared
    over one denominator: entry ij is pivot row i at column n + j over its
    lead.  ValueError if a is singular."""
    n, m = len(a), len(b[0]) if b else 0
    pivots = _reduced(sparse_rows([[*ra, *rb] for ra, rb in zip(a, b)]))
    if any(i not in pivots for i in range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(pivots[i].get(n + j, 0), pivots[i][i]) for j in range(m)]
            for i in range(n)]


def ref_random_isometry(amb, rng):
    """oracle.random_isometry's draws, with g solved from
    [den I + ai | den I - ai] by ref_solve."""
    vecs, den = _over_one_den(amb.classes)
    n = amb.n_real
    if not vecs:
        return eye(n)
    for _ in range(50):
        ai = [[0] * n for _ in range(n)]
        for vec in vecs:
            c = rng.randint(-2, 2)
            if c:
                for (i, j), x in vec.items():
                    ai[i][j] += c * x
        try:
            return ref_solve([[den * (i == j) + x for j, x in enumerate(row)]
                              for i, row in enumerate(ai)],
                             [[den * (i == j) - x for j, x in enumerate(row)]
                              for i, row in enumerate(ai)])
        except ValueError:
            continue
    raise AssertionError("fifty singular draws")


def raised_twice(call, *args, **kwargs) -> dict:
    """The error payload that call(*args, **kwargs) raises, raised again,
    with the same payload, by a second identical call: a cache keeps no
    error."""
    payloads = []
    for _ in range(2):
        try:
            call(*args, **kwargs)
        except DomainError as exc:
            payloads.append(exc.to_json()["error"])
        else:
            raise AssertionError(f"{call.__name__}{args} did not raise")
    assert payloads[0] == payloads[1]
    return payloads[0]
