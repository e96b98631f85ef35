"""Nilpotent orbits as Young tableaux with formed multiplicity spaces.

An orbit of the isometry group of V is a strictly decreasing list of row
lengths t_j, each carrying a formed multiplicity space whose sign is
epsilon_j = (-1)^(t_j - 1) * epsilon(V), subject to the admissibility
constraint that the tensor blocks sum to V.  Over the complex base field
the multiplicity form is determined by its dimension and the tableau is
just a constrained partition; over R the signatures distinguish the real
forms of an orbit.

Admissibility is counted, not built.  The block of a row of length t with
multiplicity dimension c has dimension ct, so the blocks fill V whenever
the rows partition dim V.  Only a signature-classified V constrains more:
the positive indices of the blocks must add up to p(V), and the block of
an even row has positive index ct/2 whatever its multiplicity form, while
that of an odd row with multiplicity signature (p, c - p) has c(t-1)/2 + p.

validate checks each distinct tableau once: an admissible one is kept in a
least-recently-used cache of VALIDATE_CACHE_SIZE tableaux, and an invalid
one raises on every call.  Enumeration reads each dim V's row shapes from a
cache of SHAPES_CACHE_SIZE, one entry per dim V up to the bound.
Enumeration, gradings, the lift and the oracle's realizations refuse a
space with dim_F > DEFAULT_DIM_BOUND through one check, check_bound.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import (BadShape, BadSign, BoundExceeded, NotAdmissible,
                     UnsupportedRealClosure)
from .forms import (EVEN_DIM_KINDS, SIG_KINDS, FormedSpace, GroupDescriptor,
                    complexify, group_factor, isometry_group, json_int,
                    json_list, json_object, space_of, zero_space)

DEFAULT_DIM_BOUND = 12
VALIDATE_CACHE_SIZE = 2048
SHAPES_CACHE_SIZE = 13


@dataclass(frozen=True)
class TableauRow:
    t: int
    mult: FormedSpace

    def to_json(self) -> dict:
        return {"t": self.t, "mult": self.mult.to_json()}


@dataclass(frozen=True)
class AdmissibleTableau:
    space: FormedSpace
    rows: tuple

    def diagram(self) -> tuple:
        """Row lengths with multiplicity, weakly decreasing."""
        out = []
        for row in self.rows:
            out.extend([row.t] * row.mult.dim)
        return tuple(out)

    def mult_of(self, t: int) -> FormedSpace:
        """The multiplicity space of the rows of length t, or the zero space
        of type epsilon(V)(-1)^(t-1) when there are none."""
        for row in self.rows:
            if row.t == t:
                return row.mult
        v = self.space  # an int sign for every t, a t < 1 included
        return zero_space((v.base, v.division, v.epsilon * (1 if t % 2 else -1)))

    @property
    def is_zero_orbit(self) -> bool:
        return all(row.t == 1 for row in self.rows)

    def sort_key(self) -> tuple:
        rows = tuple(
            (r.t,) + (r.mult.signature if r.mult.kind == "sig" else (r.mult.dim, r.mult.dim))
            for r in self.rows)
        return (self.diagram(), rows)

    def to_json(self) -> dict:
        return {"space": self.space.to_json(),
                "rows": [r.to_json() for r in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "AdmissibleTableau":
        obj = json_object(obj, "tableau", ("space", "rows"))
        rows = [json_object(r, "tableau row", ("t", "mult"))
                for r in json_list(obj["rows"], "tableau rows")]
        return AdmissibleTableau(FormedSpace.from_json(obj["space"]), tuple(
            TableauRow(json_int(r["t"], "row length t"),
                       FormedSpace.from_json(r["mult"])) for r in rows))

    def render(self) -> str:
        if not self.rows:
            return "(empty)"
        lines = []
        for row in self.rows:
            cells = "[]" * row.t
            lines.append(f"{cells}  [{row.mult.render()}]")
            lines.extend([cells] * (row.mult.dim - 1))
        return "\n".join(lines)


def check_bound(*spaces: FormedSpace) -> None:
    """BoundExceeded for the first space with dim_F > DEFAULT_DIM_BOUND."""
    for space in spaces:
        if space.dim_f > DEFAULT_DIM_BOUND:
            raise BoundExceeded("space exceeds dimension bound",
                                dim_f=space.dim_f, bound=DEFAULT_DIM_BOUND)


def tableau(space: FormedSpace, rows) -> AdmissibleTableau:
    """Build and validate a tableau from (t, mult) pairs."""
    tab = AdmissibleTableau(space, tuple(TableauRow(t, m) for t, m in rows))
    validate(tab)
    return tab


def zero_orbit(space: FormedSpace) -> AdmissibleTableau:
    if space.is_zero:
        return AdmissibleTableau(space, ())
    return AdmissibleTableau(space, (TableauRow(1, space),))


def _positive_index(t: int, c: int, p: int = 0) -> int:
    """Positive index of the block of a row of length t and multiplicity
    dimension c over a signature-classified V: ct/2 for even t, whatever
    the multiplicity form, and c(t-1)/2 + p for odd t with multiplicity
    signature (p, c - p)."""
    return c * (t // 2) + (p if t % 2 else 0)


@functools.lru_cache(maxsize=VALIDATE_CACHE_SIZE)
def validate(tab: AdmissibleTableau) -> None:
    """Raise unless tab is an admissible tableau for its ambient space:
    the shape first, then the sign of each row, then the sum of the blocks,
    counted as a dimension and a positive index."""
    ts = [row.t for row in tab.rows]
    if any(t < 1 for t in ts):
        raise BadShape("row lengths must be positive", rows=ts)
    if any(a <= b for a, b in zip(ts, ts[1:])):
        raise BadShape("row lengths must be strictly decreasing", rows=ts)
    if any(row.mult.dim == 0 for row in tab.rows):
        raise BadShape("rows must have nonzero multiplicity")
    space = tab.space
    dim = pos = 0
    for row in tab.rows:
        expected_eps = space.epsilon * (-1) ** (row.t - 1)
        if (row.mult.base, row.mult.division) != (space.base, space.division):
            raise BadSign("multiplicity space over wrong base/division",
                          t=row.t, mult=row.mult.render())
        if row.mult.epsilon != expected_eps:
            raise BadSign("multiplicity sign must be (-1)^(t-1)*epsilon",
                          t=row.t, expected=expected_eps, got=row.mult.epsilon)
        dim += row.t * row.mult.dim
        pos += _positive_index(row.t, row.mult.dim, row.mult.p)
    total = space_of(space.tag(), pos, dim)
    if total != space:
        raise NotAdmissible("tensor blocks do not sum to the ambient space",
                            got=total.render(), expected=space.render())


def _partitions(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _admissible_mults(v: FormedSpace, rows: tuple, left: int):
    """The multiplicity spaces of rows ((t, c), ...), one tuple per
    admissible choice: over a signature-classified V the odd rows' p, each
    at most its row's c, add up to left, and every other row takes each of
    its forms."""
    if not rows:
        if left == 0:
            yield ()
        return
    (t, c), rest = rows[0], rows[1:]
    tag = (v.base, v.division, v.epsilon * (-1) ** (t - 1))
    if tag in EVEN_DIM_KINDS and c % 2:
        return
    if t % 2:  # V's type: over a dimension-classified V, left and p are 0
        room = sum(n for s, n in rest if s % 2)  # the later odd rows' share
        ps = range(min(c, left), max(0, left - room) - 1, -1)
    else:
        ps = range(c if tag in SIG_KINDS else 0, -1, -1)
    for p in ps:
        for tail in _admissible_mults(v, rest, left - p * (t % 2)):
            yield (space_of(tag, p, c),) + tail


@functools.lru_cache(maxsize=SHAPES_CACHE_SIZE)
def _row_shapes(n: int) -> tuple:
    """(rows, base) per partition of n, in `_partitions`' order: rows
    ((t, c), ...) with t decreasing, base the sum of `_positive_index(t, c)`."""
    rows = [tuple(Counter(diagram).items()) for diagram in _partitions(n)]
    return tuple((r, sum(_positive_index(t, c) for t, c in r)) for r in rows)


def enumerate_orbits(v: FormedSpace) -> list:
    """All admissible tableaux over V, in descending `sort_key` order by
    construction: the partitions of dim V, built once per dim V by
    `_row_shapes`, decrease lexicographically, and each row tries its p in
    descending order.

    Only admissible tableaux are generated: every partition of dim V, with
    each row taking each of its multiplicity forms, except that over a
    signature-classified V the odd rows' p add up to what p(V) leaves over
    after the rows' ct/2 and c(t-1)/2 (see `_positive_index`)."""
    check_bound(v)
    found = []
    for rows, base in _row_shapes(v.dim):
        left = v.p - base if v.kind == "sig" else 0
        for mults in _admissible_mults(v, rows, left):
            found.append(AdmissibleTableau(v, tuple(
                TableauRow(t, m) for (t, _), m in zip(rows, mults))))
    return found


def _complexified(tab: AdmissibleTableau) -> AdmissibleTableau:
    """Extension of scalars applied row by row, unchecked."""
    return AdmissibleTableau(complexify(tab.space), tuple(
        TableauRow(r.t, complexify(r.mult)) for r in tab.rows))


def complexify_tableau(tab: AdmissibleTableau) -> AdmissibleTableau:
    """Extension of scalars applied row by row (divisions R and H only):
    tab validated, then the result too over base R."""
    validate(tab)
    out = _complexified(tab)
    if tab.space.base == "R":
        validate(out)
    return out


def real_forms(diagram: tuple, v_real: FormedSpace) -> list:
    """Real orbits over v_real whose complexified diagram equals diagram."""
    return [tab for tab in enumerate_orbits(v_real)
            if _complexified(tab).diagram() == tuple(diagram)]


def stabilizer(tab: AdmissibleTableau) -> GroupDescriptor:
    """The reductive stabilizer M_X, one isometry factor per row."""
    validate(tab)
    return GroupDescriptor(tuple(group_factor(row.mult) for row in tab.rows))


def column_partition(tab: AdmissibleTableau) -> list:
    diagram = tab.diagram()
    if not diagram:
        return []
    return [sum(1 for t in diagram if t > i) for i in range(diagram[0])]


def _dominates(lam: tuple, mu: tuple) -> bool:
    """Partial sums of lam dominate those of mu (same total)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_m > acc_l:
            return False
    return True


def closure_leq(a: AdmissibleTableau, b: AdmissibleTableau) -> bool:
    """Zariski closure order (complex base field only): dominance of diagrams."""
    if a.space != b.space:
        raise BadShape("closure order needs a common ambient space",
                       left=a.space.render(), right=b.space.render())
    if a.space.base != "C":
        raise UnsupportedRealClosure("closure order implemented for base C only")
    return _dominates(b.diagram(), a.diagram())


def weight_dims(diagram: tuple) -> Counter:
    """D-dimension of each H-weight space of V: a row of length t carries
    the weights t-1, t-3, ..., 1-t."""
    return Counter(k for t in diagram for k in range(t - 1, -t, -2))


def graded_dims(tab: AdmissibleTableau) -> dict:
    """dim g_j over the base field for every j in the weight span of ad H,
    by weight counting: g is Lambda^2 V (epsilon = +1) or Sym^2 V
    (epsilon = -1) over base C, gl(V) for u(V) over base R, and the
    complexified algebra for base R with D = R or H.  tab is not
    validated."""
    space = tab.space
    if space.base == "R" and space.division != "C":
        return graded_dims(_complexified(tab))
    c = weight_dims(tab.diagram())
    span = 2 * max(c, default=-1)  # no j at all for the zero space
    out = {}
    for j in range(-span, span + 1):
        # ordered pairs of weights with sum j, which by the symmetry of the
        # weights are also the pairs with difference j that grade gl(V)
        ordered = sum(n * c[j - k] for k, n in c.items())
        diagonal = c[j // 2] if j % 2 == 0 else 0
        out[j] = ordered if space.base == "R" else \
            (ordered - space.epsilon * diagonal) // 2
    return out


def orbit_dimension(tab: AdmissibleTableau) -> int:
    """dim of the orbit through tab over the base field: dim g - dim g^X,
    with dim g^X = dim g_0 + dim g_1 because every irreducible summand of g
    under the sl2 triple has one X-fixed vector and one weight in {0, 1}."""
    validate(tab)
    check_bound(tab.space)
    grading = graded_dims(tab)
    return (isometry_group(tab.space).lie_dim - grading.get(0, 0)
            - grading.get(1, 0))


@dataclass(frozen=True)
class WhittakerDatum:
    grading: dict
    dim_u: int
    dim_n: int
    dim_g_minus1: int
    heisenberg_case: bool
    stabilizer: GroupDescriptor

    def to_json(self) -> dict:
        return {"grading": {str(k): v for k, v in sorted(self.grading.items())},
                "dim_u": self.dim_u, "dim_n": self.dim_n,
                "dim_g_minus1": self.dim_g_minus1,
                "heisenberg_case": self.heisenberg_case,
                "stabilizer": self.stabilizer.to_json()}


def whittaker_datum(tab: AdmissibleTableau) -> WhittakerDatum:
    """Grading dims of g under ad(H) plus the character/Heisenberg dichotomy."""
    stab = stabilizer(tab)  # validates tab
    check_bound(tab.space)
    grading = graded_dims(tab)
    dim_u = sum(v for k, v in grading.items() if k <= -2)
    g1 = grading.get(-1, 0)
    return WhittakerDatum(grading=grading, dim_u=dim_u, dim_n=dim_u + g1,
                          dim_g_minus1=g1, heisenberg_case=g1 != 0,
                          stabilizer=stab)
