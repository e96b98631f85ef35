"""Associated-cycle bookkeeping: integer combinations of real-form orbits
sharing one complex diagram, the descent transport of such cycles, and the
convergent-range calculators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadShape, IncomparableSupports, NonpositiveDimCirc,
                     NotDescentPair, NotEmbeddable)
from .forms import (FormedSpace, GroupDescriptor, complexify, json_int,
                    json_list, json_object)
from .orbits import AdmissibleTableau, column_partition, complexify_tableau
from .theta import _check_pair, _descent, add_column


@dataclass(frozen=True)
class Cycle:
    """Non-negative integer combination of real orbits over one real form,
    all sharing the diagram of a fixed complex orbit."""

    complex_orbit: AdmissibleTableau
    real_space: FormedSpace
    terms: tuple = ()  # sorted ((tableau, mult), ...), zero mults dropped

    def __post_init__(self):
        if self.complex_orbit.space.base != "C":
            raise BadShape("complex_orbit must live over base C")
        if self.real_space.base != "R" or self.real_space.division not in ("R", "H"):
            raise BadShape("real ambient space must be a real or quaternionic form")
        if complexify(self.real_space) != self.complex_orbit.space:
            raise BadShape("real ambient space does not complexify to the "
                           "orbit's space",
                           real_space=self.real_space.render(),
                           complex_space=self.complex_orbit.space.render())
        seen = set()
        for tab, mult in self.terms:
            if type(mult) is not int or mult < 0:
                raise BadShape("multiplicities must be non-negative integers",
                               mult=mult)
            if tab.space != self.real_space:
                raise BadShape("term lives over the wrong real space")
            # complexify_tableau validates tab first
            if complexify_tableau(tab).diagram() != self.complex_orbit.diagram():
                raise BadShape("term diagram does not complexify to the "
                               "complex orbit",
                               term=tab.diagram(),
                               expected=self.complex_orbit.diagram())
            if tab in seen:
                raise BadShape("duplicate term", term=tab.diagram())
            seen.add(tab)
        cleaned = tuple(sorted(((t, m) for t, m in self.terms if m > 0),
                               key=lambda tm: tm[0].sort_key(), reverse=True))
        object.__setattr__(self, "terms", cleaned)

    # -- algebra ----------------------------------------------------------

    def _check_same_support_type(self, other: "Cycle"):
        if (self.complex_orbit != other.complex_orbit
                or self.real_space != other.real_space):
            raise IncomparableSupports("cycles live over different data")

    def __add__(self, other: "Cycle") -> "Cycle":
        self._check_same_support_type(other)
        acc = dict(self.terms)
        for tab, mult in other.terms:
            acc[tab] = acc.get(tab, 0) + mult
        return Cycle(self.complex_orbit, self.real_space, tuple(acc.items()))

    def __rmul__(self, m: int) -> "Cycle":
        if type(m) is not int or m < 0:
            raise BadShape("cycle multiplier must be a non-negative integer",
                           mult=m)
        return Cycle(self.complex_orbit, self.real_space,
                     tuple((tab, m * mult) for tab, mult in self.terms))

    __mul__ = __rmul__

    def multiplicity(self, tab: AdmissibleTableau) -> int:
        for t, m in self.terms:
            if t == tab:
                return m
        return 0

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {"complex_orbit": self.complex_orbit.to_json(),
                "real_space": self.real_space.to_json(),
                "terms": [{"orbit": t.to_json(), "mult": m}
                          for t, m in self.terms]}

    @staticmethod
    def from_json(data: dict) -> "Cycle":
        data = json_object(data, "cycle",
                           ("complex_orbit", "real_space", "terms"))
        terms = [json_object(item, "cycle term", ("orbit", "mult"))
                 for item in json_list(data["terms"], "cycle terms")]
        return Cycle(AdmissibleTableau.from_json(data["complex_orbit"]),
                     FormedSpace.from_json(data["real_space"]),
                     tuple((AdmissibleTableau.from_json(t["orbit"]),
                            json_int(t["mult"], "cycle multiplicity"))
                           for t in terms))

    def render(self) -> str:
        if self.is_zero:
            return "0 (empty cycle over %s)" % self.real_space.render()
        parts = []
        for tab, mult in self.terms:
            mults = ", ".join(r.mult.render() for r in tab.rows)
            parts.append(f"{mult} * {{{tab.diagram()} | {mults}}}")
        return " + ".join(parts)


def zero_cycle(complex_orbit: AdmissibleTableau, real_space: FormedSpace) -> Cycle:
    return Cycle(complex_orbit, real_space, ())


def cycle_leq(c1: Cycle, c2: Cycle) -> bool:
    """Componentwise comparison of multiplicities."""
    c1._check_same_support_type(c2)
    support = {t for t, _ in c1.terms} | {t for t, _ in c2.terms}
    return all(c1.multiplicity(t) <= c2.multiplicity(t) for t in support)


def dlift_cycle(o: AdmissibleTableau, op: AdmissibleTableau, c: Cycle,
                vp_real: FormedSpace) -> Cycle:
    """Transport a cycle over O to one over O' along a descent pair.

    A real orbit sO' over vp_real contributes when its descent to c's real
    space is strict and lands on a key of c; the strictness requirement is
    what keeps the transport injective on terms, so multiplicities move
    unchanged and none are merged or created.  A strict descent has U1 = U,
    so a term's one candidate is add_column with its whole 1-row.  o is
    c's complex orbit, so over base C; op's base is checked before
    complexify(vp_real), which raises MismatchedType for division C.
    """
    if c.complex_orbit != o:
        raise NotDescentPair("cycle does not live over the stated orbit")
    if op.space.base != "C":
        raise NotDescentPair("descent pair must be stated over base C")
    if complexify(vp_real) != op.space:
        raise NotDescentPair("real form does not complexify to the lifted "
                             "orbit's space",
                             real_space=vp_real.render(),
                             space=op.space.render())
    cdres = _descent(op, o.space)
    if cdres is None:
        raise NotDescentPair("orbit pair is not a descent pair",
                             source=op.diagram(), target=o.diagram())
    if cdres.target != o:
        raise NotDescentPair("descent of the source orbit misses the target",
                             expected=o.diagram(), got=cdres.target.diagram())
    _check_pair(vp_real, c.real_space)
    out = {}
    for tab, mult in c.terms:
        try:
            sop = add_column(tab, vp_real, tab.mult_of(1))
        except NotEmbeddable:
            continue
        if complexify_tableau(sop).diagram() == op.diagram():
            out[sop] = mult
    return Cycle(op, vp_real, tuple(out.items()))


# -- convergent range -----------------------------------------------------

# d1 = dim of the anisotropic kernel summand entering dim-degree counting
_D1_TABLE = {("R", 1): 1, ("R", -1): 0,
             ("C", 1): 1, ("C", -1): 1,
             ("H", 1): 1, ("H", -1): 3}


@dataclass(frozen=True)
class RangeReport:
    dim_circ_v: Fraction
    exponent: Fraction
    threshold: Fraction
    nu: Fraction
    in_range: bool

    def to_json(self) -> dict:
        return {"dim_circ_V": str(self.dim_circ_v),
                "exponent": str(self.exponent),
                "threshold": str(self.threshold),
                "nu": str(self.nu),
                "in_range": self.in_range}


def dim_circ(v: FormedSpace) -> Fraction:
    d1 = _D1_TABLE[(v.division, v.epsilon)]
    return Fraction(v.dim_f) - Fraction(2 * d1, v.d)


def range_report(nu, v: FormedSpace, vp: FormedSpace) -> RangeReport:
    """Convergent-range test: nu must strictly exceed 2 - dim_F V'/dim° V."""
    _check_pair(vp, v)
    nu = Fraction(nu)
    circ = dim_circ(v)
    if circ <= 0:
        raise NonpositiveDimCirc("dim° V must be positive",
                                 dim_circ=str(circ), space=v.render())
    exponent = Fraction(vp.dim_f) / circ
    threshold = 2 - exponent
    return RangeReport(dim_circ_v=circ, exponent=exponent,
                       threshold=threshold, nu=nu, in_range=nu > threshold)


def equality_hypotheses(op: AdmissibleTableau, g_family: GroupDescriptor) -> bool:
    """Column-partition hypotheses under which the lifted cycle equality
    holds: at least two columns, and a strictly longer first column when the
    group is a real symplectic group."""
    cols = column_partition(op)
    if len(cols) < 2:
        return False
    if g_family.is_real_symplectic and cols[0] <= cols[1]:
        return False
    return True
