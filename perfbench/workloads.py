"""The four benchmark workloads.

Each workload makes its items from the seed (`generate`, part of set-up),
runs one item through the program's public functions (`run`, the timed part)
and checks the item's output (`check`, untimed), returning a status and a
canonical form of the output for the digest.  `dp` is a namespace of freshly
imported dualpairs modules; the tracer wraps every call into the program.

Statuses: ok, documented (a domain error the item documents as its outcome),
failed (any other error), wrong (a result that fails its check).
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from harness import Item, entry_bits, error_code, outcome


def _shuffled(items, rng):
    rng.shuffle(items)
    return items


def _dual(a, b) -> bool:
    """Whether the two spaces can form a dual pair."""
    return (a.base, a.division) == (b.base, b.division) and \
        a.epsilon * b.epsilon == -1


def flanders_ok(lam, mu) -> bool:
    """Jordan types of the nilpotent parts of AB and BA, both sorted
    decreasingly and padded with zeros, differ by at most one in each part
    (Flanders, Proc. AMS 2, 1951)."""
    n = max(len(lam), len(mu))
    lam, mu = list(lam) + [0] * (n - len(lam)), list(mu) + [0] * (n - len(mu))
    return all(abs(a - b) <= 1 for a, b in zip(lam, mu))


class LiftSweep:
    """The loop of the verify lift check: seeded raising maps on every
    complex pair with dims <= (4, 6); realizations are reused (hot cache)."""

    name = "lift-sweep"
    maps_per_pair = 20

    def generate(self, dp, seed):
        rng = random.Random(seed)
        items = []
        for v in dp.forms.iter_spaces(4, bases=("C",)):
            for vp in dp.forms.iter_spaces(6, bases=("C",)):
                if not _dual(v, vp):
                    continue
                top_v = dp.orbits.enumerate_orbits(v)[0]
                top_vp = dp.orbits.enumerate_orbits(vp)[0]
                for k in range(self.maps_per_pair):
                    items.append(Item(f"{v.render()}|{vp.render()}#{k}",
                                      (top_v, top_vp, rng.getrandbits(64)),
                                      frozenset({"empty_lift"})))
        return _shuffled(items, rng)

    def run(self, dp, item, tr):
        top_v, top_vp, map_seed = item.args
        orc = dp.oracle
        vr = tr.call("oracle.realize_triple", orc.realize_triple, top_v,
                     note=top_v)
        vpr = tr.call("oracle.realize_triple", orc.realize_triple, top_vp,
                      note=top_vp)
        rm = tr.call("oracle.sample_raising_map", orc.sample_raising_map,
                     vr, vpr, random.Random(map_seed))
        x, xp = tr.call("oracle.moment_maps", orc.moment_maps, rm)
        orb = tr.call("oracle.identify.complex", orc.identify, x, vr.ambient,
                      note=tr.enabled and entry_bits(x))
        orb_p = tr.call("oracle.identify.complex", orc.identify, xp,
                        vpr.ambient, note=tr.enabled and entry_bits(xp))
        try:
            lifted = tr.call("theta.theta_lift", dp.theta.theta_lift, orb,
                             top_vp.space)
        except dp.errors.EmptyLift:
            return orb, orb_p, None, None
        return orb, orb_p, lifted, tr.call(
            "orbits.closure_leq", dp.orbits.closure_leq, orb_p, lifted)

    def check(self, dp, item, result):
        top_v, top_vp, _ = item.args
        orb, orb_p, lifted, contained = result
        canon = [orb.to_json(), orb_p.to_json(),
                 lifted and lifted.to_json(), contained]
        if orb.space != top_v.space or orb_p.space != top_vp.space or \
                not flanders_ok(orb.diagram(), orb_p.diagram()):
            return "wrong", canon
        if lifted is None:
            return "documented", canon
        return ("ok" if contained else "wrong"), canon


class RealIdentify:
    """Every orbit of every base-R space with dim_F <= 6, realized, conjugated
    by a seeded random isometry and identified back: the Jacobson-Morozov
    path, with a new realization per item (cold cache)."""

    name = "real-identify"

    def generate(self, dp, seed):
        rng = random.Random(seed)
        items = [Item(f"{tab.space.render()}|{tab.diagram()}#{i}",
                      (tab, rng.getrandbits(64)))
                 for space in dp.forms.iter_spaces(6, bases=("R",))
                 for i, tab in enumerate(dp.orbits.enumerate_orbits(space))]
        return _shuffled(items, rng)

    def run(self, dp, item, tr):
        tab, iso_seed = item.args
        orc, rat = dp.oracle, dp.rational
        real = tr.call("oracle.realize_triple", orc.realize_triple, tab,
                       note=tab)
        g = tr.call("oracle.random_isometry", orc.random_isometry,
                    real.ambient, random.Random(iso_seed))
        g_inv = tr.call("rational.inv", rat.inv, g)
        xg = tr.call("rational.mul", rat.mul, g,
                     tr.call("rational.mul", rat.mul, real.x, g_inv))
        got = tr.call("oracle.identify.real", orc.identify, xg, real.ambient,
                      note=tr.enabled and entry_bits(xg))
        return real, g, got

    def check(self, dp, item, result):
        tab, _ = item.args
        real, g, got = result
        rat, amb = dp.rational, real.ambient
        canon = [got.to_json(), [[str(x) for x in row] for row in g]]
        isometry = rat.mul(rat.transpose(g), rat.mul(amb.gram, g)) == amb.gram
        d_linear = all(rat.mul(g, j) == rat.mul(j, g) for j in amb.structures)
        return ("ok" if got == tab and isometry and d_linear else "wrong"), canon


class WitnessSweep:
    """Every (V, V', O') in the moment image with dims <= (4, 6), over C and
    over R in all three divisions; every step runs whatever the earlier ones
    returned, so each step's failures are counted."""

    name = "witness-sweep"

    def generate(self, dp, seed):
        items = []
        for base in ("C", "R"):
            for v in dp.forms.iter_spaces(4, bases=(base,)):
                for vp in dp.forms.iter_spaces(6, bases=(base,)):
                    if not _dual(v, vp):
                        continue
                    for op in dp.orbits.enumerate_orbits(vp):
                        if dp.theta.in_moment_image(op, v):
                            items.append(Item(
                                f"{v.render()}|{op.space.render()}|"
                                f"{op.sort_key()}", (v, op)))
        return _shuffled(items, random.Random(seed))

    def run(self, dp, item, tr):
        v, op = item.args
        orc = dp.oracle
        steps = {}

        def step(key, name, fn, *args):
            try:
                steps[key] = tr.call(name, fn, *args)
            except dp.errors.DomainError as exc:
                steps[key] = exc

        def realize():
            return tr.call("oracle.realize_triple", orc.realize_triple, op,
                           note=op)

        step("descent", "theta.generalized_descent",
             dp.theta.generalized_descent, op, v)
        step("witness", "oracle.construct_descent_element",
             orc.construct_descent_element, realize(), v)
        if not isinstance(steps["descent"], Exception):
            step("dim_identity", "oracle.verify_dimension_identity",
                 orc.verify_dimension_identity, steps["descent"])
        step("centralizer", "oracle.triple_centralizer_dim",
             orc.triple_centralizer_dim, realize())
        step("stabilizer", "orbits.stabilizer", dp.orbits.stabilizer, op)
        return steps

    def check(self, dp, item, steps):
        v, op = item.args
        canon, statuses = {}, set()
        for key, val in steps.items():
            if isinstance(val, Exception):
                canon[key] = ["raised", error_code(val)]
                statuses.add(outcome(val, item.documented))
        desc = steps["descent"]
        if not isinstance(desc, Exception):
            canon["descent"] = desc.to_json()
            statuses.add("ok" if desc.target.space == v else "wrong")
        wit = steps["witness"]
        if not isinstance(wit, Exception):
            canon["witness"] = "ok"
            statuses.add("ok" if (wit.source.space, wit.target.space)
                         == (v, op.space) else "wrong")
        dims = steps.get("dim_identity")
        if dims is not None and not isinstance(dims, Exception):
            canon["dim_identity"] = dims.to_json()
        cen, stab = steps["centralizer"], steps["stabilizer"]
        if not isinstance(cen, Exception) and not isinstance(stab, Exception):
            canon["centralizer"] = [cen, stab.lie_dim]
            statuses.add("ok" if cen == stab.lie_dim else "wrong")
        for status in ("wrong", "failed"):
            if status in statuses:
                return status, canon
        return "ok", canon


# -- cli-calls --------------------------------------------------------------


def _weights(diagram):
    return [t - 1 - 2 * r for t in diagram for r in range(t)]


def expected_grading(dp, tab) -> dict:
    """dim g_j of the isometry algebra by weight counting alone:
    Sym^2 V (symplectic type), Lambda^2 V (orthogonal type), gl(V) (unitary)."""
    space = tab.space
    if space.base == "R" and space.division == "C":
        w = _weights(tab.diagram())
        return dict(Counter(a - b for a in w for b in w))
    if space.base == "R":
        tab = dp.orbits.complexify_tableau(tab)
    w = _weights(tab.diagram())
    sym = tab.space.epsilon == -1
    return dict(Counter(w[i] + w[j] for i in range(len(w))
                        for j in range(i if sym else i + 1, len(w))))


def _erase_column(diagram, dim) -> tuple:
    rows = [t - 1 for t in diagram if t > 1]
    return tuple(sorted(rows + [1] * (dim - sum(rows)), reverse=True))


def _check_orbits(dp, objs, data):
    (space,) = objs
    tabs = [dp.orbits.AdmissibleTableau.from_json(t) for t in data]
    for tab in tabs:
        dp.orbits.validate(tab)
    return len(set(tabs)) == len(tabs) and \
        all(t.space == space for t in tabs) and \
        dp.orbits.zero_orbit(space) in tabs


def _check_descend(dp, objs, data):
    op, v = objs
    target = dp.orbits.AdmissibleTableau.from_json(data["target"])
    return target.space == v and \
        target.diagram() == _erase_column(op.diagram(), v.dim) and \
        data["strict"] == (data["b"] == 0)


def _check_lift(dp, objs, data):
    o, vp = objs
    lifted = dp.orbits.AdmissibleTableau.from_json(data)
    return lifted.space == vp and \
        dp.theta.generalized_descent(lifted, o.space).target == o


def _check_stabilizer(dp, objs, data):
    (tab,) = objs
    g = dp.forms.isometry_group(tab.space).lie_dim
    od, m = data["orbit_dimension"], data["lie_dim"]
    return m == sum(f["lie_dim"] for f in data["stabilizer"]["factors"]) and \
        od % 2 == 0 and 0 <= od and od + m <= g and \
        (od == 0) == tab.is_zero_orbit


def _check_whittaker(dp, objs, data):
    (tab,) = objs
    grading = {int(j): d for j, d in data["grading"].items() if d}
    return grading == expected_grading(dp, tab) and \
        data["dim_g_minus1"] == grading.get(-1, 0) and \
        data["dim_n"] == data["dim_u"] + data["dim_g_minus1"]


def _check_pair_factor(dp, objs, data):
    op, _ = objs
    fact = data["factorization"]
    return fact["M_XXp"]["lie_dim"] + fact["Lp"]["lie_dim"] == \
        dp.orbits.stabilizer(op).lie_dim and data["dim_W"] >= 0


def _check_cycle_lift(dp, objs, data):
    _, op, vp_real, cycle = objs
    out = dp.cycles.Cycle.from_json(data)
    return out.real_space == vp_real and out.complex_orbit == op and \
        out.total_multiplicity <= cycle.total_multiplicity


def _check_range(dp, objs, data):
    nu, _, vp = objs
    circ, exponent = Fraction(data["dim_circ_V"]), Fraction(data["exponent"])
    threshold = Fraction(data["threshold"])
    return exponent == Fraction(vp.dim_f) / circ and \
        threshold == 2 - exponent and data["in_range"] == (nu > threshold)


CLI_CHECKS = {"orbits": _check_orbits, "descend": _check_descend,
              "lift": _check_lift, "stabilizer": _check_stabilizer,
              "whittaker": _check_whittaker, "pair-factor": _check_pair_factor,
              "cycle-lift": _check_cycle_lift, "range": _check_range}


class CliCalls:
    """A seeded stream of in-process CLI calls on spaces up to dim_F 12.

    Every combinatorial subcommand gets the same number of calls at every
    dim_F from 1 to 12, so the mix of sizes is the same for every seed.
    Stabilizer and whittaker take one orbit per base field and dim_F, picked
    the same way for every seed: their cost differs by up to 1.6x between
    orbits of one space (0.75-1.23 s on sp(12,C)), so a seeded pick would
    move the pass time by a quarter.  No input repeats within a pass.
    """

    per_dim = 8

    name = "cli-calls"

    def generate(self, dp, seed):
        rng, fixed = random.Random(seed), random.Random(0)
        forms, orbits, theta = dp.forms, dp.orbits, dp.theta
        spaces = list(forms.iter_spaces(12))
        orbs = {s: orbits.enumerate_orbits(s) for s in spaces}
        seen = set()
        items = []

        def add(sub, argv, expect, objs, documented=()):
            key = (sub,) + tuple(argv)
            if key in seen:
                return False
            seen.add(key)
            items.append(Item(f"{sub}#{len(items)}",
                              (sub, [sub] + argv + ["--json"], expect, objs),
                              frozenset(documented)))
            return True

        def js(obj):
            return json.dumps(obj.to_json())

        def partner(space, pool=spaces):
            return rng.choice([s for s in pool if _dual(s, space)])

        def fill(count, draw):
            """Call draw() until it has added count items (or 100 tries)."""
            for _ in range(100):
                if count == 0:
                    return
                count -= bool(draw())

        for d in range(1, 13):
            at_d = [s for s in spaces if s.dim_f == d]
            tabs_d = [t for s in at_d for t in orbs[s]]

            def draw_orbits():
                s = rng.choice(at_d)
                return add("orbits", ["--space", js(s)], 0, (s,))
            fill(self.per_dim, draw_orbits)
            for sub in ("descend", "pair-factor"):
                for inside in (True, False):
                    def draw():
                        op = rng.choice(tabs_d)
                        v = partner(op.space)
                        if theta.in_moment_image(op, v) != inside:
                            return False
                        return add(sub, ["--orbit-prime", js(op),
                                         "--target-space", js(v)],
                                   0 if inside else 2, (op, v),
                                   () if inside else ("not_in_image",))
                    fill(self.per_dim // 2, draw)

            def draw_lift():
                vp = rng.choice([s for s in at_d if s.base == "C"])
                o = rng.choice(orbs[partner(vp)])
                return add("lift", ["--orbit", js(o), "--target-space", js(vp)],
                           None, (o, vp), ("empty_lift",))
            fill(self.per_dim, draw_lift)

            def draw_cycle():
                vp_real = rng.choice(at_d)
                if vp_real.base != "R" or vp_real.division == "C":
                    return False
                v_real = partner(vp_real)
                vc, vpc = forms.complexify(v_real), forms.complexify(vp_real)
                op = rng.choice([t for t in orbs[vpc]
                                 if theta.in_moment_image(t, vc)])
                o = theta.generalized_descent(op, vc).target
                keys = [t for t in orbs[v_real] if
                        orbits.complexify_tableau(t).diagram() == o.diagram()]
                cycle = dp.cycles.Cycle(o, v_real, tuple(
                    (k, rng.randint(0, 3)) for k in keys))
                return add("cycle-lift", [
                    "--orbit", js(o), "--orbit-prime", js(op),
                    "--target-space", js(vp_real), "--cycle", js(cycle)],
                    0, (o, op, vp_real, cycle))
            fill(self.per_dim // 2, draw_cycle)

            def draw_range():
                v = rng.choice(at_d)
                vp = partner(v)
                nu = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
                bad = dp.cycles.dim_circ(v) <= 0
                return add("range", [f"--nu={nu}", "--space", js(v),
                                     "--target-space", js(vp)],
                           2 if bad else 0, (nu, v, vp),
                           ("nonpositive_dim_circ",) if bad else ())
            fill(self.per_dim, draw_range)
            for base in ("C", "R"):
                pool = [t for t in tabs_d if t.space.base == base]
                fixed.shuffle(pool)
                for sub, tab in zip(("stabilizer", "whittaker"), pool):
                    add(sub, ["--orbit", js(tab)], 0, (tab,))
        return _shuffled(items, rng)

    def run(self, dp, item, tr):
        sub, argv, _, _ = item.args
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = tr.call("cli." + sub, dp.cli.main, argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, dp, item, result):
        sub, _, expect, objs = item.args
        rc, out, err = result
        canon = [rc, out, err]
        if rc == 2 and expect in (2, None):
            code = json.loads(err)["error"]["code"]
            return ("documented" if code in item.documented else "failed"), canon
        if rc != 0 or expect == 2:
            return "failed", canon
        try:
            fine = CLI_CHECKS[sub](dp, objs, json.loads(out))
        except (ValueError, KeyError, TypeError, dp.errors.DomainError):
            fine = False
        return ("ok" if fine else "wrong"), canon


WORKLOADS = {w.name: w for w in (LiftSweep(), RealIdentify(), WitnessSweep(),
                                 CliCalls())}
