import contextlib
import copy
import functools
import io
import json
import math
import operator
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpairs import (AdmissibleTableau, Cycle, FormedSpace, complexify,
                       complexify_tableau, enumerate_orbits,
                       generalized_descent, in_moment_image, iter_spaces,
                       verify)
from dualpairs.cli import UsageError, _dumps, build_parser, main
from dualpairs.errors import DomainError
from helpers import brute_enumerate

SP4 = json.dumps({"base": "C", "division": "C", "epsilon": -1, "dim": 4})
SP2 = json.dumps({"base": "C", "division": "C", "epsilon": -1, "dim": 2})
O1 = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 1})
O4 = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 4})
O21 = json.dumps({"base": "R", "division": "R", "epsilon": 1,
                  "signature": [2, 1]})
SP2R = json.dumps({"base": "R", "division": "R", "epsilon": -1, "dim": 2})

REG2 = json.dumps({
    "space": {"base": "C", "division": "C", "epsilon": -1, "dim": 2},
    "rows": [{"t": 2, "mult": {"base": "C", "division": "C", "epsilon": 1,
                               "dim": 1}}]})
T31_O4 = json.dumps({
    "space": {"base": "C", "division": "C", "epsilon": 1, "dim": 4},
    "rows": [{"t": 3, "mult": {"base": "C", "division": "C", "epsilon": 1,
                               "dim": 1}},
             {"t": 1, "mult": {"base": "C", "division": "C", "epsilon": 1,
                               "dim": 1}}]})
O3_REG = json.dumps({
    "space": {"base": "C", "division": "C", "epsilon": 1, "dim": 3},
    "rows": [{"t": 3, "mult": {"base": "C", "division": "C", "epsilon": 1,
                               "dim": 1}}]})


def run(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "dualpairs", *args],
                          capture_output=True, text=True, input=stdin,
                          timeout=300)


def test_orbits_text_and_json():
    res = run("orbits", "--space", SP4)
    assert res.returncode == 0
    assert "4 orbit(s)" in res.stdout
    assert "Sp(4,C)" in res.stdout
    res = run("orbits", "--space", SP4, "--json")
    assert res.returncode == 0
    orbs = json.loads(res.stdout)
    assert len(orbs) == 4
    assert all("space" in o and "rows" in o for o in orbs)


def test_orbits_space_from_stdin():
    res = run("orbits", "--space", "-", "--json", stdin=SP4)
    assert res.returncode == 0
    assert len(json.loads(res.stdout)) == 4


def test_descend_json():
    res = run("descend", "--orbit-prime", T31_O4, "--target-space", SP4,
              "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["a"] == 0 and out["b"] == 2 and out["strict"] is False
    assert out["target"]["rows"][0]["t"] == 2


def test_descend_text_shows_diagram():
    res = run("descend", "--orbit-prime", T31_O4, "--target-space", SP4)
    assert res.returncode == 0
    assert "[][]" in res.stdout
    assert "a=0 b=2" in res.stdout


def test_descend_real_variant():
    op = json.dumps({
        "space": {"base": "R", "division": "R", "epsilon": 1,
                  "signature": [2, 1]},
        "rows": [{"t": 3, "mult": {"base": "R", "division": "R", "epsilon": 1,
                                   "signature": [1, 0]}}]})
    res = run("descend", "--orbit-prime", op, "--target-space", SP2R,
              "--real", "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["rows"][0]["t"] == 2
    # an embedding obstruction reports null, exit 0
    op2 = json.dumps({
        "space": {"base": "R", "division": "R", "epsilon": -1, "dim": 4},
        "rows": [{"t": 2, "mult": {"base": "R", "division": "R",
                                   "epsilon": 1, "signature": [2, 0]}}]})
    v = json.dumps({"base": "R", "division": "R", "epsilon": 1,
                    "signature": [1, 1]})
    res = run("descend", "--orbit-prime", op2, "--target-space", v, "--real",
              "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout) is None


def test_lift():
    res = run("lift", "--orbit", REG2, "--target-space", O4, "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert [r["t"] for r in out["rows"]] == [3, 1]


def test_lift_empty_is_domain_error():
    res = run("lift", "--orbit", REG2, "--target-space", O1)
    assert res.returncode == 2
    err = json.loads(res.stderr)["error"]
    assert err["code"] == "empty_lift"
    assert "message" in err and "context" in err


def test_lift_validates_its_orbit():
    # a 3-row of sp(4,C) needs a multiplicity of sign -1; every command
    # that takes the orbit reports the same validation error
    bad = json.dumps({
        "space": {"base": "C", "division": "C", "epsilon": -1, "dim": 4},
        "rows": [{"t": 3, "mult": {"base": "C", "division": "C",
                                   "epsilon": 1, "dim": 1}}]})
    o6 = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 6})
    for args in (("lift", "--orbit", bad, "--target-space", o6),
                 ("stabilizer", "--orbit", bad)):
        rc, out, err = call(*args, "--json")
        assert (rc, out) == (2, ""), args
        assert json.loads(err)["error"]["code"] == "bad_sign", args


def test_stabilizer():
    res = run("stabilizer", "--orbit", REG2, "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["lie_dim"] == 0
    assert out["orbit_dimension"] == 2


def test_whittaker():
    res = run("whittaker", "--orbit", REG2, "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["grading"] == {"-2": 1, "-1": 0, "0": 1, "1": 0, "2": 1}
    assert out["heisenberg_case"] is False


def test_pair_factor():
    res = run("pair-factor", "--orbit-prime", T31_O4, "--target-space", SP4,
              "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["factorization"]["M_XXp"]["name"] == "O(1,C)"
    assert out["factorization"]["L"]["name"] == "Sp(2,C)"
    assert (out["dim_W"], out["dim_W0"]) == (2, 4)


def test_cycle_lift_stdin():
    plus = {"space": {"base": "R", "division": "R", "epsilon": -1, "dim": 2},
            "rows": [{"t": 2, "mult": {"base": "R", "division": "R",
                                       "epsilon": 1, "signature": [1, 0]}}]}
    minus = {"space": plus["space"],
             "rows": [{"t": 2, "mult": {"base": "R", "division": "R",
                                        "epsilon": 1, "signature": [0, 1]}}]}
    cyc = json.dumps({
        "complex_orbit": json.loads(REG2), "real_space": json.loads(SP2R),
        "terms": [{"orbit": plus, "mult": 2}, {"orbit": minus, "mult": 5}]})
    res = run("cycle-lift", "--orbit", REG2, "--orbit-prime", O3_REG,
              "--target-space", O21, "--json", stdin=cyc)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert len(out["terms"]) == 1
    assert out["terms"][0]["mult"] == 2


def test_range():
    o32 = json.dumps({"base": "R", "division": "R", "epsilon": 1,
                      "signature": [3, 2]})
    sp4r = json.dumps({"base": "R", "division": "R", "epsilon": -1, "dim": 4})
    res = run("range", "--nu", "1", "--space", sp4r, "--target-space", o32,
              "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == {"dim_circ_V": "4", "exponent": "5/4", "threshold": "3/4",
                   "nu": "1", "in_range": True}
    res = run("range", "--nu", "1", "--space", sp4r, "--target-space",
              json.dumps({"base": "R", "division": "R", "epsilon": 1,
                          "signature": [2, 2]}))
    assert res.returncode == 0
    assert "outside the convergent range" in res.stdout


def test_verify_suite():
    res = run("verify", "--suite", "range", "--json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["suite"] == "range"
    assert all(c["passed"] for c in out["checks"])
    elapsed = out["elapsed_s"]
    assert isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool)
    assert elapsed >= 0
    # each check is timed since the previous one, within the suite's time
    times = [c["elapsed_s"] for c in out["checks"]]
    assert all(isinstance(t, float) and t >= 0 for t in times)
    assert math.fsum(times) <= elapsed
    # the identify cache's hits and misses during the suite: none for
    # range; descent's 67 witnesses make 134 calls on 36 distinct values
    assert out["identify_cache"] == {"hits": 0, "misses": 0}
    desc = json.loads(run("verify", "--suite", "descent", "--json").stdout)
    assert desc["identify_cache"] == {"hits": 98, "misses": 36}
    text = run("verify", "--suite", "range")
    assert "elapsed" not in text.stdout and "identify" not in text.stdout


def test_malformed_inputs_exit_1():
    cases = [
        ("orbits", "--space", "{not json"),
        ("orbits", "--space", '{"base": "R", "division": "R", "epsilon": 1}'),
        ("orbits", "--space", '{"base": "R", "division": "R", "epsilon": -1,'
                              ' "dim": 3}'),
        ("descend", "--orbit-prime", '{"rows": []}', "--target-space", SP4),
        ("range", "--nu", "x/y", "--space", SP4, "--target-space", O4),
        ("verify", "--suite", "bogus"),
        ("verify", "--suite", "range", "--max-dims", "4"),
        ("orbits",),  # missing required payload
        ("bogus-subcommand",),
        ("orbits", "--space", SP4, "--bogus-flag"),
    ]
    real = '{"base": "R", "division": "R", "epsilon": 1, '
    cases += [("orbits", "--space", real + tail) for tail in (
        '"dim": null}', '"dim": [1]}', '"dim": 1e400}', '"dim": true}',
        '"signature": [1.5, 0.5]}', '"signature": 2}')]
    cases += [("orbits", "--space", SP4.replace('"epsilon": -1', eps))
              for eps in ('"epsilon": -1.0', '"epsilon": true')]
    cases.append(("stabilizer", "--orbit", REG2.replace('"t": 2', '"t": "2"')))
    for args in cases:
        res = run(*args)
        assert res.returncode == 1, (args, res.stderr)
        assert res.stderr.startswith("error: "), (args, res.stderr)
        assert res.stdout == "" or "error" not in res.stdout
    res = run()
    assert res.returncode == 1


def test_domain_error_exit_2_machine_readable():
    o2 = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 2})
    four = json.dumps({
        "space": {"base": "C", "division": "C", "epsilon": -1, "dim": 4},
        "rows": [{"t": 4, "mult": {"base": "C", "division": "C",
                                   "epsilon": 1, "dim": 1}}]})
    sp4r = json.dumps({"base": "R", "division": "R", "epsilon": -1, "dim": 4})
    o3c = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 3})
    for args, code in [
            (("descend", "--orbit-prime", four, "--target-space", o2),
             "not_in_image"),
            (("range", "--nu", "1", "--space", sp4r, "--target-space", o3c),
             "incompatible_pair")]:
        res = run(*args)
        assert res.returncode == 2, (args, res.stderr)
        err = json.loads(res.stderr)["error"]
        assert err["code"] == code


def test_orbit_past_dimension_bound_is_domain_error():
    o13 = {"base": "C", "division": "C", "epsilon": 1, "dim": 13}
    regular = json.dumps({"space": o13, "rows": [
        {"t": 13, "mult": {"base": "C", "division": "C", "epsilon": 1,
                           "dim": 1}}]})
    for command in ("stabilizer", "whittaker"):
        res = run(command, "--orbit", regular, "--json")
        assert res.returncode == 2, (command, res.stderr)
        assert res.stdout == ""
        err = json.loads(res.stderr)["error"]
        assert err["code"] == "bound_exceeded"
        assert err["context"] == {"dim_f": 13, "bound": 12}


def test_lift_past_dimension_bound_is_domain_error():
    o13 = {"base": "C", "division": "C", "epsilon": 1, "dim": 13}
    zero = json.dumps({"space": o13, "rows": [{"t": 1, "mult": o13}]})
    rc, out, err = call("lift", "--orbit", zero, "--target-space", SP2,
                        "--json")
    assert (rc, out) == (2, "")
    err = json.loads(err)["error"]
    assert err["code"] == "bound_exceeded"
    assert err["context"] == {"dim_f": 13, "bound": 12}


def test_second_stdin_payload_is_refused(monkeypatch, capsys):
    # stdin holds one payload; cycle-lift's --cycle reads it by default
    for argv, flags in [
            (("lift", "--orbit", "-", "--target-space", "-"),
             "--orbit, --target-space"),
            (("cycle-lift", "--orbit", "-", "--orbit-prime", O3_REG,
              "--target-space", O21), "--orbit, --cycle")]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(REG2))
        assert main(list(argv)) == 1
        assert sys.stdin.tell() == 0, argv  # refused before any read
        assert capsys.readouterr() == (
            "", f"error: stdin holds one payload, but {flags} ask for it\n")


def test_text_and_json_agree():
    res_t = run("descend", "--orbit-prime", T31_O4, "--target-space", SP4)
    res_j = run("descend", "--orbit-prime", T31_O4, "--target-space", SP4,
                "--json")
    out = json.loads(res_j.stdout)
    # the rendered a/b/s line carries the same numbers as the JSON model
    assert f"a={out['a']} b={out['b']} s={out['s']}" in res_t.stdout


def call(*argv, entry=main):
    """(exit code, stdout, stderr) of one in-process entry(argv) call, main
    by default; the exit of argparse's --help counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = entry(list(argv))
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


TRANSCRIPT = pathlib.Path(__file__).parent / "golden" / "cli_transcript.json"


def test_cli_transcript_is_byte_identical(monkeypatch):
    # argparse wraps --help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    for rec in json.loads(TRANSCRIPT.read_text()):
        got = call(*rec["argv"])
        assert got == (rec["rc"], rec["stdout"], rec["stderr"]), rec["argv"]


def test_orbits_json_lists_the_brute_force_tableaux_on_every_space():
    # the in-process CLI call on every space up to the dimension bound
    for v in iter_spaces(12):
        want = [tab.to_json() for tab in brute_enumerate(v)]
        got = call("orbits", "--space", json.dumps(v.to_json()), "--json")
        assert got == (0, json.dumps(want, indent=2) + "\n", ""), v.render()


def test_failing_verify_exits_2_with_the_report_on_stdout(monkeypatch):
    def failing(report, rng):
        report.add("always fails", False)
    monkeypatch.setattr(verify, "SUITES", {"failing": failing})
    rc, out, err = call("verify", "--suite", "failing")
    assert rc == 2
    assert out.endswith("FAILURES present (1 checks)\n")
    assert err == ""


def test_shared_parser_matches_a_fresh_one():
    o2 = json.dumps({"base": "C", "division": "C", "epsilon": 1, "dim": 2})
    four = json.dumps({
        "space": {"base": "C", "division": "C", "epsilon": -1, "dim": 4},
        "rows": [{"t": 4, "mult": {"base": "C", "division": "C",
                                   "epsilon": 1, "dim": 1}}]})
    calls = [
        ("orbits", "--space", SP4),
        ("orbits", "--space", SP4, "--bogus-flag"),
        ("descend", "--orbit-prime", four, "--target-space", o2),
        ("descend", "--orbit-prime", T31_O4, "--target-space", SP4, "--json"),
        ("stabilizer", "--orbit", REG2, "--json"),
        ("whittaker", "--orbit", O3_REG),
        ("range", "--nu", "x/y", "--space", SP4, "--target-space", O4),
        ("range", "--nu", "3/4", "--space", SP4, "--target-space", O4),
        ("lift", "--orbit", REG2, "--target-space", O4, "--json"),
        ("bogus-subcommand",),
        ("orbits", "--space", SP4, "--json"),
    ]
    shared = [call(*argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(*argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 1, 2, 0, 0, 0, 1, 0, 0, 1, 0]
    assert build_parser() is build_parser()


def top_level(argv):
    """main(argv) as a full parse by the top parser, which hands the
    subcommand's arguments on to its subparser."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2


def test_subcommand_parse_matches_the_top_level_parse(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to it
    argvs = [rec["argv"] for rec in json.loads(TRANSCRIPT.read_text())]
    argvs += [[], ["-h"], ["--json", "orbits"], ["bogus-subcommand"],
              ["orbits", "--bogus-flag"], ["orbits", "-h"],
              ["orbits", "--spa", SP4]]
    for argv in argvs:
        assert call(*argv) == call(*argv, entry=top_level), argv
    assert call("orbits", "--spa", SP4)[0] == 0  # abbreviations still work
    # the console script calls main() with no argv: it reads sys.argv
    monkeypatch.setattr(sys, "argv", ["dualpairs", "orbits", "--space", SP4])
    assert call(entry=lambda _: main()) == call(
        "orbits", "--space", SP4, entry=top_level)


@pytest.mark.parametrize("argv, message", [
    (("orbits", "--space", "{not json"),
     "invalid JSON for --space: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (("range", "--space", SP4, "--target-space", O4), "range requires --nu"),
    (("range", "--nu", "x/0", "--space", SP4, "--target-space", O4),
     "invalid rational for --nu: 'x/0'"),
    (("range", "--nu", "1/0", "--space", SP4, "--target-space", O4),
     "invalid rational for --nu: '1/0'"),
    (("verify", "--max-dims", "4"), "--max-dims expects 'A,B', got '4'"),
    (("verify", "--max-dims=-1,6"), "--max-dims expects 'A,B', got '-1,6'"),
    (("verify", "--max-dims", "a,b"), "--max-dims expects 'A,B', got 'a,b'"),
    (("verify", "--suite", "nosuch"),
     "unknown suite 'nosuch'; choose from " + ", ".join(
         list(verify.SUITES) + ["all"])),
    (("orbits",), "missing required --space payload"),
])
def test_usage_errors_exit_1_with_their_message(argv, message):
    assert call(*argv) == (1, "", f"error: {message}\n")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 14) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)

SPACES = [v.to_json() for v in iter_spaces(8, include_zero=True)]
ORBITS = [o.to_json() for v in iter_spaces(6) for o in enumerate_orbits(v)]
# dual pairs: same base and division, opposite epsilons
PAIRS = [(v, w) for v in SPACES for w in SPACES
         if (v["base"], v["division"]) == (w["base"], w["division"])
         and v["epsilon"] == -w["epsilon"]]


@given(JSON)
def test_json_writer_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


def test_json_writer_on_a_verify_model_and_foreign_containers():
    model = verify.run_suite("all", max_dims=(4, 6), seed=0).to_json()
    assert all(type(c["elapsed_s"]) is float for c in model["checks"])
    assert _dumps(model) == json.dumps(model, indent=2)
    # json.dumps writes a tuple as a list and an int key as a string;
    # the writer refuses both rather than write them differently
    for obj, kind in (((1, 2), "tuple"), ({"a": [(3,)]}, "tuple"),
                      ({4}, "set")):
        with pytest.raises(TypeError, match=f"^Object of type {kind} is not "
                                            "JSON serializable$"):
            _dumps(obj)
    with pytest.raises(TypeError):  # from json's string encoder
        _dumps({1: 2})


def _slots(obj):
    """(container, key) for every value nested in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in list(items):
        yield obj, key
        if isinstance(val, (dict, list)):
            yield from _slots(val)


def mutate(draw, obj):
    """A copy of obj with up to two nested values replaced by arbitrary
    JSON, deleted or, for a nested object, given an unknown field (none in
    half of the draws); half of the mutations hit a value that is itself an
    object or a list, such as a row."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        slots = list(_slots(obj))
        nested = [(c, k) for c, k in slots if isinstance(c[k], (dict, list))]
        if nested and draw(st.booleans()):
            slots = nested
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(["replace", "delete", "extend"]))
        if how == "extend" and isinstance(container[key], dict):
            container[key]["note"] = draw(JSON)
        elif how == "replace":
            container[key] = draw(JSON)
        else:
            del container[key]
    return obj


@st.composite
def payload(draw, pool):
    """JSON text: arbitrary, or a mutated member of pool (2 draws in 3)."""
    if draw(st.integers(0, 2)):
        return json.dumps(mutate(draw, draw(st.sampled_from(pool))))
    return json.dumps(draw(JSON))


@st.composite
def space_pair(draw):
    """Two space payloads, a mutated dual pair half of the time."""
    if draw(st.booleans()):
        return draw(payload(SPACES)), draw(payload(SPACES))
    v, w = draw(st.sampled_from(PAIRS))
    return json.dumps(mutate(draw, v)), json.dumps(mutate(draw, w))


NU = st.one_of(st.fractions(max_denominator=9).map(str), st.text(max_size=5))


@st.composite
def orbit_and_target(draw):
    """An orbit and a target space payload: each from its own pool half of
    the time, a mutated orbit and a mutated space of the dual type
    otherwise."""
    if draw(st.booleans()):
        return draw(payload(ORBITS)), draw(payload(SPACES))
    o = draw(st.sampled_from(ORBITS))
    duals = [w for v, w in PAIRS if v == o["space"]]
    return (json.dumps(mutate(draw, o)),
            json.dumps(mutate(draw, draw(st.sampled_from(duals)))))


def _cycle_cases():
    """(o, o', V' real, cycle) for every descent o' -> o between two real
    spaces with dim_F <= 3: one cycle per real form of o (multiplicity 1)
    and, for two or more forms, their sum with multiplicities 1, 2, ..."""
    real = [v for v in iter_spaces(3, bases=("R",)) if v.division != "C"]
    cases = []
    for v in real:
        vc = complexify(v)
        for vp in real:
            if (vp.division, vp.epsilon) != (v.division, -v.epsilon):
                continue
            for op in enumerate_orbits(complexify(vp)):
                if not in_moment_image(op, vc):
                    continue
                o = generalized_descent(op, vc).target
                keys = [t for t in enumerate_orbits(v)
                        if complexify_tableau(t).diagram() == o.diagram()]
                terms = [((k, 1),) for k in keys]
                if len(keys) > 1:
                    terms.append(tuple((k, m) for m, k in enumerate(keys, 1)))
                cases += [(o.to_json(), op.to_json(), vp.to_json(),
                           Cycle(o, v, t).to_json()) for t in terms]
    return cases


CYCLE_CASES = _cycle_cases()


O, OP, VP, CYCLE = map(json.dumps, CYCLE_CASES[0])
CYCLE_LIFT = ["cycle-lift", "--cycle", CYCLE, "--orbit", O,
              "--orbit-prime", OP, "--target-space", VP]
STABILIZER = ["stabilizer", "--orbit", REG2]
# level: (argv of a call that succeeds, its payload's reader, the path to
# the object at that level in the payload argv[2], the object's noun)
LEVELS = {
    "space": (["orbits", "--space", SP4], FormedSpace.from_json, [],
              "formed space"),
    "tableau": (STABILIZER, AdmissibleTableau.from_json, [], "tableau"),
    "row": (STABILIZER, AdmissibleTableau.from_json, ["rows", 0],
            "tableau row"),
    "row mult": (STABILIZER, AdmissibleTableau.from_json,
                 ["rows", 0, "mult"], "formed space"),
    "cycle": (CYCLE_LIFT, Cycle.from_json, [], "cycle"),
    "term": (CYCLE_LIFT, Cycle.from_json, ["terms", 0], "cycle term"),
    "term orbit": (CYCLE_LIFT, Cycle.from_json, ["terms", 0, "orbit"],
                   "tableau"),
}


@pytest.mark.parametrize("defect", ["not an object", "unknown field",
                                    "missing field"])
@pytest.mark.parametrize("level", list(LEVELS))
def test_every_payload_object_refuses_a_malformed_object(level, defect):
    argv, from_json, path, noun = LEVELS[level]
    assert call(*argv)[0] == 0
    root = {"payload": json.loads(argv[2])}
    *outer, key = ["payload"] + path
    parent = functools.reduce(operator.getitem, outer, root)
    obj = parent[key]
    if defect == "not an object":
        parent[key] = list(obj)
    elif defect == "unknown field":
        obj["note"] = "x"
    else:
        del obj[next(iter(obj))]  # the first field is a required one
    with pytest.raises(ValueError, match=noun):
        from_json(root["payload"])
    rc, out, err = call(*argv[:2], json.dumps(root["payload"]), *argv[3:])
    assert (rc, out) == (1, ""), err
    assert err.startswith("error: ") and noun in err, err
    assert "Traceback" not in err


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([
        "orbits", "stabilizer", "whittaker", "range", "descend", "lift",
        "pair-factor", "cycle-lift"]))
    if command == "orbits":
        argv = [command, "--space", draw(payload(SPACES))]
    elif command == "range":
        v, w = draw(space_pair())
        argv = [command, "--nu", draw(NU), "--space", v, "--target-space", w]
    elif command == "cycle-lift":
        o, op, vp, c = [json.dumps(mutate(draw, x))
                        for x in draw(st.sampled_from(CYCLE_CASES))]
        argv = [command, "--orbit", o, "--orbit-prime", op,
                "--target-space", vp, "--cycle", c]
    elif command in ("descend", "lift", "pair-factor"):
        o, v = draw(orbit_and_target())
        flag = "--orbit" if command == "lift" else "--orbit-prime"
        argv = [command, flag, o, "--target-space", v]
        if command == "descend":
            argv += draw(st.sampled_from([[], ["--real"]]))
    else:
        argv = [command, "--orbit", draw(payload(ORBITS))]
    return argv + draw(st.sampled_from([[], ["--json"]]))


def _with(obj, **fields):
    return json.dumps({**json.loads(obj), **fields})


@settings(max_examples=200, deadline=None)
@given(cli_argv())
@example(["stabilizer", "--orbit", _with(REG2, rows=None)])
@example(["whittaker", "--orbit", _with(REG2, rows="ab")])
@example(["stabilizer", "--orbit", _with(REG2, rows=[[2, 1]])])
@example(["stabilizer", "--orbit", _with(REG2, rows=[{"t": 2, "mult": 3}])])
@example(["whittaker", "--orbit", _with(REG2, space=[1])])
@example(["range", "--nu", "1", "--space", "[]", "--target-space", O4])
def test_fuzzed_payloads_exit_cleanly(argv):
    rc, out, err = call(*argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 1:
        assert err.startswith("error: "), (argv, err)
    if rc == 2:
        assert "code" in json.loads(err)["error"], (argv, err)
