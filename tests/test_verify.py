import math
import random
from pathlib import Path

from dualpairs import (IdentityViolated, complex_symplectic_space,
                       enumerate_orbits, oracle, theta, verify)
from dualpairs.verify import run_suite

GOLDEN_6_8 = Path(__file__).parent / "golden" / "verify_all_6_8.txt"


def test_failing_check_names_first_instance(monkeypatch):
    calls = []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise IdentityViolated("planted failure")

    monkeypatch.setattr(oracle, "construct_descent_element", fail_second)
    monkeypatch.setattr(oracle, "verify_dimension_identity", fail_second)
    for suite in ("descent", "dim-identity"):
        calls.clear()
        check, = run_suite(suite, max_dims=(2, 2)).checks
        assert not check.passed
        assert check.detail == (
            f"{len(calls) - 1}/{len(calls)}; first failure V=C,C,+1 dim=1, "
            "O'=(1, 1) in C,C,-1 dim=2: identity_violated")
    monkeypatch.undo()
    check, = run_suite("descent", max_dims=(2, 2)).checks
    assert check.passed and check.detail == f"{len(calls)}/{len(calls)}"


def test_stabilizer_check_names_its_first_failing_tableau(monkeypatch):
    calls = []
    centralizer_dim = oracle.triple_centralizer_dim

    def off_on_third(real):
        calls.append(real)
        return centralizer_dim(real) + (len(calls) == 3)

    monkeypatch.setattr(oracle, "triple_centralizer_dim", off_on_third)
    checks = run_suite("stabilizer", max_dims=(2, 2)).checks
    assert not checks[0].passed
    assert checks[0].detail == "15/16; first failure (2,) in C,C,-1 dim=2"
    assert all(c.passed for c in checks[1:])


def test_domain_error_fails_only_its_check(monkeypatch):
    def raising(real):
        raise IdentityViolated("planted failure")

    monkeypatch.setattr(oracle, "graded_dims", raising)
    checks = run_suite("stabilizer", max_dims=(2, 2)).checks
    assert [c.passed for c in checks] == [True, False, True, True, True]
    assert checks[1].name == \
        "weight-counted grading = oracle graded dims of ad H"
    assert checks[1].detail == (
        "0/16; first failure (1,) in C,C,+1 dim=1: identity_violated")


def test_failing_tuple_case_is_labelled_by_its_parts():
    """A tuple case is named by its parts, joined: a space by render(),
    anything else by str."""
    space = complex_symplectic_space(2)
    report = verify.SuiteReport("forms", 0, (2, 2))
    report.tally("planted", [(space, 2)], lambda case: False)
    check, = report.checks
    assert not check.passed
    assert check.detail == f"0/1; first failure {space.render()}, 2"


def test_all_suites_pass_at_six_eight():
    report = run_suite("all", max_dims=(6, 8), seed=0)
    assert report.passed, report.render()
    # per-check times tile each suite's run, so they sum to less
    times = [c.to_json()["elapsed_s"] for c in report.checks]
    assert min(times) >= 0 and math.fsum(times) <= report.elapsed_s
    assert "elapsed" not in report.render()
    # the text report, seeded counts included, is byte-identical to the
    # checked-in one (the CLI prints it with a final newline)
    assert report.render() + "\n" == GOLDEN_6_8.read_text()


def _recorded_suites(monkeypatch) -> list:
    """The reports of every run_suite call from now on, in order: each
    suite of an all run, then all."""
    subs = []
    run = verify.run_suite

    def recorded(name, **kwargs):
        rep = run(name, **kwargs)
        subs.append(rep)
        return rep

    monkeypatch.setattr(verify, "run_suite", recorded)
    return subs


def test_identify_cache_counts_are_summed_over_all(monkeypatch):
    """Each suite reports the hits and misses of oracle._identify's cache
    during its run, and all reports their sum: the cache_info() delta over
    the whole run."""
    subs = _recorded_suites(monkeypatch)
    before = oracle._identify.cache_info()
    report = verify.run_suite("all", max_dims=(2, 4), seed=0)
    after = oracle._identify.cache_info()
    assert [r.suite for r in subs] == list(verify.SUITES) + ["all"]
    total = {"hits": after.hits - before.hits,
             "misses": after.misses - before.misses}
    assert report.to_json()["identify_cache"] == total
    assert total["misses"] > 0 and total["hits"] > 0
    assert {k: sum(r.identify_cache[k] for r in subs[:-1])
            for k in total} == total


def test_descent_cache_counts_are_summed_over_all(monkeypatch):
    """Each suite reports the hits and misses of theta._descent's
    cache during its run, next to identify_cache in JSON, and all reports
    their sum; the text report shows neither."""
    subs = _recorded_suites(monkeypatch)
    theta._descent.cache_clear()
    report = verify.run_suite("all", max_dims=(2, 4), seed=0)
    info = theta._descent.cache_info()
    total = {"hits": info.hits, "misses": info.misses}
    out = report.to_json()
    assert list(out)[5:7] == ["identify_cache", "descent_cache"]
    assert out["descent_cache"] == total
    assert total["misses"] > 0 and total["hits"] > 0
    assert {k: sum(r.descent_cache[k] for r in subs[:-1])
            for k in total} == total
    assert "cache" not in report.render()


def test_each_descent_verdict_is_computed_once_per_run():
    """From an emptied cache, verify all at 4,6 decides each complex
    (O', V) it meets once, the 21 outside the moment image included: the
    misses are the orbits of the complex pairs, and the cycles suite's
    pairs are among them."""
    theta._descent.cache_clear()
    report = run_suite("all", max_dims=(4, 6), seed=0)
    keys = sum(len(enumerate_orbits(vp))
               for _, vp in verify._complex_pairs((4, 6)))
    assert report.descent_cache["misses"] == keys == 88


def test_lift_cache_counts_are_summed_over_all(monkeypatch):
    """Each suite reports the hits and misses of theta._lift's cache during
    its run, after descent_cache in JSON, and all reports their sum; the
    text report shows none of the counts."""
    subs = _recorded_suites(monkeypatch)
    theta._lift.cache_clear()
    report = verify.run_suite("all", max_dims=(2, 4), seed=0)
    info = theta._lift.cache_info()
    total = {"hits": info.hits, "misses": info.misses}
    out = report.to_json()
    assert list(out)[5:8] == ["identify_cache", "descent_cache", "lift_cache"]
    assert out["lift_cache"] == total
    assert total["misses"] > 0 and total["hits"] > 0
    assert {k: sum(r.lift_cache[k] for r in subs[:-1])
            for k in total} == total
    assert "cache" not in report.render()


def test_each_lift_verdict_is_computed_once_per_run():
    """From an emptied cache, the lift suite at 4,6 lifts each (O, V') it
    meets once: the strict descents' targets over their sources' spaces,
    and the orbit of T*T of each sampled map over V', replayed here from
    the same seed."""
    pairs = {(d.target, d.source.space)
             for d in verify._image_descents((4, 6)) if d.strict}
    rng = random.Random(0)
    for v, vp in verify._complex_pairs((4, 6)):
        vr = oracle.realize_triple(enumerate_orbits(v)[0])
        vpr = oracle.realize_triple(enumerate_orbits(vp)[0])
        for _ in range(200):
            x, _ = oracle.moment_maps(oracle.sample_raising_map(vr, vpr, rng))
            pairs.add((oracle.identify(x, vr.ambient), vp))
    theta._lift.cache_clear()
    report = run_suite("lift", max_dims=(4, 6), seed=0)
    assert report.lift_cache["misses"] == len(pairs) == 43


def test_lift_check_detail_is_pinned_at_seed_zero():
    """The lift check's sampled maps are fixed by the seed: a change to the
    draws or to the moment-map values moves this detail."""
    checks = run_suite("lift", max_dims=(4, 6), seed=0).checks
    assert checks[-1].name == \
        "random moment-map values stay inside the lift closure"
    assert checks[-1].passed
    assert checks[-1].detail == "3230 contained, 1570 lift-undefined"


def test_suites_read_no_dense_fraction_forms(monkeypatch):
    """The suites run on the oracle's integer matrices: with the dense
    Fraction Gram matrix and D-structures of every ambient space made to
    raise, every suite still passes."""
    def refuse(self):
        raise AssertionError("dense Fraction form read")

    for name in ("gram", "structures"):
        monkeypatch.setattr(oracle.AmbientSpace, name, property(refuse))
    report = run_suite("all", max_dims=(2, 4), seed=0)
    assert report.passed, report.render()
