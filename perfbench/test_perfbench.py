"""Tests of the benchmark's own helpers: percentiles, input generation,
failure classification and the compare verdicts."""

import importlib
import sys
import types

import harness
from compare import verdict
from workloads import WORKLOADS, flanders_ok

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))

from dualpairs import (AdmissibleTableau, EmptyLift, FormedSpace,  # noqa: E402
                       IdentityViolated)
from dualpairs.cycles import Cycle  # noqa: E402


def modules():
    """The already-imported package as the namespace workloads expect.
    (harness.fresh_import would replace modules other tests still use.)"""
    return types.SimpleNamespace(
        **{m: importlib.import_module("dualpairs." + m)
           for m in harness.MODULES})


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(99) is None
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(999) == 90
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(10000) == 99.9
    for n in (100, 250, 1000, 4321, 10000):
        p = harness.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > harness.percentile(values, p))
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([7], 90) == 7


LEAF_TYPES = (int, str, frozenset, type(None), FormedSpace, AdmissibleTableau,
              Cycle)


def _leaves(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _leaves(x)
    else:
        yield obj


def test_generators_are_deterministic_and_pass_only_inputs():
    dp = modules()
    for wl in WORKLOADS.values():
        first, again = wl.generate(dp, 3), wl.generate(dp, 3)
        assert first == again, wl.name
        assert len(first) >= 100, wl.name
        assert len({item.id for item in first}) == len(first), wl.name
        other = wl.generate(dp, 4)
        assert [i.id for i in other] != [i.id for i in first], wl.name
        for item in first:
            for leaf in _leaves(item.args):
                # plain data only: no realization or other program state
                assert isinstance(leaf, LEAF_TYPES) or \
                    type(leaf).__name__ == "Fraction", (wl.name, type(leaf))


def test_outcome_classification():
    documented = frozenset({"empty_lift"})
    assert harness.outcome(None, documented) == "ok"
    assert harness.outcome(EmptyLift("none"), documented) == "documented"
    assert harness.outcome(EmptyLift("none"), frozenset()) == "failed"
    assert harness.outcome(IdentityViolated("bad"), documented) == "failed"
    assert harness.outcome(ValueError("empty_lift"), documented) == "failed"


def _run_item(wl, dp, item):
    return wl.check(dp, item, wl.run(dp, item, harness.Tracer(False)))


def test_identity_violated_counts_as_failure():
    dp = modules()
    wl = WORKLOADS["witness-sweep"]
    item = next(i for i in wl.generate(dp, 0)
                if i.id.startswith("R,R,+1 sig=(0,2)|R,R,-1 dim=2|((2,)"))
    status, canon = _run_item(wl, dp, item)
    assert status == "failed"
    assert canon["witness"] == ["raised", "identity_violated"]


def test_empty_lift_is_a_documented_outcome():
    dp = modules()
    wl = WORKLOADS["lift-sweep"]
    for item in wl.generate(dp, 0)[:40]:
        status, canon = _run_item(wl, dp, item)
        if canon[2] is None:
            assert status == "documented"
            return
        assert status == "ok"
    raise AssertionError("no EmptyLift among the first 40 items")


def test_cli_exit_2_documented_only_when_expected():
    dp = modules()
    wl = WORKLOADS["cli-calls"]
    items = wl.generate(dp, 0)
    outside = next(i for i in items if i.args[0] == "descend"
                   and i.args[2] == 2)
    assert _run_item(wl, dp, outside)[0] == "documented"
    inside = next(i for i in items if i.args[0] == "descend"
                  and i.args[2] == 0)
    assert _run_item(wl, dp, inside)[0] == "ok"


def test_flanders_bound():
    assert flanders_ok((3, 1), (2, 1, 1))
    assert flanders_ok((2,), (1, 1))
    assert not flanders_ok((3,), (1, 1))


def test_compare_verdicts():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdict(base, base, "higher", 0.1, list(zip(base, base))) == "same"
    worse = [v * 0.8 for v in base]
    assert verdict(base, worse, "higher", 0.1,
                   list(zip(base, worse))) == "regression"
    better = [v * 1.2 for v in base]
    assert verdict(base, better, "higher", 0.1,
                   list(zip(base, better))) == "gain"
    noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert verdict(base, noisy, "higher", 0.1,
                   list(zip(base, noisy))) == "unresolved"
    assert verdict(base, worse, "lower", 0.1,
                   list(zip(base, worse))) == "gain"


def test_smoothed_percentile():
    assert abs(harness.smoothed_percentile([7] * 50, 50) - 7) < 1e-12
    assert harness.smoothed_percentile([3, 1, 2], 50) == 2
    # a gap at the median: the nearest rank jumps when one sample crosses
    # it, the smoothed estimate moves by a small share of the gap
    low, high = [1.0] * 100, [2.0] * 100
    before = low + high
    after = low[:-1] + high + [2.0]
    assert harness.percentile(after, 50) - harness.percentile(before, 50) == 1
    moved = harness.smoothed_percentile(after, 50) - \
        harness.smoothed_percentile(before, 50)
    assert 0 < moved < 0.1
    values = [float(v) for v in range(1, 1001)]
    assert abs(harness.smoothed_percentile(values, 90) - 900) < 2


def test_reference_speed_cancels_machine_speed():
    wall = [0.010, 0.002, 0.030, 0.005]
    probes = [0.001, 0.0011, 0.0009, 0.001, 0.001]
    scaled = harness.at_reference_speed(wall, probes)
    slower = harness.at_reference_speed([w * 1.6 for w in wall],
                                        [p * 1.6 for p in probes])
    assert all(abs(a - b) < 1e-12 for a, b in zip(scaled, slower))
    flat = harness.at_reference_speed(wall, [0.002] * 5)
    assert flat == [w * harness.PROBE_REF_S / 0.002 for w in wall]
