"""Determinism of the benchmark's input generator and workload schedules.

    python3 -m pytest bench/tests
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402


def test_pools_are_fixed_and_labelled_once():
    for spec in (gen.EXACT_POOL, gen.VERIFY_POOL):
        first, second = gen.pool(spec), gen.pool(spec)
        assert first == second
        labels = [label for label, _, _ in first]
        assert len(labels) == len(set(labels)) == sum(n for _, n, *_ in spec)


def test_random_family_follows_the_recipe():
    for i in range(200):
        rng = random.Random(i)
        punctured = i % 2 == 1
        fiber, g = gen.random_family(rng, punctured, 2)
        assert "t*u" in g
        assert fiber == ("punctured_line" if punctured else "affine_line")
        assert ("u^-" in g) == punctured
        assert gen.random_family(random.Random(i), punctured, 2) == (fiber, g)


def test_admissible_point_is_seeded_and_clear_of_balls():
    balls = [[[0.0, 0.0], 0.1], [[1.0, 1.0], 0.05]]
    a = [gen.admissible_point(random.Random(7), balls) for _ in range(3)]
    assert a[0] == a[1] == a[2]
    rng = random.Random(11)
    for _ in range(200):
        t = gen.admissible_point(rng, balls)
        assert gen.R_MIN - 1e-6 <= abs(t) <= gen.R_MAX + 1e-6
        for (c, r) in balls:
            assert abs(t - complex(*c)) > gen.CLEARANCE + 2 * r


def test_admissible_path_stays_clear_of_balls():
    balls = [[[0.0, 0.0], 0.2]]
    rng = random.Random(3)
    for _ in range(100):
        start = gen.admissible_point(rng, balls)
        a, b = gen.admissible_path(rng, start, balls)
        assert a == start
        assert gen.segment_distance(a, b, 0j) > gen.CLEARANCE + 2 * 0.2
    assert gen.admissible_path(random.Random(5), 2 + 0j, balls) == gen.admissible_path(
        random.Random(5), 2 + 0j, balls
    )


def test_segment_distance():
    assert gen.segment_distance(0j, 2 + 0j, 1 + 1j) == pytest.approx(1.0)
    assert gen.segment_distance(0j, 2 + 0j, 3 + 0j) == pytest.approx(1.0)
    assert gen.segment_distance(1j, 1j, 0j) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def loaded():
    import run
    import workloads

    return run.load_package(), workloads.load_refs()


def _keys(workload, seed, loaded, n_rounds=2):
    import workloads

    pkg, refs = loaded
    rounds, _ = workloads.SETUP[workload](pkg, refs, seed)
    return [
        [op.key for group in next(rounds) for op in group] for _ in range(n_rounds)
    ]


@pytest.mark.parametrize("workload", ["exact_ladder", "period_sweep", "verify_battery"])
def test_schedules_depend_only_on_the_seed(workload, loaded):
    assert _keys(workload, 1, loaded) == _keys(workload, 1, loaded)
    assert _keys(workload, 1, loaded) != _keys(workload, 2, loaded)


def test_reference_points_are_admissible(loaded):
    _, refs = loaded
    for label, fam in refs["sweep"].items():
        for point in fam["points"]:
            assert gen.admissible(complex(*point["t"]), fam["hard_balls"])
    for label, info in refs["verify"].items():
        assert gen.admissible(complex(*info["t"]), info["hard_balls"])


@pytest.mark.parametrize("workload", ["period_sweep", "verify_battery"])
def test_rounds_leave_out_the_baseline_failures(workload, loaded):
    pkg, refs = loaded
    known = set(refs["known_failures"].get(workload, []))
    for keys in _keys(workload, 3, loaded):
        assert known.isdisjoint(keys)


def test_period_sweep_rounds_hold_every_passing_point(loaded):
    _, refs = loaded
    points = sum(len(fam["points"]) for fam in refs["sweep"].values())
    known = refs["known_failures"].get("period_sweep", [])
    first, second = _keys("period_sweep", 4, loaded)
    assert sorted(first) == sorted(second)
    assert len(set(first)) == len(first) == points - len(known)


def test_period_check_uses_the_documented_floor():
    import workloads

    point = {"ref": [[[1.0, 0.0, 0.0, 1e6]]]}
    floor = 100.0 * workloads.EPS * 1e6
    ok = workloads.check_entries([[(1.0 + floor / 2, floor)]], point, 1e-10)
    assert ok[0] is None
    too_big = workloads.check_entries([[(1.0, 3.0 * floor)]], point, 1e-10)
    assert "exceeds" in too_big[0]
    missed = workloads.check_entries([[(1.0 + 4 * floor, floor)]], point, 1e-10)
    assert "misses" in missed[0]


def test_clock_scales_ops_by_the_suite_times_near_them():
    import calib

    clock = calib.Clock()
    clock.samples = [(i, calib.REF_S * (2.0 if i < 10 else 4.0)) for i in range(0, 20, 2)]
    clock.n_ops = 20
    factors = clock.factors()
    assert len(factors) == 20
    assert factors[0] == 0.5 and factors[-1] == 0.25
    assert all(a >= b for a, b in zip(factors, factors[1:]))
