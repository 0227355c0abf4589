"""The identity suites as a library: naming, passing, counterexamples."""

import random

import pytest

from so3p import cli, haar
from so3p.padic import canonical_units
from so3p.verify import (
    SUITE_NAMES,
    CheckResult,
    _check,
    cardano_roundtrip_check,
    run_suites,
    unit_quotient_check,
)


@pytest.mark.parametrize("p", [3, 7])
def test_all_suites_pass_small(p):
    # the exact suites on 15 draws; invariance on its default 2000, as
    # below 10 p^2 draws it fails as inconclusive
    ctx = canonical_units(p)
    exact = [name for name in SUITE_NAMES if name != "invariance"]
    results = run_suites(ctx, exact, samples=15, seed=2) + run_suites(ctx, ["invariance"], seed=2)
    assert sum(r.name.startswith("sampler invariance") for r in results) == 3
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_invariance_below_the_draw_floor_is_inconclusive(capsys):
    ctx = canonical_units(3)
    results = run_suites(ctx, ["invariance"], samples=15)
    assert len(results) == 3
    for r in results:
        assert not r.passed
        assert r.detail == "inconclusive: n = 15, needs at least 90 draws"
    code = cli.main(["verify", "--prime", "3", "--suite", "invariance", "--samples", "15"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("FAIL") == 3 and "inconclusive" in out


def test_invariance_below_the_draw_floor_draws_nothing(monkeypatch):
    # p = 17 needs 2890 draws, more than the default 2000
    def no_draws(*args):
        raise AssertionError("an inconclusive check drew a rotation")

    monkeypatch.setattr(haar, "_draw_so3", no_draws)
    results = run_suites(canonical_units(17), ["invariance"])
    assert [(r.passed, r.detail) for r in results] == [
        (False, "inconclusive: n = 2000, needs at least 2890 draws")
    ] * 3


def test_names_are_unique():
    ctx = canonical_units(5)
    results = run_suites(ctx, SUITE_NAMES, samples=5, seed=0)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_unknown_suite():
    ctx = canonical_units(3)
    with pytest.raises(ValueError):
        run_suites(ctx, ["algebra", "nope"], samples=5)


def test_deterministic_given_seed():
    ctx = canonical_units(3)
    a = run_suites(ctx, ["invariance"], samples=400, seed=7)
    b = run_suites(ctx, ["invariance"], samples=400, seed=7)
    assert a == b


def test_counterexample_reports_draw_and_witness():
    draws = iter(range(10))
    result = _check(
        "demo",
        10,
        lambda: (next(draws),),
        lambda x: (x != 3, f"broke at {x}"),
    )
    assert result == CheckResult("demo", False, "counterexample at draw 3: broke at 3")


def test_standalone_checks():
    ctx = canonical_units(5)
    rng = random.Random(11)
    assert cardano_roundtrip_check(ctx, 25, rng).passed
    assert unit_quotient_check(ctx, 50, rng).passed
