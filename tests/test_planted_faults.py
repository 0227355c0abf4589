"""Planted faults: each check of `so3p verify` must fail on a broken program.

Every fixture here patches one fault into the library; the tests assert
that the check meant to see it prints FAIL and that `verify` exits 1, and
that the same command passes on the unpatched code.
"""

import pytest

from so3p import cli, haar


def verify(capsys, p, suite):
    code = cli.main(["verify", "--prime", str(p), "--suite", suite])
    return code, capsys.readouterr().out.splitlines()


@pytest.fixture
def biased_digits(monkeypatch):
    """Sampler digits whose lowest digit is never p - 1: it becomes p - 2."""
    real = haar._digits

    def biased(rng, p, count):
        acc = real(rng, p, count)
        return acc - 1 if acc % p == p - 1 else acc

    monkeypatch.setattr(haar, "_digits", biased)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_biased_sampler_fails_invariance(capsys, biased_digits, p):
    code, lines = verify(capsys, p, "invariance")
    assert code == 1
    assert len(lines) == 3
    assert all(line.startswith("FAIL sampler invariance") for line in lines), lines
    assert not any("inconclusive" in line for line in lines)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_unpatched_sampler_passes_invariance(capsys, p):
    code, lines = verify(capsys, p, "invariance")
    assert code == 0, lines
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
