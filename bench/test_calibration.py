"""Tests of the rescaling of op times by the calibration unit.

    python3 -m pytest -q bench/test_calibration.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
from calibration import REF_UNIT_S  # noqa: E402


def test_unit_is_fixed_work():
    assert calibration.unit() == calibration.unit()


def test_a_uniform_slowdown_cancels():
    ops = [(0.1, 1e-3), (1.2, 1e-3)]
    fast = calibration.rescale(ops, [(0.0, REF_UNIT_S), (1.0, REF_UNIT_S)])
    # the second second runs at half speed: op and unit take twice as long
    slow = calibration.rescale([(0.1, 1e-3), (1.2, 2e-3)], [(0.0, REF_UNIT_S), (1.0, 2 * REF_UNIT_S)])
    assert fast == pytest.approx([1e-3, 1e-3])
    assert slow == pytest.approx(fast)


def test_each_window_uses_its_own_median():
    units = [(0.1, 1.0), (0.2, 2.0), (0.3, 9.0), (1.5, 4.0)]
    out = calibration.rescale([(0.5, 1.0), (1.9, 1.0)], units)
    assert out == pytest.approx([REF_UNIT_S / 2.0, REF_UNIT_S / 4.0])


def test_a_window_without_units_uses_the_nearest():
    units = [(0.5, 1.0), (3.5, 2.0)]
    out = calibration.rescale([(1.2, 1.0), (2.9, 1.0)], units)
    assert out == pytest.approx([REF_UNIT_S / 1.0, REF_UNIT_S / 2.0])
