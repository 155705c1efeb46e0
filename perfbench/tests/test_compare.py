"""Verdicts of compare.py.

    python3 -m pytest perfbench/tests
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from compare import verdict  # noqa: E402

PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
FASTER = [value / 2 for value in PARENT]


def test_faster_change_is_better():
    assert verdict(PARENT, FASTER, "lower", 0.25) == ("better", 1.0)


def test_failing_change_is_never_better():
    # a change whose jobs crash finishes sooner; that is no gain
    assert verdict(PARENT, FASTER, "lower", 0.25, change_failed=1) == ("failed", 1.0)


def test_slower_change_is_worse_beyond_bound():
    slower = [value * 1.5 for value in PARENT]
    assert verdict(PARENT, slower, "lower", 0.25) == ("worse beyond bound", 0.0)
