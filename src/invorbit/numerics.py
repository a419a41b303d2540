"""Shared tolerances and floating-point comparison helpers.

TOL_AXIOM is the published relative slack on axiom and hypothesis
inequalities.  The comparison helpers scale purely with the magnitudes of
the compared values and flag only beyond half the published slack: the
flagging threshold must sit strictly below the slack itself, otherwise
shrinking a relaxation constant by exactly one part in 1e9 lands on the
comparison boundary and detection becomes a coin flip of rounding.
Floating-point noise on genuine structures sits many orders of magnitude
below either threshold at every scale.
"""

import math

TOL_AXIOM = 1e-9  # relative slack on axiom / hypothesis inequalities
TOL_POINT = 1e-12  # ambient point equality on interval carriers
TOL_FIX = 1e-10  # residual bound certifying a fixed point
MIN_TAIL = 8
_INF = math.inf


def tail_window(n: int) -> int:
    """Length of the decision window: the last quarter, at least MIN_TAIL."""
    return min(n, max(MIN_TAIL, -(-n // 4)))


def exceeds(value: float, bound: float) -> bool:
    """True when `value` is above `bound` beyond relative slack.

    An infinite gap exceeds every slack, though the slack of an infinite
    value is infinite too.
    """
    gap = value - bound
    return gap > 0.5 * TOL_AXIOM * max(abs(value), abs(bound)) or gap == math.inf


def differs(a: float, b: float) -> bool:
    """True when two values disagree beyond relative slack.

    As in `exceeds`, an infinite gap disagrees beyond every slack; it is
    tested second, so a finite disagreement costs nothing extra.
    """
    gap = abs(a - b)
    return gap > TOL_AXIOM * max(abs(a), abs(b)) or gap == _INF
