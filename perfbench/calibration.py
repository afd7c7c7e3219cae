"""The calibration task: fixed work that times this machine's current speed.

The machine the baseline was measured on switches between two speeds about
1.45x apart, each holding for seconds to minutes, and CPU time moves with
wall time.  Timing this task next to the work being measured and dividing
by it cancels most of that drift.  The task never changes with the program,
so a change to semcheck moves only the numerator.
"""

from __future__ import annotations

import json
from fractions import Fraction

#: the task's time on the baseline machine at its faster speed, rounded; a
#: time in calibration units times this reads as seconds at that speed
REFERENCE_S = 0.0003

_SUCC = [[(7 * x + 3) % 24, (5 * x + 11) % 24] for x in range(24)]


def calibration_task() -> int:
    """A small subset construction over frozensets and dicts, some exact
    rational arithmetic and a JSON round trip: the operations semcheck
    spends its time in."""
    start = frozenset({0})
    seen = {start: 0}
    todo = [start]
    while todo:
        s = todo.pop()
        for a in (0, 1):
            t = frozenset(_SUCC[x][a] for x in s) | {(min(s) + a) % 24}
            if t not in seen and len(seen) < 40:
                seen[t] = len(seen)
                todo.append(t)
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i, 7 * i + 3)
    return len(seen) + len(json.loads(json.dumps({"v": [str(acc)] * 8})))
