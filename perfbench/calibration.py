"""Fixed work outside proxima that tells how fast the machine runs now.

The reference machine's speed drifts by up to 1.7x over seconds to minutes
(README.md), so the benchmark scales every sample to a fixed speed.  A
library call is scaled by ``calibration()``, taken in the benchmark's own
process.  A CLI process is scaled by a probe: this file run as its own
process, which starts an interpreter, imports numpy and runs
``calibration_work()`` PROBE_PASSES times, like a short ``proxima`` command.

    python3 perfbench/calibration.py      # one probe
"""

from __future__ import annotations

import time

import numpy as np

PROBE_PASSES = 10

_WORDS = [f"c{i:03d}" for i in range(400)]
_TEXT = [_WORDS[i * 7919 % 400] for i in range(3000)]
_XS = np.arange(3000)


def calibration_work() -> float:
    """The engine's mix in miniature: a positional index built in a Python
    loop, then small numpy distance profiles over it."""
    positions: dict[str, list[int]] = {}
    for i, word in enumerate(_TEXT):
        positions.setdefault(word, []).append(i)
    total = 0.0
    for word in sorted(positions)[:40]:
        occ = np.asarray(positions[word])
        right = np.clip(np.searchsorted(occ, _XS), 0, len(occ) - 1)
        total += float(np.minimum(np.abs(_XS - occ[right]), 5).sum())
    return total


def calibration() -> float:
    """Seconds calibration_work() takes now: the best of three passes."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - started)
    return best


if __name__ == "__main__":
    for _ in range(PROBE_PASSES):
        calibration_work()
