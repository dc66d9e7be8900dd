"""Host-speed probe.

The reference host is a shared VM whose speed drifts by itself: the same
fixed work can take 1.7 times as long from one minute to the next.  A
fixed piece of numpy and interpreter work, timed on the same core right
next to the measured work, tracks that drift.  Dividing a measured time by the
probe times around it and multiplying by PROBE_REF_S gives *reference
seconds*: the time on a host where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.05

_rng = np.random.default_rng(0)
EIG_MATRIX = _rng.normal(size=(100, 100)) + 1j * _rng.normal(size=(100, 100))
GEMM_MATRIX = _rng.normal(size=(300, 300)) + 1j * _rng.normal(size=(300, 300))


def probe() -> float:
    """Wall time of fixed work of the three kinds the workloads spend
    their time in: an eigensolve, dense products and float rendering.
    It allocates little, so it leaves the worker's peak RSS alone."""
    t0 = perf_counter()
    np.linalg.eig(EIG_MATRIX)
    for _ in range(2):
        GEMM_MATRIX @ GEMM_MATRIX
    json.loads("[" + ",".join(format(0.1 * i, ".17g")
                              for i in range(8000)) + "]")
    return perf_counter() - t0


def in_reference_seconds(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s
