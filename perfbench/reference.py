"""The machine's current speed, measured with a fixed reference kernel.

The benchmark host's speed drifts with other tenants' load: the reference
kernel ran anywhere from ~16 000 to ~30 000 iterations per second within
one hour.  Gated timings are therefore reported in reference seconds: the
measured wall time scaled by the reference rate sampled next to it, so
that one reference second is NOMINAL_RATE iterations of the kernel.
"""

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

#: Iterations per second that define one reference second (about the
#: middle of the range seen on the 2-vCPU host the benchmark was tuned on).
NOMINAL_RATE = 20000.0

_RNG = np.random.default_rng(12345)
_X = _RNG.random((600, 4))
_IDX = _RNG.integers(0, 150, (600, 4))
_V = np.linspace(-1.0, 1.0, 150)


def _iteration() -> None:
    x = 1.0 - _X * _V[_IDX]
    np.partition(x, 1, axis=1)
    np.bincount(_IDX.ravel(), weights=x.ravel(), minlength=150)
    acc = 0.0
    for k in range(100):
        acc += k * 0.5


def reference_rate(seconds: float = 0.1) -> float:
    """Iterations per second of a kernel in the mix memflow spends its time
    on: small numpy gathers, partitions and bincounts plus a Python loop.
    It calls nothing in memflow, so only the machine moves it."""
    _iteration()
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        _iteration()
        n += 1
    return n / (time.perf_counter() - t0)


def to_reference_seconds(wall_s: float, rate: float) -> float:
    return wall_s * rate / NOMINAL_RATE


@contextlib.contextmanager
def sampler(cpus: int):
    """A function that samples the reference rate on ``cpus`` CPUs at once
    and returns the mean, for work that runs on that many processes.  The
    extra samples run in helper processes that live as long as the
    context."""
    if cpus <= 1:
        yield reference_rate
        return
    with ProcessPoolExecutor(max_workers=cpus - 1) as helpers:
        def sample() -> float:
            others = [helpers.submit(reference_rate) for _ in range(cpus - 1)]
            return (reference_rate() + sum(f.result() for f in others)) / cpus

        yield sample
