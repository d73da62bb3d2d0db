"""Host-speed calibration for the end-to-end times.

On a shared host the same code ran up to 1.8x slower from one minute to the
next, and CPU time tracked wall time, so the slowdown is in the hardware, not
the scheduler.  Each workload therefore names reference kernels that do the
same kind of work as its op; they run between ops, and an op's time is
divided by their slowness (measured / nominal time) around it.  The kernels
never touch opsample, so a change to the package moves only the op side of
the ratio.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
# Inputs stay small so that they add little to a workload's peak_rss_mb; the
# streaming kernel allocates its 48 MB afresh and frees it before returning.
_SVD = _rng.standard_normal((1024, 5, 5)) + 1j * _rng.standard_normal((1024, 5, 5))
_FFT = _rng.standard_normal((96, 2048)) + 0j  # 3 MB
_FLOATS = _rng.standard_normal(6000).tolist()
STREAM_LEN = 6_000_000

#: kernel -> (work, its time at nominal speed on the 2-core x86-64 host the
#: benchmark was set on, in seconds)
KERNELS = {
    "svd": (lambda: np.linalg.svd(_SVD, compute_uv=False), 0.006),  # batched small SVDs
    "fft": (lambda: np.fft.ifft(_FFT, axis=1), 0.0015),  # complex FFT rows
    "stream": (lambda: np.full(STREAM_LEN, 1.5).sum(), 0.011),  # page faults, streaming
    "format": (lambda: ",".join(f"{x:.17g}" for x in _FLOATS), 0.004),  # interpreter
}


def slowness(kernels):
    """A function that runs ``kernels`` and returns measured / nominal time."""
    nominal = sum(KERNELS[k][1] for k in kernels)
    work = [KERNELS[k][0] for k in kernels]

    def measure():
        t0 = time.perf_counter()
        for run in work:
            run()
        return (time.perf_counter() - t0) / nominal

    return measure
