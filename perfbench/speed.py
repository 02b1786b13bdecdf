"""Machine speed sampler: times fixed pieces of work every INTERVAL_S
seconds while the pipeline runs, in the pipeline's own process.

On a shared host the speed of a vCPU drifts by up to ~2x, from one second
to the next and for minutes at a time, and CPU time drifts with wall time,
so a raw pipeline time says as much about the neighbours as about the
program. A probe timed only between stages misses the drift inside a long
stage. So the sampler runs during the stages: an interval timer raises
SIGALRM, and the handler times one pass of each kind of fixed work on the
same core, at that moment. A timed span is reported at reference speed:

    (span - sampler time inside it) * REFERENCE_S[kind] / mean sample near it

The work is the benchmark's own code and never changes with the program,
so a change that speeds up the program still lowers the scaled time by the
same share; only the machine's drift divides out. There are two kinds, as
the machine's drift slows them by different shares: "compute" mirrors the
GPIS kernel evaluation (elementwise numpy over a kernel block, a BLAS
matrix-vector product) plus interpreted Python, into buffers allocated
once, and scales the pipeline stages; "hash" is SHA-256 over a fixed
buffer, the bulk of an all-skip rerun, and scales the reruns. Python runs
signal handlers between bytecodes, so a handler never
interrupts the program's C code and touches none of its state; during a
long C call (a large Cholesky) the sample waits until the call returns.
"""

import hashlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1              # sampling period; one sample is ~3 % of it
# Seconds of one pass of each kind at the reference speed: about the mean
# pass on the 2-vCPU x86 VM the benchmark was built on (one BLAS thread).
REFERENCE_S = {"compute": 0.002, "hash": 0.0004}
KINDS = tuple(REFERENCE_S)
WINDOW_S = 0.5                # samples this close to a span also scale it


class Sampler:
    def __init__(self):
        rng = np.random.default_rng(20240315)
        self.rows = rng.standard_normal((32, 1, 3))
        self.points = rng.standard_normal((1, 1024, 3))
        self.weights = rng.standard_normal(1024)
        self.diff = np.empty((32, 1024, 3))
        self.dist = np.empty((32, 1024))
        self.cross = np.empty((32, 1024))
        self.block = rng.bytes(512 * 1024)
        self.samples = []
        self.previous = None

    def compute(self):
        """Seconds taken by one pass of the compute work."""
        started = time.perf_counter()
        for _ in range(2):
            np.subtract(self.rows, self.points, out=self.diff)
            np.einsum("ijk,ijk->ij", self.diff, self.diff, out=self.dist)
            np.sqrt(self.dist, out=self.dist)
            np.exp(self.dist, out=self.cross)
            np.multiply(self.cross, self.dist, out=self.cross)
            self.cross @ self.weights
        total = 0
        for i in range(300):
            total += i
        return time.perf_counter() - started

    def hash(self):
        """Seconds taken by one pass of the hash work."""
        started = time.perf_counter()
        hashlib.sha256(self.block).digest()
        return time.perf_counter() - started

    def _on_alarm(self, signum, frame):
        started = time.perf_counter()
        self.samples.append((started,) + tuple(getattr(self, kind)() for kind in KINDS))

    def start(self):
        """Sample now and then every INTERVAL_S until stop()."""
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; returns the samples, each (perf_counter start,
        compute seconds, hash seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._on_alarm(signal.SIGALRM, None)
        return self.samples


def net_seconds(start, end, samples):
    """Seconds from `start` to `end` less the sampler's own time in them."""
    return end - start - sum(sum(s[1:]) for s in samples if start <= s[0] < end)


def at_reference_speed(start, end, samples, kind="compute"):
    """Seconds from `start` to `end` (perf_counter values), less the
    sampler's own time in them, scaled to the reference speed by the mean
    `kind` sample taken from WINDOW_S before `start` to WINDOW_S after `end`.

    With no sample in that window (a span next to a long C call), the
    sample nearest the span's middle stands in.
    """
    column = 1 + KINDS.index(kind)
    near = [s[column] for s in samples if start - WINDOW_S <= s[0] < end + WINDOW_S]
    if not near:
        middle = (start + end) / 2
        near = [min(samples, key=lambda s: abs(s[0] - middle))[column]]
    return net_seconds(start, end, samples) * REFERENCE_S[kind] / statistics.fmean(near)
