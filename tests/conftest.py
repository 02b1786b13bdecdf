import os
import threading

import pytest

from touchfuse import workers


@pytest.fixture
def on_cpus(monkeypatch):
    """Run code split across forked workers wherever there are CPUs for it:
    every part is worth a fork (workers.PART_SECONDS is a picosecond), so
    only the usable CPUs, the BLAS threads and the range's length decide
    the part count. `on_cpus(cpus, fn, *args, blas_env=..., **kwargs)`
    returns (fn(*args, **kwargs), the forks it made) with `cpus` usable
    CPUs and the BLAS thread variables (name, value) in `blas_env` and no
    other. Each test must leave no child process and no open descriptor
    behind."""
    fds = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(workers, "PART_SECONDS", 1e-12)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def run(cpus, fn, *args, blas_env=(("OPENBLAS_NUM_THREADS", "1"),), **kwargs):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in blas_env:
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        forks.clear()
        caller = os.getpid()
        try:
            return fn(*args, **kwargs), len(forks)
        finally:
            if os.getpid() != caller:  # a worker that ran on into the test
                os._exit(99)

    yield run
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.fixture
def in_workers():
    """`in_workers(action, fn)` is fn, but calling action() first wherever it
    runs outside the test's own process."""
    parent = os.getpid()

    def wrap(action, fn):
        def wrapped(*args, **kwargs):
            if os.getpid() != parent:
                action()
            return fn(*args, **kwargs)
        return wrapped
    return wrap


@pytest.fixture
def other_thread():
    """A second Python thread, waiting until the test ends."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    yield
    release.set()
    other.join(timeout=10)
    assert not other.is_alive()
