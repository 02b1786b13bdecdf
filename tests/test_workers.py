"""The package's one fork protocol, on trivial functions: how `parts` cuts a
range, how many BLAS threads a part takes, and how `Split` forks its
workers, calls them, reports their failures and warnings and stops them."""

import os
import signal
import threading
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from touchfuse import workers
from touchfuse.workers import Split, blas_threads, parts


@settings(max_examples=500, deadline=None)
@given(n=st.integers(0, 2000), seconds=st.floats(0.0, 100.0), threads=st.integers(1, 8),
       cpus=st.integers(1, 64), can_fork=st.booleans(), other_threads=st.booleans())
@example(n=3, seconds=0.12, threads=1, cpus=2, can_fork=True, other_threads=False)
def test_parts(n, seconds, threads, cpus, can_fork, other_threads):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "_usable_cpus", lambda: cpus)
        mp.setattr(threading, "active_count", lambda: 1 + other_threads)
        if not can_fork:
            mp.delattr(os, "fork")
        bounds = parts(n, seconds, threads)
    count = len(bounds)
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert count == 1 or count <= min(cpus // threads, n)
    if count > 1:
        assert all(seconds * (e - s) >= workers.PART_SECONDS * n for s, e in bounds)
    if other_threads or not can_fork:
        assert count == 1
    elif count < min(cpus // threads, n):
        # One part more would leave its smallest part under PART_SECONDS.
        assert seconds * (n // (count + 1)) < workers.PART_SECONDS * n


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parts(6, 1.0) == [(0, 2), (2, 4), (4, 6)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parts(6, 1.0) == [(0, 6)]


@pytest.mark.parametrize("env, threads", [
    ((), 4),
    ((("OPENBLAS_NUM_THREADS", "2"),), 2),
    ((("GOTO_NUM_THREADS", "2"),), 2),
    ((("OMP_NUM_THREADS", "1"),), 1),
    ((("OPENBLAS_NUM_THREADS", "3"), ("OMP_NUM_THREADS", "1")), 3),
    ((("OPENBLAS_NUM_THREADS", ""), ("OMP_NUM_THREADS", "2")), 2),
    ((("OPENBLAS_NUM_THREADS", "0"), ("GOTO_NUM_THREADS", "two")), 4),
], ids=["unset", "openblas", "goto", "omp", "openblas-first", "empty-skipped", "invalid-skipped"])
def test_blas_threads(monkeypatch, env, threads):
    """Four usable CPUs, which a BLAS left at its default runs a thread on."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env:
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    assert blas_threads() == threads


def split_over(n, fn, *args):
    """fn over the parts of range(n), called twice in one Split block."""
    with Split(fn, parts(n, 1.0)) as split:
        return [split(*args) for _ in range(2)]


def span(s, e, *args):
    return s, e, os.getpid(), args


def interrupt():
    raise KeyboardInterrupt


def running(pid):
    """Whether pid is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                    reason="needs os.fork and /proc/self/fd")
class TestSplit:
    def test_parts_come_back_in_order_and_nothing_is_left_behind(self, on_cpus):
        fds = sorted(os.listdir("/proc/self/fd"))
        calls, forks = on_cpus(3, split_over, 7, span, "x")
        assert forks == 2 and calls[0] == calls[1]
        assert [part[:2] + part[3:] for part in calls[0]] == [
            (0, 2, ("x",)), (2, 4, ("x",)), (4, 7, ("x",))]
        pids = [part[2] for part in calls[0]]
        assert pids[-1] == os.getpid() and len(set(pids)) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_worker_exception_is_raised_in_the_caller(self, on_cpus):
        def fail_in_worker(s, e, parent):
            if os.getpid() != parent:
                raise ValueError(f"part {s}-{e} failed in the worker")
            return s

        with pytest.raises(ValueError, match="^part 0-1 failed in the worker$"):
            on_cpus(3, split_over, 3, fail_in_worker, os.getpid())

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), "3"),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
                                             (interrupt, "1")], ids=["exit", "kill", "interrupt"])
    def test_worker_ending_without_a_result_is_an_error(self, on_cpus, end, status):
        def dying(s, e, parent):
            if os.getpid() != parent:
                end()
            return s

        with pytest.raises(RuntimeError, match=f"^forked worker exited with status {status} "
                                               "without returning its result$"):
            on_cpus(2, split_over, 2, dying, os.getpid())

    def test_failure_in_the_callers_part_reaps_the_workers(self, on_cpus):
        def fail_in_caller(s, e, parent):
            if os.getpid() == parent:
                raise ValueError("the caller's part failed")
            return s

        with pytest.raises(ValueError, match="^the caller's part failed$"):
            on_cpus(3, split_over, 3, fail_in_caller, os.getpid())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_warnings_are_raised_again_at_their_file_and_line(self, on_cpus):
        def warn_in_worker(s, e, parent):
            if os.getpid() != parent:
                warnings.warn(f"part {s}-{e}", UserWarning)
            return s

        line = warn_in_worker.__code__.co_firstlineno + 2
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            on_cpus(3, split_over, 3, warn_in_worker, os.getpid())
        assert [(w.category, str(w.message), w.filename, w.lineno) for w in record] == 2 * [
            (UserWarning, "part 0-1", __file__, line), (UserWarning, "part 1-2", __file__, line)]

    def test_other_threads_keep_the_work_in_one_process(self, on_cpus, other_thread):
        calls, forks = on_cpus(3, split_over, 3, span)
        assert forks == 0 and calls[0] == [(0, 3, os.getpid(), ())]

    def test_each_worker_holds_only_its_own_pipe_ends(self, on_cpus):
        def open_fds(s, e):
            return len(os.listdir("/proc/self/fd"))

        before = len(os.listdir("/proc/self/fd"))
        calls, _ = on_cpus(3, split_over, 3, open_fds)
        # The caller holds two ends per worker, a worker its own two.
        assert calls[0] == [before + 2, before + 2, before + 4]

    def test_workers_end_when_their_parent_is_killed(self, on_cpus):
        pids_r, pids_w = os.pipe()
        parent = os.fork()
        if parent == 0:
            try:
                os.close(pids_r)
                with Split(span, [(0, 1), (1, 2), (2, 3)]) as split:
                    split()
                    # The workers hold pids_w too: the test reads one line.
                    os.write(pids_w, b" ".join(b"%d" % pid for pid, _, _ in split.workers) + b"\n")
                    time.sleep(60)
            finally:
                os._exit(0)
        os.close(pids_w)
        with open(pids_r, "rb") as pipe:
            pids = [int(pid) for pid in pipe.readline().split()]
        os.kill(parent, signal.SIGKILL)
        os.waitpid(parent, 0)
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in pids if running(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive
