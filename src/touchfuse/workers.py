"""Forked workers, the package's one fork rule and protocol: `parts` cuts a
range into parts worth a process each, the last of them a largest, and
`Split` computes a function over them, the last part in the calling process
and each other in an `os.fork()`ed worker, so that no worker's part is
larger than the caller's own. A worker inherits the caller's memory
copy-on-write, answers calls over its own two pipes (pickled arguments
down, pickled (ok, result or exception, warnings) back) and closes every
pipe end that is not its own. It serves until its parent kills it at the
end of the block, or until its request pipe ends because the parent died,
and leaves on its own only through os._exit."""

import os
import pickle
import signal
import threading
import warnings
from contextlib import suppress

# Fewest seconds of work a part runs in its own process for: forking a worker,
# one call to it and stopping it cost 4-5 ms with 150 MB resident (one core
# of a 2-CPU x86 VM), and a part carries ten times that.
PART_SECONDS = 0.05


def _usable_cpus():
    """The CPUs in os.sched_getaffinity(0), or os.cpu_count() where there is
    no affinity call (macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads():
    """The threads one BLAS call runs on, by the rule of OpenBLAS, the BLAS
    numpy's and scipy's wheels ship: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive integer in ASCII
    digits, else one per usable CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isascii() and value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def parts(n, seconds, threads=1):
    """Contiguous (start, end) parts of range(n), whose work takes an estimated
    `seconds` in one process: one per `threads` usable CPUs (the CPUs a part
    keeps busy), but no more than n or than leave each part PART_SECONDS of
    it; one where the process cannot fork or has other threads, whose locks
    a child would inherit. The last part holds ceil(n / count) units, as
    many as any other part or one more."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, n)]
    count = max(1, min(_usable_cpus() // threads, n))
    # The smallest of `count` parts holds n // count of the n units.
    while count > 1 and seconds * (n // count) < PART_SECONDS * n:
        count -= 1
    return [(k * n // count, (k + 1) * n // count) for k in range(count)]


def _send(fd, obj):
    data = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(fd, data):]


def _serve(fn, requests_fd, replies_fd, foreign_fds):
    status = 1
    try:
        for fd in foreign_fds:
            os.close(fd)
        with open(requests_fd, "rb") as requests:
            while requests.peek(1):
                args = pickle.load(requests)
                # Every warning is recorded here; the caller's filters judge
                # it when Split raises it again there.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        reply = (True, fn(*args))
                    except Exception as exc:
                        reply = (False, exc)
                _send(replies_fd, reply + ([(w.message, w.category, w.filename, w.lineno)
                                            for w in caught],))
        status = 0
    finally:
        os._exit(status)


class Split:
    """A context manager that forks one worker per part but the last on
    entry, and stops and reaps them all on exit, however the block ends.
    Calling it with *args computes fn(start, end, *args) of the last part
    here, then returns that of every part, in part order; a worker's
    warnings are raised again here, from the file and line that raised
    them, then its exception, if any; a worker that ends without a result
    raises a RuntimeError naming its exit status."""

    def __init__(self, fn, bounds):
        self.fn, self.bounds = fn, bounds
        self.workers = []  # [pid or None once reaped, request fd, reply file]

    def __enter__(self):
        try:
            for _ in self.bounds[:-1]:
                request_r, request_w = os.pipe()
                reply_r, reply_w = os.pipe()
                self.workers.append([None, request_w, open(reply_r, "rb")])
                foreign = [fd for _, w, r in self.workers for fd in (w, r.fileno())]
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(self.fn, request_r, reply_w, foreign)
                    self.workers[-1][0] = pid
                finally:
                    os.close(request_r)
                    os.close(reply_w)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __call__(self, *args):
        for (_, request_w, _), part in zip(self.workers, self.bounds):
            with suppress(BrokenPipeError):  # a dead worker is named below
                _send(request_w, part + args)
        own = self.fn(*self.bounds[-1], *args)
        results = []
        for worker in self.workers:
            try:
                ok, value, caught = pickle.load(worker[2])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
                worker[0] = None
                raise RuntimeError(f"forked worker exited with status {code} "
                                   "without returning its result") from None
            for warning in caught:
                warnings.warn_explicit(*warning)
            if not ok:
                raise value
            results.append(value)
        return results + [own]

    def __exit__(self, *exc_info):
        for pid, request_w, replies in self.workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(request_w)
            replies.close()
        self.workers = []
