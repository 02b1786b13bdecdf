"""Forked workers, the package's one fork protocol: `Split` computes a
function over contiguous parts of a range, the first part in the calling
process and each other in an `os.fork()`ed worker. A worker inherits the
caller's memory copy-on-write, answers calls over its own two pipes
(pickled arguments down, pickled (ok, result or exception) back) and
closes every pipe end that is not its own. It serves until its parent
kills it at the end of the block, or until its request pipe ends because
the parent died, and leaves on its own only through os._exit."""

import os
import pickle
import signal
import threading
from contextlib import suppress


def parts(n, work, floor):
    """Contiguous (start, end) parts of range(n): one per usable CPU, no
    more than carry `floor` of `work` each or than n. The usable CPUs are
    those in os.sched_getaffinity(0), or os.cpu_count() where there is no
    affinity call (macOS); there is one part where the process cannot fork
    or has other threads, whose locks a child would inherit."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    count = max(1, min(cpus, work // floor, n))
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
                try:
                    reply = (True, fn(*args))
                except Exception as exc:
                    reply = (False, exc)
                _send(replies_fd, reply)
        status = 0
    finally:
        os._exit(status)


class Split:
    """A context manager that forks one worker per part but the first on
    entry, and stops and reaps them all on exit, however the block ends.
    Calling it with *args returns fn(start, end, *args) of every part, in
    part order; a worker's exception is raised here, and a worker that ends
    without a result raises a RuntimeError naming its exit status."""

    def __init__(self, fn, bounds):
        self.fn, self.bounds = fn, bounds
        self.workers = []  # [pid or None once reaped, request fd, reply file]

    def __enter__(self):
        try:
            for _ in self.bounds[1:]:
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
        for (_, request_w, _), part in zip(self.workers, self.bounds[1:]):
            with suppress(BrokenPipeError):  # a dead worker is named below
                _send(request_w, part + args)
        results = [self.fn(*self.bounds[0], *args)]
        for worker in self.workers:
            try:
                ok, value = pickle.load(worker[2])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
                worker[0] = None
                raise RuntimeError(f"forked worker exited with status {code} "
                                   "without returning its result") from None
            if not ok:
                raise value
            results.append(value)
        return results

    def __exit__(self, *exc_info):
        for pid, request_w, replies in self.workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(request_w)
            replies.close()
        self.workers = []
