"""Forked parts: a list of work items cut into contiguous parts, the first
run by this process and each other by a forked child, one per CPU
(in_processes).

Two loops fork through it, each deciding its own process count
(integrate._processes) and what its parts' results mean:
- the member chunks of integrate.simulate_members, which joins them in
  member order with the bits of the one-process run;
- the Monte Carlo path tasks of harness.convolution_variance_mc, which
  adds their moment sums in task order.
A child is made by os.fork, not multiprocessing: it inherits its part's
arguments, so nothing but its result crosses a process boundary, and
nothing is imported for it.  This module imports nothing of the package.
"""

import ctypes
import os
import pickle


def _current_cpu():
    """The CPU this thread runs on (the C library's sched_getcpu), or
    None where the library has no such call."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def in_processes(fn, items, parts):
    """[fn(part) for part in items cut into parts contiguous slices of
    near-equal length], in order: the first called by this process, each
    other by a forked child.  parts is at least 1 and at most len(items).

    A child pins itself to a CPU other than this process's, calls fn on
    its slice and writes its pickled result, or the exception it raised,
    to a pipe; this process reads each in part order after calling its
    own, reaps the child, and raises the first exception.  Whatever ends
    this function, an interrupt included, kills and reaps every child not
    yet reaped.  A single part forks nothing.
    """
    cuts = [len(items) * c // parts for c in range(parts + 1)]
    slices = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    if parts > 1:
        others = sorted(os.sched_getaffinity(0) - {_current_cpu()}) or [None]
    live = {}   # pid -> read end of its pipe, for each child not yet reaped
    try:
        for c, part in enumerate(slices[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _child(write, others[c % len(others)], fn, part)
            os.close(write)
            live[pid] = read
        results = [fn(slices[0])]
        for pid in list(live):
            with os.fdopen(live[pid], "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(live.pop(pid))
            if not data:
                raise ChildProcessError("forked process %d exited with code "
                                        "%d and no result" % (pid, code))
            ok, out = pickle.loads(data)
            if not ok:
                raise out
            results.append(out)
    finally:
        if live:
            from signal import SIGKILL
            for pid, read in live.items():
                os.close(read)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return results


def _child(write, cpu, fn, part):
    """The body of a forked process: pin to cpu (None: stay unpinned),
    write (True, fn(part)), or (False, the exception it raised), pickled,
    to the pipe's write end, and leave by os._exit, so nothing of the
    caller's runs on in this process."""
    status = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            out = True, fn(part)
        except BaseException as e:   # an interrupt too: the parent raises it
            out = False, _portable(e)
        with os.fdopen(write, "wb") as fh:
            pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _portable(error):
    """error if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
        return error
    except Exception:
        return RuntimeError("%s: %s" % (type(error).__name__, error))
