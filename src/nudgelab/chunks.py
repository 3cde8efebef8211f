"""Forked parts: one piece of work split into parts, the first run by this
process and each other by a forked child, one per CPU (in_processes).

Two loops fork through it:
- member chunks (forked): integrate.simulate_members hands a run to
  forked when its size rule (integrate._chunks) asks for more than one
  process, and imports this module only then.  Members are independent
  given the reference, so each chunk steps its members and its own copy
  of the reference through the one-process loop, integrate._lockstep,
  and the chunks' results join in member order with the bits of the
  one-process run;
- the Monte Carlo paths of harness.convolution_variance_mc, one
  contiguous run of its path tasks per process.
A child is made by os.fork, not multiprocessing: it inherits its part's
arguments, so nothing but its result crosses a process boundary, and
nothing is imported for it.
"""

import ctypes
import os
import pickle
from dataclasses import replace
from functools import partial

import numpy as np

from . import integrate


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


def contiguous(items, parts):
    """items cut into parts contiguous slices of near-equal length."""
    cuts = [len(items) * c // parts for c in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def in_processes(parts):
    """[part() for part in parts], each part a function of no arguments:
    the first called by this process, each other by a forked child.

    A child pins itself to a CPU other than this process's, calls its
    part and writes its pickled result, or the exception it raised, to a
    pipe; this process reads each in part order after calling its own,
    reaps the child, and raises the first exception.  Whatever ends this
    function, an interrupt included, kills and reaps every child not yet
    reaped.  A single part forks nothing.
    """
    if len(parts) > 1:
        others = sorted(os.sched_getaffinity(0) - {_current_cpu()}) or [None]
    live = {}   # pid -> read end of its pipe, for each child not yet reaped
    try:
        for c, part in enumerate(parts[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _child(write, others[c % len(others)], part)
            os.close(write)
            live[pid] = read
        results = [parts[0]()]
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


def _child(write, cpu, part):
    """The body of a forked process: pin to cpu (None: stay unpinned),
    write (True, part()), or (False, the exception it raised), pickled,
    to the pipe's write end, and leave by os._exit, so nothing of the
    caller's runs on in this process."""
    status = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            out = True, part()
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


def forked(chunks, spec, cfg, groups, u0, v0, rngs, record):
    """simulate_members' (reference, results) with the members split into
    chunks contiguous parts, each stepped with the reference through
    integrate._lockstep, the loop of the one-process run, by
    in_processes.  A sine model's transform module (scipy.fft) is loaded
    before the fork, so the children share its pages instead of each
    importing it at its first transform."""
    if spec.kind == "sine":
        import scipy.fft  # noqa: F401
    return _join(in_processes([
        partial(integrate._lockstep, spec, cfg, groups, u0, v0, part, record)
        for part in contiguous(rngs, chunks)]), cfg.nsteps)


def _join(parts, n):
    """One run's (reference, results) from its member chunks' (reference,
    results), in member order.

    Per-member fields and errors are concatenated.  The reference and
    the shared series (u_final, u_h, kappa, u_path and the group's hs)
    come from the chunk that stepped longest: a chunk stops when its
    last estimate ends, and the one-process run when the last of all
    does, while a reference blow-up stops every chunk still running at
    the same step."""
    def reach(part):
        # the step a chunk stopped at, n + 1 if it ran to the end
        return max(n + 1 if e is None else e.step
                   for cells in part[1] for cell in cells for e in cell.errors)

    reference, shared = max(parts, key=reach)
    results = [[replace(cell, chunks=len(parts), errors=[
        e for part in parts for e in part[1][g][k].errors], **{
        f: np.concatenate([getattr(part[1][g][k], f) for part in parts])
        for f in integrate._PER_MEMBER if getattr(cell, f) is not None})
        for k, cell in enumerate(cells)] for g, cells in enumerate(shared)]
    return reference, results
