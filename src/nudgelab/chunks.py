"""Member chunks: the members of one lockstep run stepped in forked
processes, one per CPU.

integrate.simulate_members hands a run to forked when its size rule
(integrate._chunks) asks for more than one process, and imports this
module only then.  Members are independent given the reference, so each
chunk steps its members and its own copy of the reference through the
one-process loop, integrate._lockstep, and the chunks' results join in
member order with the bits of the one-process run.  A child is made by
os.fork, not multiprocessing: it inherits the run's arguments, so
nothing but its result crosses a process boundary, and nothing is
imported for it.
"""

import ctypes
import os
import pickle
from dataclasses import replace

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


def forked(chunks, spec, cfg, groups, u0, v0, rngs, record):
    """simulate_members' (reference, results) with the members split into
    chunks contiguous parts, the first stepped by this process and each
    other by a forked child.

    A child pins itself to a CPU other than this process's, steps its
    members and the reference through integrate._lockstep, the loop of
    the one-process run, and writes its pickled result, or the exception
    it raised, to a pipe; this process reads each in chunk order after
    stepping its own, reaps the child, and raises the first exception.
    Whatever ends this function, an interrupt included, kills and reaps
    every child not yet reaped.
    """
    cuts = [len(rngs) * c // chunks for c in range(chunks + 1)]
    others = sorted(os.sched_getaffinity(0) - {_current_cpu()}) or [None]
    live = {}   # pid -> read end of its pipe, for each child not yet reaped
    try:
        for c in range(1, chunks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _child(write, others[(c - 1) % len(others)],
                       integrate._lockstep, spec, cfg, groups, u0, v0,
                       rngs[cuts[c]:cuts[c + 1]], record)
            os.close(write)
            live[pid] = read
        parts = [integrate._lockstep(spec, cfg, groups, u0, v0,
                                     rngs[:cuts[1]], record)]
        for pid in list(live):
            with os.fdopen(live[pid], "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(live.pop(pid))
            if not data:
                raise ChildProcessError("member chunk process %d exited with "
                                        "code %d and no result" % (pid, code))
            ok, out = pickle.loads(data)
            if not ok:
                raise out
            parts.append(out)
    finally:
        if live:
            from signal import SIGKILL
            for pid, read in live.items():
                os.close(read)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return _join(parts, cfg.nsteps)


def _child(write, cpu, run, *args):
    """The body of a forked member-chunk process: pin to cpu (None: stay
    unpinned), write (True, run(*args)), or (False, the exception it
    raised), pickled, to the pipe's write end, and leave by os._exit, so
    nothing of the caller's runs on in this process."""
    status = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            out = True, run(*args)
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
