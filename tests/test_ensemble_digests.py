"""Ensemble outputs pinned to bytes over a matrix of small runs.

Every model at its smallest grid, all three noise kinds, modal and volume
observation, implicit nudging on and off, and the observation-path
bookkeeping of member 0, and four longer runs of nse_strong and mhd at
n = 16 that see a one-ulp change of their nonlinearity.
tests/data/ensemble_digests.json holds the sha256 of each output array
as written by the release that stepped members one after another (the
long runs by the one that took the 2D nonlinearities in rotational
form); any change to how members are stepped must reproduce them bit
for bit.  The file is an oracle, not a snapshot of the current code:
if the numbers are ever meant to change, write it anew at the commit
whose numbers are to be pinned, and say so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nudgelab
from nudgelab.config import build_setup, parse_config
from nudgelab.harness import run_ensemble
from nudgelab.integrate import SERIES, Record

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "ensemble_digests.json")

# smallest model.n each family allows (config: n >= 2; torus: even, >= 4)
SMALLEST_N = {"ac_weak": 2, "ac_strong": 2, "nse_weak": 4, "nse_strong": 4,
              "qg": 4, "mhd": 4}
KINDS = ("additive", "state_scaled", "pointwise_multiplicative")
# (observation.kind, nudging.implicit); implicit nudging is modal only
OBSERVATIONS = (("modal", False), ("modal", True), ("volume", False))
# larger grids: batched BLAS calls could round differently there, and at
# n = 4 the dealiased pointwise noise of the vector models vanishes
EXTRA = (("ac_weak", 32, "additive", "volume", False),
         ("ac_strong", 32, "state_scaled", "volume", False),
         ("nse_weak", 8, "pointwise_multiplicative", "modal", False),
         ("nse_strong", 8, "state_scaled", "volume", False),
         ("qg", 8, "pointwise_multiplicative", "volume", False),
         ("mhd", 8, "pointwise_multiplicative", "volume", False),
         ("mhd", 8, "additive", "modal", True))
# n = 16 over 40 steps: five steps of dt 1e-3 round a one-ulp change of
# the nonlinearity away (dt F sits far under half an ulp of the state),
# so these are the cases that pin the bits of the torus kernels
LONG = tuple((mid, 16, "additive", obs, False) for mid in ("nse_strong", "mhd")
             for obs in ("modal", "volume"))
LONG_T = 4e-2
# The file also pins a retired kind, attractor_vanishing, whose anchor no
# config could set: it ran as sigma ||u - 0||_H dW, the state_scaled
# coefficient, and its digests equal those of its state_scaled twins
# (test_retired_kind_entries_equal_state_scaled_twins).  The one entry
# without a twin is read under its pinned key.
PINNED_AS = {("nse_strong", 8, "state_scaled", "volume", False):
             "nse_strong-n8-attractor_vanishing-volume"}
RETIRED = "-attractor_vanishing-"
MEMBERS = 3
OUTPUTS = ("member_w_h", "mean_w2_h", "mean_w2_vstar", "se_w2_h", "mean_hs")
FIRST = ("w_vstar", "u_h", "v_h", "hs", "kappa", "dy_h", "y_h")


def _matrix():
    cases = [(mid, SMALLEST_N[mid], kind, obs, implicit)
             for mid in SMALLEST_N for kind in KINDS
             for obs, implicit in OBSERVATIONS]
    return cases + list(EXTRA)


def _horizon(case):
    return LONG_T if case in LONG else 5e-3


def _case_id(mid, n, kind, obs, implicit):
    case = (mid, n, kind, obs, implicit)
    return "%s-n%d-%s-%s%s%s" % (mid, n, kind, obs, "-implicit" if implicit else "",
                                 "-T%g" % LONG_T if case in LONG else "")


def _run(mid, n, kind, obs, implicit):
    values = parse_config(
        "model.id = %s\nmodel.n = %d\nobservation.kind = %s\n"
        "noise.kind = %s\nnoise.sigma = 0.1\nnudging.mu = 20\n"
        "nudging.implicit = %s\ntime.dt = 1e-3\ntime.T = %r\n"
        % (mid, n, obs, kind, "true" if implicit else "false",
           _horizon((mid, n, kind, obs, implicit))))
    # the observation path of member 0 is pinned for two of the kinds
    with_y = kind in ("additive", "pointwise_multiplicative")
    record = Record(SERIES) if with_y else Record()
    return run_ensemble(build_setup(values), MEMBERS, 17, record)


def _pinned():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _sha(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _digests(case):
    ens = _run(*case)
    out = {name: _sha(getattr(ens, name)) for name in OUTPUTS}
    for name in FIRST:
        series = getattr(ens.first, name)
        if series is not None:
            out["first." + name] = _sha(series)
    return out


@pytest.mark.parametrize("case", _matrix() + list(LONG), ids=lambda c: _case_id(*c))
def test_ensemble_reproduces_pinned_digests(case):
    want = _pinned()[PINNED_AS.get(case, _case_id(*case))]
    assert _digests(case) == want


@pytest.mark.parametrize("key", sorted(
    k for k in _pinned() if RETIRED in k
    and k.replace(RETIRED, "-state_scaled-") in _pinned()))
def test_retired_kind_entries_equal_state_scaled_twins(key):
    pinned = _pinned()
    assert pinned[key] == pinned[key.replace(RETIRED, "-state_scaled-")]


def test_every_retired_entry_is_twinned_or_run():
    pinned = _pinned()
    untwinned = {k for k in pinned if RETIRED in k
                 and k.replace(RETIRED, "-state_scaled-") not in pinned}
    assert untwinned == set(PINNED_AS.values())


def test_pinned_mean_hs_is_the_first_members_hs():
    # G reads the reference alone, so every member's hs is the group's,
    # and the ensemble column is that series itself
    pinned = _pinned()
    assert [k for k in pinned if pinned[k]["mean_hs"] != pinned[k]["first.hs"]] == []


# Run in fresh interpreters: the digests of every volume case of the
# matrix, under numpy's and OpenBLAS's choice of kernels for the host
HOST_PROBE = """
import json
from test_ensemble_digests import _digests, _matrix
print(json.dumps([_digests(c) for c in _matrix() if c[3] == "volume"]))
"""


def test_volume_digests_do_not_depend_on_blas_kernel_or_simd_dispatch():
    # the OpenBLAS kernels of two older x86-64 cores, which any host with
    # AVX2 runs, and numpy with its AVX-512 loops off; numpy ignores
    # feature names the host lacks, so this runs anywhere
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
    out = [subprocess.run([sys.executable, "-c", HOST_PROBE], env=dict(env, **host),
                          capture_output=True, text=True, check=True).stdout
           for host in ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                        {"OPENBLAS_CORETYPE": "Sandybridge"},
                        {"NPY_DISABLE_CPU_FEATURES":
                         "X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX"})]
    assert len(json.loads(out[0])) == 23
    assert out[1:] == out[:1] * 3
