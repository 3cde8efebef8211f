"""Config parsing, the canonical renderer, and the command line."""

import hashlib
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nudgelab.cli as cli
import nudgelab.harness as H
import nudgelab.integrate as I
from nudgelab.config import (SCHEMA, ConfigError, build_observation,
                             build_setup, output_directory, parse_config,
                             render_config)
from nudgelab.fields import norm_raw
from nudgelab.models import build_model
from nudgelab.observe import eta0

MINIMAL = "model.id = ac_weak\n"

SMALL_RUN = """\
model.id = ac_weak
model.n = 16
observation.delta = 0.39
noise.kind = additive
noise.sigma = 0.05
nudging.mu = 20.0
time.dt = 2e-3
time.T = 0.2
ensemble.members = 2
ensemble.seed = 3
output.stride = 10
"""


# ----------------------------------------------------------------- parsing

def test_parse_fills_defaults():
    v = parse_config(MINIMAL)
    assert v["model.id"] == "ac_weak"
    assert v["model.n"] == 64
    assert v["model.nu"] == 1.0
    assert v["observation.kind"] == "modal"
    assert v["noise.kind"] == "additive"
    assert v["noise.sigma"] == 0.0
    assert v["time.dt"] == 1e-3
    assert v["ensemble.members"] == 1
    assert v["output.stride"] == 10


def test_parse_comments_and_blanks():
    text = "# a run\n\nmodel.id = ac_weak  # inline note\n\n"
    assert parse_config(text)["model.id"] == "ac_weak"


def test_parse_collects_every_error():
    text = ("bogus.key = 1\n"
            "model.n = sixteen\n"
            "time.dt = -1\n"
            "noise.kind = loud\n"
            "model.linear = yes\n"
            "model.nu = 1\nmodel.nu = 2\n"
            "not a line\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    for frag in ("bogus.key", "model.n", "time.dt", "noise.kind",
                 "model.linear", "duplicate", "expected key = value",
                 "model.id"):
        assert frag in msg, frag
    # seven line faults plus the missing required key
    assert len(err.value.errors) == 8


def test_parse_bad_value_not_double_counted():
    with pytest.raises(ConfigError) as err:
        parse_config("model.id = nosuch\n")
    assert len(err.value.errors) == 1
    assert "model.id" in err.value.errors[0]


def test_retired_workers_key_changes_nothing():
    with_key = parse_config(SMALL_RUN + "ensemble.workers = 4\n")
    assert with_key == parse_config(SMALL_RUN)
    assert "ensemble.workers" not in render_config(with_key)


@pytest.mark.parametrize("raw", ["0", "x"])
def test_retired_workers_key_still_validated(raw):
    with pytest.raises(ConfigError) as err:
        parse_config(SMALL_RUN + "ensemble.workers = %s\n" % raw)
    assert len(err.value.errors) == 1
    assert "ensemble.workers" in err.value.errors[0]


def test_render_round_trip():
    v = parse_config(SMALL_RUN)
    assert parse_config(render_config(v)) == v


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-6, 1.0), T=st.floats(1e-3, 100.0),
       sigma=st.floats(0.0, 10.0), mu=st.floats(0.0, 1e4))
def test_render_round_trip_floats(dt, T, sigma, mu):
    v = parse_config(MINIMAL)
    v.update({"time.dt": dt, "time.T": T, "noise.sigma": sigma,
              "nudging.mu": mu})
    assert parse_config(render_config(v)) == v


def test_output_directory_precedence(monkeypatch):
    v = parse_config(MINIMAL)
    monkeypatch.delenv("NUDGELAB_OUT_DIR", raising=False)
    assert output_directory(v) == "runs"
    monkeypatch.setenv("NUDGELAB_OUT_DIR", "/tmp/env-runs")
    assert output_directory(v) == "/tmp/env-runs"
    v["output.directory"] = "chosen"
    assert output_directory(v) == "chosen"


def test_build_setup_objects():
    v = parse_config(SMALL_RUN)
    setup = build_setup(v)
    assert setup.model.params["family"] == "ac_weak"
    assert setup.model.n == 16
    assert setup.op.kind == "modal"
    assert setup.coef.kind == "additive" and setup.coef.sigma == 0.05
    assert setup.cfg.dt == 2e-3 and setup.cfg.mu == 20.0
    # v0 sits at distance w0 from u0 in H
    w = setup.v0 - setup.u0
    assert abs(norm_raw(setup.model, w, "H") - v["init.w0"]) < 1e-12


def test_equal_arguments_share_one_model():
    # a callback wrapped on one build (a tracer, say) is seen by every
    # later build_model and build_setup with the same model keys
    assert build_model("qg", 8) is build_model("qg", 8, nu=1.0)
    assert build_model("qg", 8) is not build_model("qg", 8, linear=True)
    v = parse_config(SMALL_RUN)
    assert build_setup(v).model is build_setup(dict(v)).model


@pytest.mark.parametrize("obs, kind, p", [
    ("modal", "additive", 0.0), ("volume", "additive", 0.5),
    ("volume", "pointwise_multiplicative", 0.0)])
def test_build_observation_is_build_setups_own(obs, kind, p):
    # a sweep builds each delta's (op, coef, q) as build_setup builds them
    # at that delta
    v = parse_config(SMALL_RUN.replace("noise.kind = additive",
                                       "noise.kind = " + kind)
                     + "observation.kind = %s\nnoise.p = %s\n" % (obs, p))
    model = build_setup(v).model
    for d in (0.2, 0.39, 0.9):
        s = build_setup({**v, "observation.delta": d})
        got = build_observation(v, model, d)
        assert got[0].delta == d and got[1].sigma_delta == 0.05 * d ** p
        assert [pickle.dumps(x) for x in got] == \
            [pickle.dumps(x) for x in (s.op, s.coef, s.q)]


def test_build_setup_zero_initial_error():
    v = parse_config(MINIMAL + "init.w0 = 0.0\n")
    setup = build_setup(v)
    assert np.array_equal(setup.u0, setup.v0)


# --------------------------------------------------------------------- cli

def _run(tmp_path, name, text, *argv):
    cfg = tmp_path / name
    cfg.write_text(text)
    return cli.main(list(argv[:1]) + ["--config", str(cfg)] + list(argv[1:]))


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN,
              "simulate", "--out-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["files"] == ["ensemble.csv", "series.csv"]
    assert sorted(os.listdir(out)) == sorted(doc["files"] + ["manifest.json"])
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,w_H,w_Vstar,u_H,v_H,hs_norm_sq,kappa"
    # 100 steps, stride 10, plus the forced final row
    assert len(series) == 1 + 11
    ens = (out / "ensemble.csv").read_text().splitlines()
    assert ens[0].startswith("t,mean_w2_H,se_w2_H")
    assert doc["tool"] == "nudgelab" and doc["command"] == "simulate"
    assert doc["members"] == 2 and doc["blowups"] == 0
    assert doc["eta0_hat"] > 0.0
    assert "ensemble.members = 2" in doc["config_text"]


PHASES = ["constants_s", "integrate_s", "output_s", "setup_s"]


def _assert_timing(out, member_steps, phases=PHASES):
    doc = json.loads((out / "manifest.json").read_text())
    assert sorted(doc["timing"]) == phases
    assert all(v >= 0.0 for v in doc["timing"].values())
    assert doc["member_steps"] == member_steps
    for block in ("minor_faults", "child_minor_faults"):
        assert doc[block].keys() == doc["timing"].keys()
        assert all(type(v) is int and v >= 0 for v in doc[block].values())
    assert doc["child_peak_rss_mb"] >= 0.0


def test_simulate_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", "--out-dir", str(out1))
    _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", "--out-dir", str(out2))
    for name in ("series.csv", "ensemble.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for out in (out1, out2):
        _assert_timing(out, 2 * 100)


def test_sweep_rerun_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = _run(tmp_path, "run.cfg", SMALL_RUN, "sweep", "--mu-grid",
                  "10,400", "--out-dir", str(out))
        assert rc == 0
        _assert_timing(out, 2 * 2 * 100)
    assert (outs[0] / "sweep.csv").read_bytes() == \
        (outs[1] / "sweep.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="member chunks fork, on Linux only")
@pytest.mark.parametrize("argv,outputs", [
    (["simulate"], ["series.csv", "ensemble.csv"]),
    (["sweep", "--mu-grid", "10,400"], ["sweep.csv"])],
    ids=["simulate", "sweep"])
def test_member_chunks_write_the_same_bytes(tmp_path, monkeypatch, argv,
                                            outputs):
    # with the size rule set low the members step in one process per CPU:
    # the outputs keep their bytes, and the manifest counts the processes
    # and its children's faults and peak resident set
    one, split = tmp_path / "one", tmp_path / "split"
    assert _run(tmp_path, "run.cfg", SMALL_RUN, *argv, "--out-dir", str(one)) == 0
    monkeypatch.setattr(I, "_CHUNK_WORK", 1)
    monkeypatch.setattr(I, "_CHUNK_ROWS", 1)
    assert _run(tmp_path, "run.cfg", SMALL_RUN, *argv, "--out-dir",
                str(split)) == 0
    for name in outputs:
        assert (one / name).read_bytes() == (split / name).read_bytes(), name
    docs = [json.loads((out / "manifest.json").read_text()) for out in (one, split)]
    assert docs[0]["chunks"] == 1
    assert docs[1]["chunks"] == min(len(os.sched_getaffinity(0)), 2)
    if docs[1]["chunks"] > 1:
        assert docs[1]["child_minor_faults"]["integrate_s"] > 0
        assert docs[1]["child_peak_rss_mb"] > 0.0


def test_simulate_manifest_reusable_as_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", "--out-dir", str(out1))
    rc = cli.main(["simulate", "--config", str(out1 / "manifest.json"),
                   "--out-dir", str(out2)])
    assert rc == 0
    assert (out1 / "series.csv").read_bytes() == \
        (out2 / "series.csv").read_bytes()


def test_simulate_overrides(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "simulate",
              "--members", "1", "--seed", "99", "--out-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["members"] == 1 and doc["master_seed"] == 99
    assert not (out / "ensemble.csv").exists()


def test_simulate_manifest_lists_the_files_it_wrote(tmp_path):
    # a one-member run into the directory of a two-member run leaves the
    # earlier ensemble.csv there; the manifest names only series.csv
    out = tmp_path / "out"
    for argv, files in [((), ["ensemble.csv", "series.csv"]),
                        (("--members", "1"), ["series.csv"])]:
        rc = _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", *argv,
                  "--out-dir", str(out))
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["files"] == files
    assert doc["members"] == 1 and (out / "ensemble.csv").exists()


def test_out_dir_with_a_comma_is_one_path(tmp_path):
    out = tmp_path / "a,b"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "simulate",
              "--out-dir", str(out))
    assert rc == 0
    assert (out / "series.csv").exists()


def test_simulate_emit_y_columns(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN + "output.emit_y = true\n",
              "simulate", "--out-dir", str(out))
    assert rc == 0
    head = (out / "series.csv").read_text().splitlines()[0]
    assert head.endswith(",dy_H,y_H")


# manifest.json and CSV digests written by the release that still carried
# ensemble.workers (here set to 4) and model.norms in config_text
OLD_MANIFEST = os.path.join(os.path.dirname(__file__), "data",
                            "manifest_workers4.json")
OLD_DIGESTS = {
    "series.csv":
        "ca21ffa737520b4442ffe651db28ca99a4f52f690abc48898438fee215682e84",
    "ensemble.csv":
        "61b7e64945aa859c343d0b6e11fb3c07ce6aa96584040f3f63a49aed66b0aa37",
}


def test_old_manifest_with_workers_replays_byte_identical(tmp_path):
    src = tmp_path / "manifest.json"
    shutil.copy(OLD_MANIFEST, src)
    text = json.loads(src.read_text())["config_text"]
    assert "ensemble.workers = 4" in text and "model.norms = homogeneous" in text
    assert "noise.spectrum_exponent = auto" in text and "noise.k_q = auto" in text
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(src), "--out-dir", str(out)])
    assert rc == 0
    for name, digest in OLD_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    doc = json.loads((out / "manifest.json").read_text())
    assert "ensemble.workers" not in doc["config_text"]
    assert "model.norms" not in doc["config_text"]
    assert "noise.spectrum_exponent" not in doc["config_text"]
    assert "noise.k_q" not in doc["config_text"]


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify",
                                     "convolution-check"])
@pytest.mark.parametrize("model_id", ["ac_weak", "qg"])
def test_retired_norms_key_accepts_only_the_one_norm(tmp_path, capsys,
                                                     command, model_id):
    # each model has one V norm, which the retired key may name (the old
    # manifest above replays with it); any other norm is refused at parse
    # time, before any output exists
    out = tmp_path / "out"
    text = "model.id = %s\nmodel.norms = sobolev\n" % model_id
    rc = _run(tmp_path, "bad.cfg", text, command, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and "model.norms" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify",
                                     "convolution-check"])
@pytest.mark.parametrize("line", ["noise.spectrum_exponent = 2.5",
                                  "noise.k_q = 3"])
def test_retired_noise_keys_accept_only_auto(tmp_path, capsys, command, line):
    # the spectrum's exponent follows the model's dimension and its rank
    # the observation scale; the retired keys may only name that default
    # (the old manifest above replays with them), a number is refused at
    # parse time, before any output exists
    key = line.split()[0]
    out = tmp_path / "out"
    rc = _run(tmp_path, "bad.cfg", "model.id = ac_weak\n" + line + "\n",
              command, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and key in err
    assert not out.exists()


def test_partial_step_horizon_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    text = SMALL_RUN.replace("time.T = 0.2\n", "time.T = 0.2001\n")
    rc = _run(tmp_path, "run.cfg", text, "simulate", "--out-dir", str(out))
    assert rc == 1
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


# n = 8 at the default delta 0.39 gives K(delta) = 8: every mode observed
FULL_BAND = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
             "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.1\n")


@pytest.mark.parametrize("argv", [("simulate",), ("sweep",), ("verify",),
                                  ("sweep", "--delta-grid", "0.9,0.39")],
                         ids=["simulate", "sweep", "verify",
                              "sweep-refused-second-delta"])
def test_fully_observed_band_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = _run(tmp_path, "full.cfg", FULL_BAND, *argv, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert "model.n = 8" in err and "K(delta) = 8" in err
    assert not out.exists()


def test_fully_observed_band_convolution_check_runs(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "full.cfg", FULL_BAND, "convolution-check",
              "--paths", "50", "--out-dir", str(out))
    assert rc == 0
    assert (out / "convolution.csv").exists()


def test_fully_observed_band_sweep_over_coarser_deltas_runs(tmp_path):
    # at delta 0.9 and 1.0 a mode of the band is left unobserved
    out = tmp_path / "out"
    rc = _run(tmp_path, "full.cfg", FULL_BAND, "sweep", "--delta-grid",
              "0.9,1.0", "--out-dir", str(out))
    assert rc == 0
    assert (out / "sweep.csv").exists()


def _pointwise(model_id, n):
    return ("model.id = %s\nmodel.n = %d\nobservation.kind = volume\n"
            "noise.kind = pointwise_multiplicative\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.02\n"
            % (model_id, n))


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
@pytest.mark.parametrize("model_id,n", [("nse_weak", 4), ("nse_strong", 6),
                                        ("mhd", 4)])
def test_vanishing_pointwise_noise_exits_1(tmp_path, capsys, command,
                                           model_id, n):
    out = tmp_path / "out"
    rc = _run(tmp_path, "pw.cfg", _pointwise(model_id, n), command,
              "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert "model.n = %d" % n in err and model_id in err
    assert not out.exists()


@pytest.mark.parametrize("model_id,n", [("nse_weak", 8), ("qg", 4)])
def test_live_pointwise_noise_runs(tmp_path, model_id, n):
    out = tmp_path / "out"
    rc = _run(tmp_path, "pw.cfg", _pointwise(model_id, n), "simulate",
              "--out-dir", str(out))
    assert rc == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert float(rows[1].split(",")[5]) > 0.0     # hs_norm_sq at t = 0


# values the schema accepts but a builder rejects
BUILDER_REJECTS = [
    "model.id = ac_weak\nobservation.delta = 5\n",   # beyond the domain
    "model.id = qg\nmodel.n = 7\n",                  # odd torus size
    "model.id = qg\nmodel.n = 2\n",
    # p scales additive noise only
    "model.id = ac_weak\nnoise.kind = state_scaled\nnoise.p = 0.5\n",
]


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify",
                                     "convolution-check"])
@pytest.mark.parametrize("text", BUILDER_REJECTS)
def test_builder_rejected_value_exits_1(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    rc = _run(tmp_path, "bad.cfg", text, command, "--out-dir", str(out))
    assert rc == 1
    assert capsys.readouterr().err.startswith("invalid configuration")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--mu-grid", "nan"),
    ("sweep", "--delta-grid", "nan"),
    ("convolution-check", "--modes", "1,x"),
    # an empty entry is refused, not dropped
    ("sweep", "--mu-grid", "10,,50"),
    ("sweep", "--delta-grid", "0.39,"),
    ("convolution-check", "--times", "0.1,"),
    ("convolution-check", "--modes", "1,,2"),
    # a repeated mode would write each of its rows twice
    ("convolution-check", "--modes", "1,2,1"),
    # each grid entry meets its key's schema constraint
    ("sweep", "--delta-grid", "0"),
    ("sweep", "--mu-grid", "-1"),
    # a repeated entry would integrate its cells twice
    ("sweep", "--mu-grid", "10,10"),
    ("sweep", "--delta-grid", "0.39,0.9,0.39"),
    ("sweep", "--mu-grid", "10,10", "--delta-grid", "0.39,0.39"),
])
def test_bad_cli_list_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, *argv, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and argv[1] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_implicit_nudging_on_a_volume_observation_exits_1(tmp_path, capsys,
                                                          command):
    # the pair used to run as explicit nudging, without a word
    out = tmp_path / "out"
    text = SMALL_RUN + "observation.kind = volume\nnudging.implicit = true\n"
    rc = _run(tmp_path, "run.cfg", text, command, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration")
    assert "nudging.implicit" in err and "observation.kind" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,library", [
    (("sweep", "--mu-grid", "10,400"), "sweep"),
    (("convolution-check", "--paths", "50"), "convolution_variance_mc")])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_out_dir_on_a_file_exits_1_before_the_run(tmp_path, capsys,
                                                  monkeypatch, argv, library,
                                                  below):
    # the path is refused before any integration, and nothing is created
    monkeypatch.setattr(cli, library,
                        lambda *a, **k: pytest.fail("the command integrated"))
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if below else blocker
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, *argv, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write outputs: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def _without(text, key):
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(key + " "))


@pytest.mark.parametrize("line", [
    "nudging.mu = inf", "noise.sigma = inf", "init.amplitude = inf",
    "init.w0 = inf", "time.guard = inf", "model.nu = nan",
])
def test_non_finite_value_exits_1(tmp_path, capsys, line):
    key = line.split()[0]
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", _without(SMALL_RUN, key) + line + "\n",
              "simulate", "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify",
                                     "convolution-check"])
@pytest.mark.parametrize("line,argv", [
    pytest.param("ensemble.seed = -1", (), id="ensemble.seed"),
    pytest.param("init.seed = -3", (), id="init.seed"),
    pytest.param("ensemble.seed = 3", ("--seed", "-5"), id="--seed"),
])
def test_negative_seed_exits_1(tmp_path, capsys, command, line, argv):
    key = line.split()[0]
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", _without(SMALL_RUN, key) + line + "\n",
              command, *argv, "--out-dir", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration")
    assert (argv[0] if argv else key) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify",
                                     "convolution-check"])
def test_retired_noise_kind_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    text = SMALL_RUN.replace("noise.kind = additive",
                             "noise.kind = attractor_vanishing")
    rc = _run(tmp_path, "run.cfg", text, command, "--out-dir", str(out))
    assert rc == 1
    assert capsys.readouterr().err.startswith("invalid configuration")
    assert not out.exists()


def _enumerated(key):
    """Every value the schema lists for an enumerated key."""
    _, default, _, what = SCHEMA[key]
    if isinstance(default, bool):
        return ["true", "false"]
    return what.replace(" or ", ", ").split(", ")


@pytest.mark.parametrize("key", [
    "noise.kind", "observation.kind", "nudging.implicit", "model.linear",
    "noise.p", "output.emit_y",
])
def test_every_enumerated_value_changes_output(tmp_path, key):
    # a value that gives the same bytes as another value changes nothing
    base = _without("model.id = ac_weak\nmodel.n = 16\nnoise.kind = additive\n"
                    "noise.sigma = 0.1\nnudging.mu = 20.0\ntime.dt = 2e-3\n"
                    "time.T = 0.1\nensemble.members = 2\nensemble.seed = 3\n"
                    "output.stride = 5\n", key)
    values = _enumerated(key)
    assert len(values) >= 2
    outputs = []
    for i, val in enumerate(values):
        out = tmp_path / str(i)
        rc = _run(tmp_path, "run.cfg", base + "%s = %s\n" % (key, val),
                  "simulate", "--out-dir", str(out))
        assert rc == 0, val
        outputs.append(tuple((out / name).read_bytes()
                             for name in ("series.csv", "ensemble.csv")))
    assert len(set(outputs)) == len(values), values


@pytest.mark.parametrize("argv,message", [
    (["convolution-check", "--config", "run.cfg", "--paths", "abc"],
     "argument --paths: invalid int value: 'abc'"),
    (["simulate"], "the following arguments are required: --config")],
    ids=["paths-not-an-int", "no-config"])
def test_bad_command_line_exits_1(capsys, argv, message):
    # argparse's own code, 2, is the code of a tripped blow-up guard
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: nudgelab") and message in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    assert cli.main([flag]) == 0
    assert capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "cannot load" in capsys.readouterr().err


def test_bad_config_exits_1(tmp_path, capsys):
    rc = _run(tmp_path, "bad.cfg", "model.id = unknown\n", "simulate")
    assert rc == 1
    assert "model.id" in capsys.readouterr().err


def test_manifest_without_config_text_exits_1(tmp_path, capsys):
    rc = _run(tmp_path, "m.json", '{"tool": "other"}\n', "simulate")
    assert rc == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("data,out_is_file,prefix", [
    (b"\xff\xfemodel.id = ac_weak\n", False, "cannot load configuration: "),
    (b'{"config_text": 5}\n', False, "cannot load configuration: "),
    (SMALL_RUN.encode(), True, "cannot write outputs: ")],
    ids=["not-utf8", "config-text-not-a-string", "out-dir-is-a-file"])
def test_unreadable_config_or_unwritable_outputs_exit_1(tmp_path, command, data,
                                                        out_is_file, prefix):
    # a fresh interpreter, so that an uncaught error shows as a traceback
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_bytes(data)
    if out_is_file:
        out.write_text("not a directory\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nudgelab.cli", command, "--config", str(cfg),
         "--out-dir", str(out)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(prefix), proc.stderr
    assert "Traceback" not in proc.stderr


SWEEP_VOL = ("model.id = nse_strong\nmodel.n = 32\nobservation.kind = volume\n"
             "noise.kind = additive\nnoise.sigma = 0.02\ntime.dt = 1e-3\n"
             "ensemble.members = 2\n")
QG_64 = ("model.id = qg\nmodel.n = 32\nnoise.kind = additive\n"
         "noise.sigma = 0.05\nnudging.mu = 50\ntime.dt = 1e-3\n"
         "ensemble.members = 64\n")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
@pytest.mark.parametrize("text,argv,T,bound", [
    # with glibc's dynamic thresholds each step of this sweep gives its
    # temporaries back to the kernel and faults them in again: doubling
    # the horizon adds about 10,000 faults to one 13-row stack, and about
    # 1,950 to two member chunks of 7 rows; about 30 with both pinned
    (SWEEP_VOL, ["sweep", "--mu-grid", "10,50,200", "--delta-grid",
                 "0.39,0.8"], 0.03, 500),
    # the trim threshold pinned alone leaves the mmap threshold at 128 KiB,
    # so each 65-row stack goes through mmap: doubling the horizon adds
    # about 42,600 faults in one process and 13,500 over two chunks of 33
    # rows (about 1,000 and 325 with the dynamic thresholds, under 10
    # with both pinned)
    (QG_64, ["simulate"], 0.01, 2000)], ids=["sweep-13-rows", "qg-65-rows"])
def test_steps_do_not_refault_the_heap(tmp_path, text, argv, T, bound):
    # what stepping faults, the member chunks' children included, over
    # and above the horizon T: a fork write-protects the parent's heap,
    # which costs a copy-on-write fault per page once per run, the same
    # at T and 2T, while a refault per step doubles
    def faults(T):
        # a fresh interpreter, whose allocator only cli.main has set
        cfg, out = tmp_path / ("%g.cfg" % T), tmp_path / ("%g" % T)
        cfg.write_text(text + "time.T = %r\n" % T)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "nudgelab.cli", *argv, "--config", str(cfg),
             "--out-dir", str(out)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "manifest.json").read_text())
        return (doc["minor_faults"]["integrate_s"]
                + doc["child_minor_faults"]["integrate_s"])

    once = faults(T)
    assert faults(2 * T) - once < bound, once


BOOM = ("model.id = ac_weak\nmodel.n = 16\ntime.dt = 0.5\ntime.T = 25.0\n"
        "init.amplitude = 40.0\ntime.guard = 1e6\n")


def test_blowup_exits_2(tmp_path, capsys):
    rc = _run(tmp_path, "boom.cfg", BOOM, "simulate",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_verify_reference_blowup_exits_2(tmp_path, capsys):
    rc = _run(tmp_path, "boom.cfg", BOOM, "verify",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "reference trajectory blew up" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "sweep",
              "--mu-grid", "10,400", "--delta-grid", "0.39,0.9",
              "--out-dir", str(out))
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].split(",")[:5] == ["mu", "delta", "mu_delta_sq",
                                     "eta0_hat", "over_threshold"]
    assert len(rows) == 1 + 4
    flags = [float(r.split(",")[4]) for r in rows[1:]]
    assert set(flags) <= {0.0, 1.0} and 1.0 in flags
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "sweep"
    assert doc["mu_grid"] == [10.0, 400.0]
    # alpha is the model's; C_I and eta0 are each delta's, in grid order,
    # and eta0 is the eta0_hat column of that delta's rows
    spec = build_setup(parse_config(SMALL_RUN)).model
    assert doc["alpha_hat"] == H.measure_alpha(spec)
    assert doc["delta_grid"] == [0.39, 0.9]
    for r in rows[1:]:
        _, d, _, e = (float(v) for v in r.split(",")[:4])
        assert e == doc["eta0_hat"][doc["delta_grid"].index(d)]
    assert doc["eta0_hat"] == [eta0(doc["alpha_hat"], c)
                               for c in doc["c_i_hat"]]
    assert len(set(doc["eta0_hat"])) == 2
    assert "eta0_hat = %.4g, %.4g" % tuple(doc["eta0_hat"]) \
        in capsys.readouterr().out


def test_sweep_builds_one_setup(tmp_path, monkeypatch):
    # one shared reference, then one observation per delta
    calls = []
    monkeypatch.setattr(cli, "build_setup",
                        lambda values: calls.append(values) or
                        build_setup(values))
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "sweep",
              "--delta-grid", "0.2,0.39,0.8", "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    assert len(calls) == 1


def test_sweep_bad_grid_exits_1(tmp_path, capsys):
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "sweep", "--mu-grid", "ten")
    assert rc == 1


def test_verify_report(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "verify", "--check",
              "--out-dir", str(out))
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "alpha" in report and "envelope" in report
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "verify"
    assert doc["checks"] and all(doc["checks"].values())
    # the reference alone steps: no member-steps
    _assert_timing(out, 0)


def test_commands_agree_on_the_constants(tmp_path):
    # verify's C_I is the exact constant simulate and sweep report
    text = ("model.id = nse_weak\nmodel.n = 32\nobservation.kind = volume\n"
            "observation.delta = 0.2\ntime.dt = 1e-3\ntime.T = 0.004\n")
    docs = {}
    for command in ("simulate", "sweep", "verify"):
        out = tmp_path / command
        rc = _run(tmp_path, "run.cfg", text, command, "--out-dir", str(out))
        assert rc == 0
        docs[command] = json.loads((out / "manifest.json").read_text())
    sim, swp, ver = docs["simulate"], docs["sweep"], docs["verify"]
    for key in ("alpha_hat", "c_i_hat", "eta0_hat"):
        assert ver[key] == sim[key]
        assert swp[key] == (sim[key] if key == "alpha_hat" else [sim[key]])
    report = (tmp_path / "verify" / "report.txt").read_text()
    assert "C_I_hat = %.6g (exact, alias-class norm)" % sim["c_i_hat"] in report


def test_verify_steps_the_reference_alone(tmp_path, monkeypatch):
    # the report reads the reference only: every stepped stack holds just
    # it (the assumption checks call f_raw on lone fields)
    spec = build_setup(parse_config(SMALL_RUN)).model
    stacks = []
    f_raw = spec.f_raw

    def counted(x):
        if x.ndim > len(spec.shape):
            stacks.append(x.shape)
        return f_raw(x)

    monkeypatch.setattr(spec, "f_raw", counted)
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "verify",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    assert stacks == [(1,) + spec.shape] * 100


def test_verify_keeps_its_states_on_a_long_large_run(tmp_path, monkeypatch):
    # mhd n=64 over 600 steps: all 601 states would take 81 MB (dof * 601
    # is past 5e6); verify records only the 9 the energy probe reads
    text = ("model.id = mhd\nmodel.n = 64\ntime.dt = 1e-3\ntime.T = 0.6\n")
    spec = build_setup(parse_config(text)).model
    assert np.prod(spec.shape) * 601 > 5_000_000
    seen = []
    real = H._epsilon_hat

    def counted(spec, traj_states):
        seen.append(len(traj_states))
        return real(spec, traj_states)

    monkeypatch.setattr(H, "_epsilon_hat", counted)
    rc = _run(tmp_path, "run.cfg", text, "verify",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    assert seen == [len(range(0, 601, 601 // 8))] == [9]


QG_POINTWISE = ("model.id = qg\nmodel.n = 8\nobservation.kind = volume\n"
                "noise.kind = pointwise_multiplicative\nnoise.sigma = 0.1\n"
                "nudging.mu = 20\ntime.dt = 1e-3\ntime.T = 0.055\n"
                "ensemble.members = 2\n")


def _count_monitors(monkeypatch, text):
    # every kappa_raw call on the run's (cached) spec, and every
    # hs_norm_sq call of the stepping loop (one state per call)
    spec = build_setup(parse_config(text)).model
    calls = {"kappa": 0, "hs": 0}
    kappa_raw, hs_norm_sq = spec.kappa_raw, I.hs_norm_sq

    def kappa(x):
        calls["kappa"] += 1
        return kappa_raw(x)

    def hs(*args):
        calls["hs"] += 1
        return hs_norm_sq(*args)

    monkeypatch.setattr(spec, "kappa_raw", kappa)
    monkeypatch.setattr(I, "hs_norm_sq", hs)
    return calls


def test_monitors_run_only_where_an_output_reads_them(tmp_path, monkeypatch):
    # simulate writes the stride rows only; sweep reads the members' w_h
    calls = _count_monitors(monkeypatch, QG_POINTWISE)
    rc = _run(tmp_path, "run.cfg", QG_POINTWISE + "output.stride = 10\n",
              "simulate", "--out-dir", str(tmp_path / "sim"))
    assert rc == 0
    rows = len(cli._stride_idx(55 + 1, 10))
    assert rows == 7
    assert calls == {"kappa": rows, "hs": rows}
    calls.update(kappa=0, hs=0)
    rc = _run(tmp_path, "run.cfg", QG_POINTWISE, "sweep", "--mu-grid",
              "10,40", "--delta-grid", "0.39,0.8",
              "--out-dir", str(tmp_path / "sweep"))
    assert rc == 0
    assert calls == {"kappa": 0, "hs": 0}


@pytest.mark.parametrize("text", [QG_POINTWISE + "output.emit_y = true\n",
                                  SMALL_RUN.replace("time.T = 0.2\n",
                                                    "time.T = 0.11\n").replace(
                                      "output.stride = 10\n", "")],
                         ids=["qg-pointwise-emit_y", "ac_weak-additive"])
def test_stride_rows_equal_the_every_step_rows(tmp_path, text):
    # a value at step i depends only on the state at step i: recording the
    # stride rows alone keeps their bytes
    lines = {}
    for stride in (10, 1):
        out = tmp_path / ("s%d" % stride)
        rc = _run(tmp_path, "run.cfg", text + "output.stride = %d\n" % stride,
                  "simulate", "--out-dir", str(out))
        assert rc == 0
        lines[stride] = {name: (out / name).read_text().splitlines()
                         for name in ("series.csv", "ensemble.csv")}
    for name, every in lines[1].items():
        strided = lines[10][name]
        idx = cli._stride_idx(len(every) - 1, 10)
        assert len(strided) == 1 + len(idx) < len(every)
        assert strided == [every[0]] + [every[1 + i] for i in idx]


def test_verify_ignores_estimate_blowup(tmp_path):
    # explicit nudging with dt * mu = 5 blows the estimate up; verify
    # reads the reference alone, so the run completes
    text = ("model.id = ac_weak\nmodel.n = 16\nnudging.mu = 5000\n"
            "time.dt = 1e-3\ntime.T = 0.1\ntime.guard = 1e3\n")
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", text, "verify", "--out-dir", str(out))
    assert rc == 0
    assert (out / "report.txt").exists()
    rc = _run(tmp_path, "run.cfg", text, "simulate",
              "--out-dir", str(tmp_path / "sim"))
    assert rc == 2


def test_verify_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a measured alpha off its declared value fails the coercivity check
    real = H.measure_alpha
    monkeypatch.setattr(H, "measure_alpha", lambda spec: real(spec) + 1.0)
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "verify", "--check",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 3
    assert capsys.readouterr().err == ("check failed: coercivity constant "
                                       "matches its declared value\n")
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [k for k, ok in doc["checks"].items() if not ok] \
        == ["coercivity constant matches its declared value"]


# sha256 of report.txt at T = 0.05 for three (model, n, observation)
# configs; the report is built from the measured constants alone, so
# these pin every constant, probe budget, seed and threshold of verify
VERIFY_REPORTS = {
    ("nse_strong", 32, "volume", False):
        "3ff0c119d8afb9e989a6b8174df3d367243764c8d511c6f6f4629ddbd4c44891",
    ("mhd", 16, "volume", False):
        "b3d694a4365fdbe3d67f1afc04af7f7e41703ddf132ef53e83e44a14f3e3725f",
    ("ac_weak", 16, "modal", True):
        "4bd2a6cbd8c69f2f85bd9ade90f75138d9eff8846a24ccd4fdfc3d2715409e9c",
}


def _report_config(case):
    model_id, n, obs, linear = case
    return ("model.id = %s\nmodel.n = %d\nobservation.kind = %s\n"
            "time.T = 0.05\n%s" % (model_id, n, obs,
                                   "model.linear = true\n" if linear else ""))


@pytest.mark.parametrize("case", sorted(VERIFY_REPORTS), ids=str)
def test_verify_report_bytes_are_pinned(tmp_path, case):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", _report_config(case), "verify", "--check",
              "--out-dir", str(out))
    assert rc == 0
    digest = hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()
    assert digest == VERIFY_REPORTS[case]


def test_verify_report_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    # the pinned reports in fresh interpreters with the AVX-512 loops off;
    # numpy ignores feature names the host lacks, so this runs anywhere
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX")
    for i, case in enumerate(sorted(VERIFY_REPORTS)):
        cfg, out = tmp_path / ("run%d.cfg" % i), tmp_path / ("out%d" % i)
        cfg.write_text(_report_config(case))
        subprocess.run([sys.executable, "-m", "nudgelab.cli", "verify", "--config",
                        str(cfg), "--check", "--out-dir", str(out)],
                       env=env, capture_output=True, check=True)
        digest = hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()
        assert digest == VERIFY_REPORTS[case], case


def test_convolution_check(tmp_path):
    text = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.5\n")
    out = tmp_path / "out"
    rc = _run(tmp_path, "conv.cfg", text, "convolution-check",
              "--paths", "400", "--check", "--out-dir", str(out))
    assert rc == 0
    rows = (out / "convolution.csv").read_text().splitlines()
    assert rows[0] == "t,mode,variance,se,exact,deviation_se"
    devs = [float(r.split(",")[5]) for r in rows[1:]]
    assert max(devs) <= 3.0
    # default probes: steps n//4, n//2, n of the 250-step horizon
    assert sorted({float(r.split(",")[0]) for r in rows[1:]}) \
        == [62 * 2e-3, 125 * 2e-3, 250 * 2e-3]
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["paths"] == 400
    assert doc["times"] == [62 * 2e-3, 125 * 2e-3, 250 * 2e-3]
    # no constants are measured; each path steps the whole horizon
    _assert_timing(out, 400 * 250, ["integrate_s", "output_s", "setup_s"])
    assert 0.0 <= doc["worst_deviation_discrete_se"] <= 3.0
    assert abs(doc["worst_deviation_se"] - max(devs)) <= 5e-4
    assert 0.0 < doc["continuous_gap_rel"] < 0.2


CONV_AC = ("model.id = ac_weak\nmodel.n = 16\nnoise.kind = additive\n"
           "noise.sigma = 0.1\nnudging.mu = 20\ntime.dt = 1e-3\n"
           "time.T = 0.5\nensemble.seed = 3\ninit.seed = 3\n")


def test_convolution_check_verdict_uses_scheme_variance(tmp_path, capsys):
    # 4.5 s.e. from the continuous-time variance, the O(dt a) bias of the
    # scheme; the scheme's own variance is the reference of the verdict
    out = tmp_path / "out"
    rc = _run(tmp_path, "conv.cfg", CONV_AC, "convolution-check",
              "--paths", "10000", "--check", "--out-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["worst_deviation_discrete_se"] <= 3.0 < doc["worst_deviation_se"]
    line = capsys.readouterr().out.splitlines()[0]
    assert "%.2f s.e. from the scheme's variance" \
        % doc["worst_deviation_discrete_se"] in line


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="forked parts run on Linux only")
def test_convolution_check_in_processes_writes_the_same_bytes(tmp_path,
                                                              monkeypatch):
    # four tasks of 100 paths, stepped in one process and in one per CPU:
    # the CSV keeps its bytes, and the manifest counts the processes and
    # its children's faults and peak resident set
    monkeypatch.setattr(H, "_CONV_CHUNK", 100)
    one, split = tmp_path / "one", tmp_path / "split"
    with monkeypatch.context() as m:
        m.setattr(H, "_cpus", lambda: 1)
        assert _run(tmp_path, "conv.cfg", CONV_AC, "convolution-check",
                    "--paths", "400", "--out-dir", str(one)) == 0
    assert _run(tmp_path, "conv.cfg", CONV_AC, "convolution-check",
                "--paths", "400", "--out-dir", str(split)) == 0
    assert (one / "convolution.csv").read_bytes() == \
        (split / "convolution.csv").read_bytes()
    docs = [json.loads((out / "manifest.json").read_text())
            for out in (one, split)]
    assert docs[0]["chunks"] == 1
    assert docs[1]["chunks"] == (min(len(os.sched_getaffinity(0)), 4)
                                 if I._forkable() else 1)
    if docs[1]["chunks"] > 1:
        assert docs[1]["child_minor_faults"]["integrate_s"] > 0
        assert docs[1]["child_peak_rss_mb"] > 0.0


def test_convolution_check_ac_strong_passes(tmp_path):
    # the raw coefficients of ac_strong carry 1/w_h; the references must too
    text = ("model.id = ac_strong\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.5\n")
    out = tmp_path / "out"
    rc = _run(tmp_path, "s.cfg", text, "convolution-check",
              "--paths", "400", "--check", "--out-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["worst_deviation_se"] < 6.0


@pytest.mark.parametrize("times,match", [
    ("0.1234", "whole number"),
    ("0.1,0.1", "same step"),
    ("0.25,0.6", "inside"),
])
def test_convolution_check_bad_times_exit_1(tmp_path, capsys, times, match):
    text = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 1e-2\ntime.T = 0.5\n")
    out = tmp_path / "out"
    rc = _run(tmp_path, "c.cfg", text, "convolution-check", "--times", times,
              "--paths", "10", "--out-dir", str(out))
    assert rc == 1
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_convolution_check_needs_noise(tmp_path, capsys):
    rc = _run(tmp_path, "c.cfg", "model.id = ac_weak\n", "convolution-check")
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("line,paths,match", [
    pytest.param("nudging.mu = 0.0", "10", "mu > 0", id="zero-mu"),
    pytest.param("nudging.mu = 20.0", "1", "--paths must be at least 2",
                 id="one-path"),
])
def test_convolution_check_refuses_zero_mu_or_one_path(tmp_path, capsys, line,
                                                       paths, match):
    text = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "time.dt = 1e-2\ntime.T = 0.5\n%s\n" % line)
    out = tmp_path / "out"
    rc = _run(tmp_path, "c.cfg", text, "convolution-check", "--paths", paths,
              "--out-dir", str(out))
    assert rc == 1
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_convolution_check_mode_above_k_q_reads_zero(tmp_path):
    # K_Q = floor(pi / 0.39) = 8: mode 9 carries no noise, so its variance,
    # s.e. and exact value are 0 and its deviation reads 0, not inf
    text = ("model.id = ac_weak\nmodel.n = 16\nobservation.delta = 0.39\n"
            "noise.sigma = 0.1\nnudging.mu = 20.0\ntime.dt = 1e-2\n"
            "time.T = 0.5\n")
    out = tmp_path / "out"
    rc = _run(tmp_path, "c.cfg", text, "convolution-check", "--modes", "8,9",
              "--paths", "20", "--out-dir", str(out))
    assert rc == 0
    rows = [r.split(",") for r in
            (out / "convolution.csv").read_text().splitlines()[1:]]
    assert {r[1] for r in rows} == {"8", "9"}
    for t, mode, var, se, exact, dev in rows:
        if mode == "9":
            assert float(var) == float(se) == float(exact) == 0.0
            assert dev == "0.000"
        else:
            assert float(var) > 0.0 and float(se) > 0.0


def test_convolution_check_failure_exits_3(tmp_path, monkeypatch):
    text = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.5\n")
    real = cli.convolution_variance_mc

    def biased(*a, **kw):
        out = real(*a, **kw)
        return out._replace(var=out.var * 10.0)

    monkeypatch.setattr(cli, "convolution_variance_mc", biased)
    rc = _run(tmp_path, "c.cfg", text, "convolution-check",
              "--paths", "200", "--check", "--out-dir", str(tmp_path / "o"))
    assert rc == 3
