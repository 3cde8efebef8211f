"""Config parsing, the canonical renderer, and the command line."""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nudgelab.cli as cli
from nudgelab.config import (ConfigError, build_setup, output_directory,
                             parse_config, render_config)
from nudgelab.fields import norm

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
            "model.nu = 1\nmodel.nu = 2\n"
            "not a line\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    for frag in ("bogus.key", "model.n", "time.dt", "noise.kind",
                 "duplicate", "expected key = value", "model.id"):
        assert frag in msg, frag
    # six line faults plus the missing required key
    assert len(err.value.errors) == 7


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
    from nudgelab.fields import Field
    w = Field(setup.model.model_id, setup.v0.coeffs - setup.u0.coeffs)
    assert abs(norm(w, "H") - v["init.w0"]) < 1e-12


def test_build_setup_zero_initial_error():
    v = parse_config(MINIMAL + "init.w0 = 0.0\n")
    setup = build_setup(v)
    assert np.array_equal(setup.u0.coeffs, setup.v0.coeffs)


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
    names = sorted(os.listdir(out))
    assert names == ["ensemble.csv", "manifest.json", "plot_series.py",
                     "series.csv"]
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,w_H,w_Vstar,u_H,v_H,hs_norm_sq,kappa"
    # 100 steps, stride 10, plus the forced final row
    assert len(series) == 1 + 11
    ens = (out / "ensemble.csv").read_text().splitlines()
    assert ens[0].startswith("t,mean_w2_H,se_w2_H")
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["tool"] == "nudgelab" and doc["command"] == "simulate"
    assert doc["members"] == 2 and doc["blowups"] == 0
    assert doc["eta0_hat"] > 0.0
    assert "ensemble.members = 2" in doc["config_text"]


def test_simulate_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", "--out-dir", str(out1))
    _run(tmp_path, "run.cfg", SMALL_RUN, "simulate", "--out-dir", str(out2))
    for name in ("series.csv", "ensemble.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_simulate_emit_y_columns(tmp_path):
    out = tmp_path / "out"
    rc = _run(tmp_path, "run.cfg", SMALL_RUN + "output.emit_y = true\n",
              "simulate", "--out-dir", str(out))
    assert rc == 0
    head = (out / "series.csv").read_text().splitlines()[0]
    assert head.endswith(",dy_H,y_H")


# manifest.json and CSV digests written by the release that still carried
# ensemble.workers (here set to 4) in config_text
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
    assert "ensemble.workers = 4" in json.loads(src.read_text())["config_text"]
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(src), "--out-dir", str(out)])
    assert rc == 0
    for name, digest in OLD_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    doc = json.loads((out / "manifest.json").read_text())
    assert "ensemble.workers" not in doc["config_text"]


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


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_fully_observed_band_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = _run(tmp_path, "full.cfg", FULL_BAND, command, "--out-dir", str(out))
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


def test_blowup_exits_2(tmp_path, capsys):
    text = ("model.id = ac_weak\nmodel.n = 16\ntime.dt = 0.5\ntime.T = 25.0\n"
            "init.amplitude = 40.0\ntime.guard = 1e6\n")
    rc = _run(tmp_path, "boom.cfg", text, "simulate",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_sweep_outputs(tmp_path):
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


def test_verify_check_failure_exits_3(tmp_path, monkeypatch):
    real = cli.verify_assumptions

    def doctored(model, traj, op, **kw):
        rep = real(model, traj, op, **kw)
        rep.alpha_declared = rep.alpha_hat + 1.0
        return rep

    monkeypatch.setattr(cli, "verify_assumptions", doctored)
    rc = _run(tmp_path, "run.cfg", SMALL_RUN, "verify", "--check",
              "--out-dir", str(tmp_path / "out"))
    assert rc == 3


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
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["paths"] == 400


def test_convolution_check_needs_noise(tmp_path, capsys):
    rc = _run(tmp_path, "c.cfg", "model.id = ac_weak\n", "convolution-check")
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


def test_convolution_check_failure_exits_3(tmp_path, monkeypatch):
    text = ("model.id = ac_weak\nmodel.n = 8\nnoise.sigma = 0.1\n"
            "nudging.mu = 20.0\ntime.dt = 2e-3\ntime.T = 0.5\n")
    real = cli.convolution_variance_mc

    def biased(*a, **kw):
        times, var, se = real(*a, **kw)
        return times, var * 10.0, se

    monkeypatch.setattr(cli, "convolution_variance_mc", biased)
    rc = _run(tmp_path, "c.cfg", text, "convolution-check",
              "--paths", "200", "--check", "--out-dir", str(tmp_path / "o"))
    assert rc == 3
