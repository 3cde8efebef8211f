"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py --workload W --config FILE --out-dir DIR
                                [--trace-file SPANS] [--setup-only] [--tiny]

Times the set-up (import nudgelab, parse_config, build_setup) from the
first statement after the standard-library imports, then runs the
workload's CLI command in this process and times it until it returns
with its outputs written.  With --trace-file the calls into every layer
are traced (see tracer.py) and the spans are written to that file.
Prints one JSON object as the last line of standard output.

Around the command the worker also times a fixed calibration kernel of
the kind of work the workload does (make_calibration), once after set-up
and once after the command.
The host's speed drifts by tens of percent over minutes; the benchmark
divides its times by these kernel times (see run.py).  The kernel uses
numpy and scipy only, never nudgelab, so a change to the program does
not move it.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# passes of each calibration kernel: about 0.2 s each on an idle host
CALIBRATION_PASSES = {"small": 5000, "fft": 2800, "rng": 5000}


def make_calibration(kind):
    """A function returning the seconds taken by a fixed amount of numpy
    work of one kind, the kind a workload spends its time on:

      small  DSTs, elementwise work and sums on 128-point vectors, and a
             32 x 32 FFT pair and a small matmul every fourth pass (ens_ac,
             sweep_vol)
      fft    32 x 32 FFT pairs and grid products (mult_qg)
      rng    SeedSequence and Philox generator construction and a small
             draw (conv_ac)

    The host's slowdowns hit Python call overhead, FFTs and generator
    construction differently, so each workload is calibrated with its own
    kind.  The functions are bound here, before any tracing wraps them.
    """
    import numpy as np
    import scipy.fft as sfft
    dst, rfft2, irfft2 = sfft.dst, np.fft.rfft2, np.fft.irfft2
    seq, philox, gen = np.random.SeedSequence, np.random.Philox, np.random.Generator
    passes = CALIBRATION_PASSES[kind]
    x = np.linspace(0.0, 1.0, 128)
    g = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
    g2 = np.cos(g)
    b = np.linspace(0.0, 1.0, 16 * 32).reshape(16, 32)

    # every result is used, as in the workloads
    def one_pass(i):
        if kind == "fft":
            z = rfft2(g * g2)
            w = irfft2(z * z, s=(32, 32))
            return float(np.sum(w * w))
        if kind == "rng":
            block = gen(philox(seq(7, spawn_key=(i,)))).standard_normal((50, 16))
            return float(np.sum(block[i % 50]))
        v = dst(x, type=1) / 3.0
        v = v * v * 0.5 + x
        acc = float(np.sqrt(np.sum(v * v)))
        if kind == "small" and i % 4 == 0:
            z = irfft2(rfft2(g), s=(32, 32))
            acc += float((b @ z @ b.T)[0, 0])
        return acc

    def calibrate():
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(passes):
            acc += one_pass(i)
        return time.perf_counter() - t0
    return calibrate


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    sys.path.insert(0, HERE)
    import workloads
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import nudgelab
    values = nudgelab.parse_config(text)
    setup = nudgelab.build_setup(values)
    setup_s = time.perf_counter() - t0

    where = os.path.realpath(nudgelab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("imported nudgelab from %s, not from %s" % (where, SRC))
    calibrate = make_calibration(workloads.WORKLOADS[args.workload]["calibration"])
    out = {"setup_s": setup_s, "cal_s": [calibrate()]}
    if args.setup_only:
        import numpy
        import scipy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                           "blas": "%s %s" % (blas.get("name"), blas.get("version"))}
    else:
        from nudgelab import cli
        argv = workloads.cli_argv(args.workload, args.config, args.out_dir,
                                  args.tiny)
        main_fn = cli.main
        tracer = None
        if args.trace_file:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install(setup.model)
            main_fn = tracer.wrap(tracing.TOP, cli.main)
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):   # keep stdout for the result
            rc = main_fn(argv)
        run_s = time.perf_counter() - t1
        out.update(rc=rc, run_s=run_s, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        out["cal_s"].append(calibrate())
        if tracer is not None:
            out["spans"] = tracer.summary()
            out["fft_points"] = tracer.fft_points
            out["fft_bytes"] = tracer.fft_bytes
            out["output_bytes"] = tracer.output_bytes
            tracer.write(args.trace_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
