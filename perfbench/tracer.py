"""Spans around the calls into each nudgelab layer, installed from outside.

The benchmark does not change the program: it rebinds the functions it
times, in every nudgelab module that holds them, to wrappers that record
a span (name, start, end, parent).  Spans are kept in flat arrays in
memory and written once the command has returned.  A span's self time is
its duration minus the durations of its direct children.

Layers are the modules config, models, fields, observe, noise, integrate,
harness and cli, plus kernel for the numpy.fft and scipy.fft entry points
they call.  noise.draw times random-number construction (SeedSequence and
Philox) and the standard_normal draws, wherever in the program they occur.
"""

import importlib
import sys
import time
from array import array

# (module, attribute, span name); rebinding covers every `from .x import y`
NAMED_FUNCTIONS = [
    ("nudgelab.config", "parse_config", "config.parse_config"),
    ("nudgelab.config", "build_setup", "config.build_setup"),
    ("nudgelab.fields", "norm_raw", "fields.norm_raw"),
    ("nudgelab.observe", "apply_observation_raw", "observe.apply_observation_raw"),
    ("nudgelab.observe", "estimate_interp_constant", "observe.estimate_interp_constant"),
    ("nudgelab.noise", "increment_from_noise", "noise.increment_from_noise"),
    ("nudgelab.noise", "apply_G_raw", "noise.apply_G_raw"),
    ("nudgelab.noise", "hs_norm_sq", "noise.hs_norm_sq"),
    ("nudgelab.harness", "member_seed", "noise.draw"),
    ("nudgelab.integrate", "simulate_pair", "integrate.simulate_pair"),
    ("nudgelab.harness", "run_ensemble", "harness.run_ensemble"),
    ("nudgelab.harness", "sweep", "harness.sweep"),
    ("nudgelab.harness", "convolution_variance_mc", "harness.convolution_variance_mc"),
    ("nudgelab.harness", "fit_decay_rate", "harness.fit_decay_rate"),
    ("nudgelab.harness", "measure_alpha", "harness.measure_alpha"),
    ("nudgelab.harness", "estimate_noise_floor", "harness.estimate_noise_floor"),
    ("nudgelab.cli", "_csv", "cli.output"),
    ("nudgelab.cli", "_manifest", "cli.output"),
]

FFT_ENTRY_POINTS = {
    "numpy.fft": ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                  "irfft2", "fftn", "ifftn", "rfftn", "irfftn"),
    "scipy.fft": ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                  "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
                  "dst", "idst", "dct", "idct", "dstn", "idstn", "dctn", "idctn"),
}

TOP = "cli.main"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors = {}
        self.fft_points = 0
        self.fft_bytes = 0
        self.output_bytes = 0

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """fn with a span named name around every call; after(args, result)
        runs inside the span to record counts."""
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except Exception:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    # ------------------------------------------------------------------
    # installation

    def _count_fft(self, args, result):
        x = args[0]
        self.fft_points += max(x.size, result.size)
        self.fft_bytes += x.nbytes + result.nbytes

    def _count_output(self, args, result):
        self.output_bytes += len(args[1].encode("utf-8"))

    def install(self, spec):
        """Wrap the named functions, the FFT entry points, the cli writer,
        the rng constructor and the model callbacks of spec."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "nudgelab" or k.startswith("nudgelab.")]
        for mod_name, attr, name in NAMED_FUNCTIONS:
            _rebind(mods, getattr(sys.modules[mod_name], attr),
                    self.wrap(name, getattr(sys.modules[mod_name], attr)))
        cli = sys.modules["nudgelab.cli"]
        _rebind(mods, cli._write,
                self.wrap("cli.output", cli._write, self._count_output))

        integ = sys.modules["nudgelab.integrate"]
        make_rng = self.wrap("noise.draw", integ._rng_for)
        wrap = self.wrap

        def rng_for(seed):
            return _TracedGenerator(make_rng(seed), wrap)
        _rebind(mods, integ._rng_for, rng_for)

        for mod_name, names in FFT_ENTRY_POINTS.items():
            mod = importlib.import_module(mod_name)
            for attr in names:
                fn = getattr(mod, attr)
                setattr(mod, attr, self.wrap("kernel.fft", fn, self._count_fft))
        # models keep f_raw and kappa_raw on the (registry-cached) spec
        spec.f_raw = self.wrap("models.f_raw", spec.f_raw)
        spec.kappa_raw = self.wrap("models.kappa_raw", spec.kappa_raw)

    # ------------------------------------------------------------------
    # reduction

    def summary(self):
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        import numpy as np
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(len(dur) + 1)
        np.add.at(child, par + 1, dur)       # slot 0 collects the roots
        self_t = dur - child[1:]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_t, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i]), "errors": self.errors.get(n, 0)}
                for i, n in enumerate(self.names)}

    def write(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class _TracedGenerator:
    """A numpy Generator whose standard_normal draws are noise.draw spans."""

    def __init__(self, gen, wrap):
        self._gen = gen
        self.standard_normal = wrap("noise.draw", gen.standard_normal)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _rebind(modules, orig, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
