"""Span recorder for the traced run, installed from outside the package.

:func:`install_sqglab` and :func:`install_fft` wrap, without editing
``src/``:

* every public function and public method defined in each ``sqglab``
  module, rebound at every binding site (``from .spectral import x`` copies
  the function object into the importing module, so patching only the
  defining module would miss those callers);
* ``SpectralField`` construction, recording the bytes it copied;
* the numpy and scipy FFT entry points, recording the points transformed.

Spans stay in memory as ``[name, start, end, parent, round, extra]`` lists
and are written out once, at the end of the run.  :func:`layer_metrics`
turns them into the per-layer metrics; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

#: Package module -> layer it is reported under.
LAYERS = {
    "spectral": "spectral",
    "dyadic": "dyadic",
    "sampling": "sampling",
    "inequalities": "inequalities",
    "solver": "solver",
    "iterates": "iterates",
    "reports": "cli",
    "cli": "cli",
}

MULTIPLIER_SPANS = {
    "spectral.apply_multiplier",
    "spectral.MultiplierSpec.symbol_on",
    "spectral.riesz_perp",
}
NORM_SPANS = {"spectral.sobolev_norm", "spectral.lp_norm", "spectral.field_lp_norm"}
SPECTRAL_IO_SPANS = {"spectral.save_field", "spectral.load_field"}
CLI_IO_SPANS = {
    "spectral.save_field",
    "solver.TimeSeries.write_csv",
    "reports.write_timeseries_csv",
    "reports.IterateTrace.write_csv",
    "reports.IterateTrace.write_json",
    "reports.InequalityReport.write_json",
    "reports.RunManifest.write",
    "reports.RunManifest.add_output",
}
TRANSPORT_SPANS = {"dyadic.block_commutator", "dyadic.trilinear_form"}
ITERATE_SPANS = {"iterates.galerkin_sequence", "iterates.picard_besov_sequence"}
ITERATE_NORM_SPANS = {"dyadic.besov_norm", "spectral.sobolev_norm",
                      "spectral.apply_multiplier"}
STEP_SPAN = "solver.Stepper.step"
SIMULATE_SPAN = "solver.run_simulation"
BESOV_SPAN = "dyadic.besov_norm"
FIELD_SPAN = "spectral.SpectralField"


class Recorder:
    """In-memory span store; single-threaded, like the program it wraps."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.round = 0
        self.active = False  # spans are recorded only while set
        self._wrapped = {}  # id(original) -> wrapper

    def wrap(self, name, fn, extra=None):
        """Return ``fn`` recording a span; ``extra(args, kwargs, result)``
        may attach a value to it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    rec[5] = extra(args, kwargs, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        self._wrapped[id(fn)] = traced
        return traced

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,round,extra."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,round,extra\n")
            for name, t0, t1, parent, rnd, extra in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{rnd},"
                         f"{'' if extra is None else extra}\n")


def _fft_points(args, kwargs, result):
    import numpy as np

    return max(np.size(args[0]), np.size(result))


def install_fft(recorder: Recorder) -> None:
    """Wrap the FFT entry points; call before importing ``sqglab``."""
    import numpy.fft
    import scipy.fft

    for module, label in ((numpy.fft, "numpy"), (scipy.fft, "scipy")):
        for fname in FFT_NAMES:
            fn = getattr(module, fname, None)
            if fn is not None:
                setattr(module, fname,
                        recorder.wrap(f"fft.{label}.{fname}", fn, _fft_points))


def _field_init(recorder: Recorder, init):
    import numpy as np

    def copied(args, kwargs, result):
        self = args[0]
        source = kwargs["coeffs"] if "coeffs" in kwargs else args[2]
        stored = self.coeffs
        if stored is source or np.may_share_memory(stored, source):
            return 0
        return stored.nbytes

    return recorder.wrap(FIELD_SPAN, init, copied)


def _report_extra(args, kwargs, result):
    if hasattr(result, "lemma_id") and hasattr(result, "n_samples"):
        return f"{result.lemma_id}:{int(result.n_samples)}"
    return None


def install_sqglab(recorder: Recorder) -> None:
    """Wrap the public functions and methods of every ``sqglab`` module."""
    import importlib

    for short in LAYERS:
        module = importlib.import_module(f"sqglab.{short}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                extra = _report_extra if short == "inequalities" else None
                setattr(module, name, recorder.wrap(f"{short}.{name}", obj, extra))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    setattr(obj, attr,
                            recorder.wrap(f"{short}.{obj.__name__}.{attr}", member))
    field_cls = sys.modules["sqglab.spectral"].SpectralField
    field_cls.__init__ = _field_init(recorder, field_cls.__init__)
    # Rebind every other name that still points at an original function.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "sqglab" or mod_name.startswith("sqglab.")):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = recorder._wrapped.get(id(obj))
            if wrapper is not None and wrapper is not obj:
                setattr(module, name, wrapper)


def symbol_cache_info() -> tuple:
    """(hits, misses) summed over the symbol caches in ``sqglab.spectral``.

    Reads ``cache_info()``, which leaves the cache unchanged.
    """
    module = sys.modules["sqglab.spectral"]
    hits = misses = 0
    for name, obj in vars(module).items():
        if "symbol" in name and hasattr(obj, "cache_info"):
            info = obj.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def _flags_below(spans, parents, pred):
    """For each span: does it have an ancestor matching ``pred``?"""
    below = [False] * len(spans)
    hit = [pred(s[0]) for s in spans]
    for i, p in enumerate(parents):
        if p >= 0:
            below[i] = below[p] or hit[p]
    return below, hit


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def layer_metrics(timed, n_rounds: int, lemma_ids) -> dict:
    """Per-layer metrics from the spans of ``n_rounds`` timed rounds.

    Counts and seconds are per round; shares, percentiles and per-step or
    per-sample figures are over all rounds.
    """
    parents = [s[3] for s in timed]
    dur = [s[2] - s[1] for s in timed]
    child = [0.0] * len(timed)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    per = 1.0 / n_rounds

    def outer(names):
        """Total duration of spans in ``names`` not nested in another."""
        below, hit = _flags_below(timed, parents, lambda n: n in names)
        return sum(d for d, h, b in zip(dur, hit, below) if h and not b)

    m = {}
    fft = [i for i, s in enumerate(timed) if s[0].startswith("fft.")]
    m["spectral.fft_calls"] = len(fft) * per
    m["spectral.fft_s"] = outer({timed[i][0] for i in fft}) * per
    m["spectral.fft_mpoints"] = sum(timed[i][5] or 0 for i in fft) / 1e6 * per
    in_step, _ = _flags_below(timed, parents, lambda n: n == STEP_SPAN)
    steps = [i for i, s in enumerate(timed) if s[0] == STEP_SPAN]
    m["spectral.fft_per_step"] = (
        sum(1 for i in fft if in_step[i]) / len(steps) if steps else 0.0
    )
    fields = [s for s in timed if s[0] == FIELD_SPAN]
    copies = [s[5] for s in fields if s[5]]
    m["spectral.field_copies"] = len(copies) * per
    m["spectral.field_copy_mb"] = sum(copies) / 2**20 * per
    m["spectral.multiplier_s"] = outer(MULTIPLIER_SPANS) * per
    m["spectral.norm_s"] = outer(NORM_SPANS) * per
    m["spectral.io_s"] = outer(SPECTRAL_IO_SPANS) * per

    step_ms = sorted(dur[i] * 1e3 for i in steps)
    m["solver.step_calls"] = len(steps) * per
    m["solver.step_ms_p50"] = _quantile(step_ms, 0.5)
    m["solver.step_ms_p90"] = _quantile(step_ms, 0.9)
    m["solver.step_s"] = sum(step_ms) / 1e3 * per
    sim_total = outer({SIMULATE_SPAN})
    in_sim, _ = _flags_below(timed, parents, lambda n: n == SIMULATE_SPAN)
    sim_steps = sum(dur[i] for i in steps if in_sim[i])
    m["solver.diagnostics_s"] = (sim_total - sim_steps) * per
    m["solver.diagnostics_share"] = (
        (sim_total - sim_steps) / sim_total if sim_total > 0 else 0.0
    )

    besov = sorted(dur[i] * 1e3 for i, s in enumerate(timed) if s[0] == BESOV_SPAN)
    m["dyadic.besov_calls"] = len(besov) * per
    m["dyadic.besov_ms_p50"] = _quantile(besov, 0.5)
    m["dyadic.besov_s"] = outer({BESOV_SPAN}) * per
    m["dyadic.transport_s"] = outer(TRANSPORT_SPANS) * per

    draws = {s[0] for s in timed
             if s[0].startswith("sampling.") and s[0].count(".") == 1}
    below_draw, hit_draw = _flags_below(timed, parents, lambda n: n in draws)
    m["sampling.draws"] = sum(1 for h, b in zip(hit_draw, below_draw) if h and not b) * per
    m["sampling.draw_s"] = outer(draws) * per

    per_lemma = {lemma: [0.0, 0] for lemma in lemma_ids}
    for i, s in enumerate(timed):
        if s[0].startswith("inequalities.") and s[5]:
            lemma, n = s[5].rsplit(":", 1)
            if lemma in per_lemma:
                per_lemma[lemma][0] += dur[i]
                per_lemma[lemma][1] += int(n)
    for lemma, (total, n) in per_lemma.items():
        m[f"inequalities.{lemma}.ms_per_sample"] = total * 1e3 / n if n else 0.0

    iter_total = outer(ITERATE_SPANS)
    m["iterates.galerkin_s"] = outer({"iterates.galerkin_sequence"}) * per
    m["iterates.picard_s"] = outer({"iterates.picard_besov_sequence"}) * per
    in_iter, _ = _flags_below(timed, parents, lambda n: n in ITERATE_SPANS)
    below_norm, hit_norm = _flags_below(timed, parents,
                                        lambda n: n in ITERATE_NORM_SPANS)
    iter_steps = sum(dur[i] for i in steps if in_iter[i])
    iter_norms = sum(d for d, h, b, it in zip(dur, hit_norm, below_norm, in_iter)
                     if h and not b and it)
    m["iterates.step_share"] = iter_steps / iter_total if iter_total > 0 else 0.0
    m["iterates.norm_share"] = iter_norms / iter_total if iter_total > 0 else 0.0

    m["cli.io_s"] = outer(CLI_IO_SPANS) * per

    layer_self = {}
    for s, st in zip(timed, self_time):
        layer = LAYERS.get(s[0].split(".", 1)[0])
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + st
    for layer in ("spectral", "dyadic", "sampling", "inequalities", "solver",
                  "iterates", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per
    m["trace.spans"] = len(timed) * per
    return m
