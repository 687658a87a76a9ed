"""Span recording for the traced benchmark run.

A :class:`Tracer` keeps spans (name, start, end, parent, work count) in
memory and writes them out once, when the run ends.  :func:`install`
attaches it to possfit from the outside: it replaces each layer's public
functions with timing wrappers, in every possfit module that holds a
reference to them, so no file of the package changes and only the process
that calls :func:`install` is traced.

Spans opened on a worker thread with nothing open on that thread take as
parent the innermost span open on the main thread, which is the study or
grid that started the workers.  Self time is a span's duration minus the
union of its children's intervals, so overlapping children running on
several threads are not subtracted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from quantiles import median


class Tracer:
    def __init__(self):
        # rows of [id, name, start, end, parent id or None, work count]
        self.spans: list = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_top = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, **counts) -> None:
        with self._lock:
            self.counts.update(counts)

    def record(self, name: str, start: float, end: float, parent=None, n=1) -> int:
        sid = next(self._ids)
        self.spans.append([sid, name, start, end, parent, n])
        return sid

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as a span called ``name``.

        ``after(args, kwargs, result, error)`` runs once the call returns or
        raises and may return the span's work count.  A call made while a
        span of the same name is innermost on this thread is passed through
        untimed, so a layer wrapping itself is counted once.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            on_main = threading.current_thread() is threading.main_thread()
            parent = stack[-1][0] if stack else self._main_top
            sid = next(self._ids)
            stack.append((sid, name))
            if on_main:
                self._main_top = sid
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if on_main:
                    self._main_top = stack[-1][0] if stack else None
                n = after(args, kwargs, result, error) if after else None
                self.spans.append([sid, name, start, end, parent, 1 if n is None else n])

        return traced

    def dump(self, path) -> None:
        """Write spans and counts as arrays (``numpy.load`` reads them back)."""
        rows = sorted(self.spans)
        names = sorted({row[1] for row in rows})
        code = {name: i for i, name in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([code[row[1]] for row in rows], dtype=np.int64),
            id=np.array([row[0] for row in rows], dtype=np.int64),
            start=np.array([row[2] for row in rows], dtype=float),
            end=np.array([row[3] for row in rows], dtype=float),
            parent=np.array([-1 if row[4] is None else row[4] for row in rows], dtype=np.int64),
            n=np.array([row[5] for row in rows], dtype=np.int64),
            counts=np.array(json.dumps(dict(self.counts))),
        )


# ---------------------------------------------------------------------------
# attaching the tracer to possfit's layers
# ---------------------------------------------------------------------------

MODEL_FACTORIES = (
    "binomial", "bvn_correlation", "gamma_shape_scale", "gamma_mean_shape",
    "lognormal", "lognormal_censored", "normal_means", "normal_means_lasso",
    "poisson_loglinear", "logistic_regression", "multinomial", "log_reparam",
)


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Point every possfit module attribute that is ``original`` at the
    replacement, so ``from .x import f`` copies are covered too."""
    for modname, module in list(sys.modules.items()):
        if modname != "possfit" and not modname.startswith("possfit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _bound_arg(fn, name, args, kwargs, default):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name, default)
    except TypeError:
        return default


def install(tracer: Tracer):
    """Wrap the public entry points of possfit's eight layers.

    Returns a function that puts the original entry points back.
    """
    import possfit.calibration as calibration
    import possfit.cli as cli
    import possfit.contours as contours
    import possfit.families as families
    import possfit.inference as inference
    import possfit.models as models
    import possfit.nuisance as nuisance
    import possfit.sa as sa

    undo: list = []

    def patch(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after), undo)

    # models: every simulator a factory hands out, and the observed-data fits
    def sim_counter(key):
        def after(args, kwargs, result, error):
            m = int(args[2])
            tracer.add(**{f"{key}_calls": 1, f"{key}_datasets": m})
            if result is not None:
                tracer.add(**{f"{key}_nan": int(np.isnan(np.asarray(result, dtype=float)).sum())})
            return m

        return after

    def traced_model(spec, span, key):
        if spec.sim_log_rel_lik is None:
            return spec
        sim = tracer.wrap(span, spec.sim_log_rel_lik, sim_counter(key))
        return dataclasses.replace(spec, sim_log_rel_lik=sim)

    for attr in MODEL_FACTORIES:
        factory = getattr(models, attr)

        @functools.wraps(factory)
        def built(*args, _factory=factory, **kwargs):
            return traced_model(_factory(*args, **kwargs), "models.sim", "sim")

        _replace_everywhere(factory, built, undo)
    patch(models, "mle_and_information", "models.mle")
    patch(models, "log_relative_likelihood", "models.mle")

    # contours: every evaluation of every contour object, and whole grids
    def eval_points(args, kwargs, result, error):
        n = 1 if np.ndim(args[0]) <= 1 else int(np.shape(args[0])[0])
        tracer.add(contour_points=n)
        return n

    original_init = contours.PossibilityContour.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.evaluate = tracer.wrap("contours.eval", self.evaluate, eval_points)
        if self.evaluate_batch is not None:
            self.evaluate_batch = tracer.wrap("contours.eval", self.evaluate_batch, eval_points)

    contours.PossibilityContour.__init__ = init
    undo.append((contours.PossibilityContour, "__init__", original_init))
    patch(contours, "grid_eval", "contours.grid")

    for attr in ("sample", "boundary_points", "gaussian_contour"):
        patch(families, attr, "families")

    def fit_done(args, kwargs, result, error):
        if result is not None:
            trace = result[1]
            tracer.add(
                sa_iterations=len(trace.ts),
                sa_converged=int(trace.reason == "converged"),
                sa_failures=int(trace.failures),
            )

    for attr in ("fit_scalar", "fit_vector", "fit_dirichlet",
                 "fit_scalar_anchored", "fit_vector_anchored"):
        patch(sa, attr, "sa.fit", fit_done)

    def probability_done(args, kwargs, result, error):
        method = getattr(result, "method", "")
        tracer.add(inference_exact=int("exact" in method),
                   inference_results=int(result is not None))

    for attr in ("upper_probability", "lower_probability"):
        patch(inference, attr, "inference", probability_done)
    for attr in ("marginal_contour", "choquet_upper_expectation"):
        patch(inference, attr, "inference")

    patch(nuisance, "kaplan_meier_swapped", "nuisance.km")
    censored_model = nuisance.censored_model

    @functools.wraps(censored_model)
    def traced_censored_model(*args, **kwargs):
        return traced_model(censored_model(*args, **kwargs), "nuisance.cens_sim", "cens")

    _replace_everywhere(censored_model, traced_censored_model, undo)

    def study_done(fn):
        def after(args, kwargs, result, error):
            reps = int(args[0].reps)
            if result is not None:
                failed = len(result.failures)
            else:  # StudyError carries the failures; anything else lost them all
                failed = len(getattr(error, "failures", ())) or reps
            timings = np.asarray(getattr(result, "timings", []), dtype=float)
            tracer.add(cal_reps=reps, cal_failed=failed,
                       cal_rep_busy_s=float(np.nansum(timings)))
            return int(_bound_arg(fn, "threads", args, kwargs, 1) or 1)

        return after

    for attr in ("validity_study", "hypothesis_calibration"):
        fn = getattr(calibration, attr)
        patch(calibration, attr, "calibration.study", study_done(fn))

    patch(cli, "main", "cli.main")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, windows, ops: int) -> dict:
    """Per-layer figures from the recorded spans and counts.

    ``windows`` are the (start, end) intervals of the timed operations and
    ``ops`` the number attempted; counts and busy times are reported per
    operation so runs of different length compare.
    """
    spans = tracer.spans
    c = tracer.counts
    by_id = {row[0]: row for row in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for row in spans:
        by_name[row[1]].append(row)
        if row[4] is not None:
            children[row[4]].append((row[2], row[3]))

    def self_time(row) -> float:
        sid, _, start, end, _, _ = row
        inner = [(max(lo, start), min(hi, end)) for lo, hi in children[sid]]
        return (end - start) - _union_length([iv for iv in inner if iv[1] > iv[0]])

    def rows(name):
        return by_name.get(name, [])

    def busy(name) -> float:
        return sum(row[3] - row[2] for row in rows(name))

    def under(row, ancestor) -> bool:
        parent = row[4]
        while parent is not None:
            up = by_id.get(parent)
            if up is None:
                return False
            if up[1] == ancestor:
                return True
            parent = up[4]
        return False

    per = 1.0 / max(ops, 1)
    ratio = lambda a, b: a / b if b else 0.0
    # a study span's work count is its thread count
    threads_x_wall = sum((row[3] - row[2]) * row[5] for row in rows("calibration.study"))
    sa_evals = sum(row[5] for row in rows("contours.eval") if under(row, "sa.fit"))
    imports = [row[3] - row[2] for row in rows("cli.import")]
    roots = [(row[2], row[3]) for row in spans if row[4] is None]
    covered = sum(
        _union_length([(max(lo, a), min(hi, b)) for lo, hi in roots if min(hi, b) > max(lo, a)])
        for a, b in windows
    )
    timed = sum(b - a for a, b in windows)
    return {
        "models.sim_calls": ("count/op", c["sim_calls"] * per),
        "models.sim_datasets": ("count/op", c["sim_datasets"] * per),
        "models.sim_busy_s": ("s/op", busy("models.sim") * per),
        "models.us_per_dataset": ("us", 1e6 * ratio(busy("models.sim"), c["sim_datasets"])),
        "models.sim_nan_frac": ("ratio", ratio(c["sim_nan"], c["sim_datasets"])),
        "models.mle_calls": ("count/op", len(rows("models.mle")) * per),
        "models.mle_busy_s": ("s/op", busy("models.mle") * per),
        "contours.evals": ("count/op", c["contour_points"] * per),
        "contours.self_s": ("s/op", sum(self_time(r) for r in rows("contours.eval")) * per),
        "contours.grid_busy_s": ("s/op", busy("contours.grid") * per),
        "families.calls": ("count/op", len(rows("families")) * per),
        "families.busy_s": ("s/op", busy("families") * per),
        "sa.fits": ("count/op", len(rows("sa.fit")) * per),
        "sa.iterations": ("count/op", c["sa_iterations"] * per),
        "sa.evals_per_iter": ("count", ratio(sa_evals, c["sa_iterations"])),
        "sa.self_s": ("s/op", sum(self_time(r) for r in rows("sa.fit")) * per),
        "sa.converged_frac": ("ratio", ratio(c["sa_converged"], len(rows("sa.fit")))),
        "sa.failures": ("count/op", c["sa_failures"] * per),
        "inference.calls": ("count/op", len(rows("inference")) * per),
        "inference.busy_s": ("s/op", busy("inference") * per),
        "inference.exact_frac": ("ratio", ratio(c["inference_exact"], c["inference_results"])),
        "nuisance.km_busy_s": ("s/op", busy("nuisance.km") * per),
        "nuisance.cens_sim_busy_s": ("s/op", busy("nuisance.cens_sim") * per),
        "nuisance.cens_datasets": ("count/op", c["cens_datasets"] * per),
        "calibration.reps": ("count/op", c["cal_reps"] * per),
        "calibration.failed": ("count/op", c["cal_failed"] * per),
        "calibration.rep_busy_s": ("s/op", c["cal_rep_busy_s"] * per),
        "calibration.parallel_eff": ("ratio", ratio(c["cal_rep_busy_s"], threads_x_wall)),
        "cli.import_s": ("s", median(imports) if imports else 0.0),
        "cli.self_s": ("s/op", sum(self_time(r) for r in rows("cli.main")) * per),
        "cli.bytes_written": ("B/op", c["cli_bytes"] * per),
        "trace.coverage": ("ratio", ratio(covered, timed)),
        "trace.spans": ("count/op", len(spans) * per),
    }
