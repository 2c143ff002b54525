"""Spans around calls into the sturmjsr layers, installed from outside the
program.

``install`` replaces every binding of each traced function -- module
globals, ``from ... import`` copies in other modules, and class attributes
such as ``QuadExt.__rmul__`` that alias ``__mul__`` -- with a wrapper that
records a span.  Self time is a span's duration minus the time of the spans
it encloses.  Staircase pool workers are forked from the traced process, so
they inherit the wrappers; each worker notices its new pid, starts an empty
record, and rewrites ``<out_dir>/worker-<pid>.json`` whenever its outermost
span closes, which happens before the task's result is sent back.
"""

from __future__ import annotations

import functools
import json
import os
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.on = False
        self.stack: list[list] = []  # [name, start, time of enclosed spans]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.active: dict[str, int] = {}  # name -> open spans of that name
        self.top_total = 0.0  # summed duration of outermost spans

    # -- recording ----------------------------------------------------------

    def _check_process(self) -> None:
        if os.getpid() != self.pid:  # forked pool worker: start afresh
            self.pid = os.getpid()
            self.stack, self.stats, self.counters = [], {}, {}
            self.active, self.top_total = {}, 0.0

    def enter(self, name: str, count_call: bool = True) -> None:
        self._check_process()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0]
        if count_call:
            st[0] += 1
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append([name, _clock(), 0.0])

    def leave(self) -> None:
        name, start, inner = self.stack.pop()
        dur = _clock() - start
        self.stats[name][1] += dur - inner
        self.active[name] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_total += dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, float("-inf")):
            self.counters[key] = value

    def flush_if_worker(self) -> None:
        if self.stack or self.pid == self.root_pid:
            return
        path = os.path.join(self.out_dir, f"worker-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"stats": self.stats, "counters": self.counters}, fh)
        os.replace(tmp, path)

    # -- results ------------------------------------------------------------

    def worker_records(self) -> list[dict]:
        out = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.out_dir, name)) as fh:
                    out.append(json.load(fh))
        return out


# ---------------------------------------------------------------------------
# wrappers


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if after is not None:
            after(tracer, args, kwargs, result)
        tracer.flush_if_worker()
        return result

    return wrapper


def _generator_span(tracer: Tracer, name: str, fn):
    """Spans around each step of a generator; counts the items yielded."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            yield from fn(*args, **kwargs)
            return
        tracer.enter(name)
        tracer.leave()
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name, count_call=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.leave()
            tracer.count(name + ".yielded")
            yield item

    return wrapper


def _rebind(modules, classes, old, new) -> int:
    """Replace every binding of ``old`` in the given namespaces."""
    n = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
                n += 1
    for cls in classes:
        for key, val in list(vars(cls).items()):
            if val is old:
                setattr(cls, key, new)
                n += 1
    return n


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced functions of every sturmjsr module; returns the span
    names installed.  Raises if a function has no binding left to wrap."""
    import multiprocessing.pool
    import sys

    from sturmjsr import (
        cli, contfrac, family, irrational_preimage, linalg2, oracle,
        precision, rational_preimage, staircase, words,
    )

    modules = [m for k, m in sorted(sys.modules.items()) if k == "sturmjsr" or k.startswith("sturmjsr.")]
    classes = [linalg2.QuadExt, linalg2.Mat2, family.MatrixFamily]

    def letters(tr, args, kwargs, result):
        tr.count("family.product.letters", len(args[1]))

    def interval_in_ratio(tr, args, kwargs, result):
        if tr.active.get("staircase.ratio_at"):
            tr.count("staircase.ratio_at.intervals")

    def seq_top(tr, args, kwargs, result):
        tr.maximum("irrational_preimage.rho_sequence.max_q", result.qs[-1])
        tr.counters["_last_top"] = result.top

    def alpha_terms(tr, args, kwargs, result):
        if not tr.active.get("irrational_preimage.alpha_for_irrational"):
            tr.count("irrational_preimage.terms_built", tr.counters.pop("_last_top", 0))
            tr.count("irrational_preimage.terms_used", result.terms_used)

    targets = [
        ("cli.main", cli.main, None),
        ("staircase.build_staircase", staircase.build_staircase, None),
        ("staircase.render", staircase.render, None),
        ("staircase.gap_diagnostics", staircase.gap_diagnostics, None),
        ("staircase.ratio_at", staircase.ratio_at, None),
        ("rational_preimage.preimage_interval", rational_preimage.preimage_interval, interval_in_ratio),
        ("rational_preimage.preimage_zero", rational_preimage.preimage_zero, None),
        ("rational_preimage.preimage_one", rational_preimage.preimage_one, None),
        ("rational_preimage.varrho_on_interval", rational_preimage.varrho_on_interval, None),
        ("irrational_preimage.alpha_for_irrational", irrational_preimage.alpha_for_irrational, alpha_terms),
        ("irrational_preimage.rho_sequence", irrational_preimage.rho_sequence, seq_top),
        ("irrational_preimage.rigor_certificate", irrational_preimage.rigor_certificate, None),
        ("oracle.jsr_bounds", oracle.jsr_bounds, None),
        ("oracle.check_condition_v", oracle.check_condition_v, None),
        ("family.resolve_family", family.resolve_family, None),
        ("family.check_technical_hypotheses", family.check_technical_hypotheses, None),
        ("family.product", family.MatrixFamily.product, letters),
        ("words.standard_pair_for", words.standard_pair_for, None),
        ("words.is_cyclically_balanced", words.is_cyclically_balanced, None),
        ("contfrac.cf_of_rational", contfrac.cf_of_rational, None),
        ("contfrac.cf_of_quadratic", contfrac.cf_of_quadratic, None),
        ("contfrac.cf_of_real", contfrac.cf_of_real, None),
        ("precision.mpf_from_fraction", precision.mpf_from_fraction, None),
        ("precision.fraction_from_mpf", precision.fraction_from_mpf, None),
        ("linalg2.QuadExt.mul", linalg2.QuadExt.__mul__, None),
        ("linalg2.QuadExt.pow", linalg2.QuadExt.__pow__, None),
        ("linalg2.QuadExt.inverse", linalg2.QuadExt.inverse, None),
        ("linalg2.QuadExt.to_mpf", linalg2.QuadExt.to_mpf, None),
        ("linalg2.Mat2.matmul", linalg2.Mat2.__matmul__, None),
        ("linalg2.Mat2.pow", linalg2.Mat2.__pow__, None),
        ("linalg2.Mat2.to_mpf", linalg2.Mat2.to_mpf, None),
        ("linalg2.squarefree_split", linalg2.squarefree_split, None),
        ("linalg2.factorint", linalg2.factorint, None),
        ("linalg2.spectral_radius", linalg2.spectral_radius, None),
        ("linalg2.perron_projection", linalg2.perron_projection, None),
        ("linalg2.rank_one_spectral_radius", linalg2.rank_one_spectral_radius, None),
        ("linalg2.quad_compare", linalg2.quad_compare, None),
    ]
    names = []
    for name, fn, after in targets:
        if _rebind(modules, classes, fn, _span(tracer, name, fn, after)) == 0:
            raise RuntimeError(f"no binding found for {name}")
        names.append(name)
    gen = words.necklaces
    if _rebind(modules, classes, gen, _generator_span(tracer, "words.necklaces", gen)) == 0:
        raise RuntimeError("no binding found for words.necklaces")
    names.append("words.necklaces")
    pool_map = multiprocessing.pool.Pool.map
    multiprocessing.pool.Pool.map = _span(tracer, "staircase.pool_wait", pool_map)
    names.append("staircase.pool_wait")
    return names
