"""Span tracer for the traced benchmark run.

The wrappers are installed from the benchmark's side, around the public
functions that form each layer's boundary, on every module of the package
that binds the function's name (and in `suites.SUITES`), so the package
source is never edited.  Spans are kept in memory as (name, start, end,
parent) columns and written out when the run ends; a span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.under: Counter = Counter()  # (ancestor span name, key) -> amount

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def add_under_ancestors(self, key: str, amount: int) -> None:
        """Credit `amount` to every distinct span name on the open stack."""
        for nid in {self.name[i] for i in self.stack[1:]}:
            self.under[(self.names[nid], key)] += amount

    def wrap(self, span: str, fn, on_return=None):
        nid = self.name_id(span)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()
            if on_return is not None:
                on_return(tr, args, kwargs, result)
            return result

        return traced

    # -- derived figures -----------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, dur, dur - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# -- what gets wrapped ---------------------------------------------------------


def _phase_terms(tr, args, kwargs, result):
    terms = int(np.asarray(args[0]).size)
    tr.counts["charsum.phase_sum.terms"] += terms
    tr.add_under_ancestors("terms", terms)


def _budget(tr, args, kwargs, result):
    from locquad.charsum import TERM_BUDGET

    tr.peak("charsum.budget_peak", args[0] / TERM_BUDGET)


def _gauss_level(tr, args, kwargs, result):
    if result.stabilized_at is not None:
        tr.peak("weil.gauss_level_max", result.stabilized_at)


def _c_constant_matrices(tr, args, kwargs, result):
    tr.counts["symsign.matrices"] += result.matrices_checked


def _orbit_matrices(tr, args, kwargs, result):
    from locquad.places import square_class_reps

    n, _, place = args[:3]
    tr.counts["symsign.matrices"] += len(square_class_reps(place)) ** n


def _mc_samples(tr, args, kwargs, result):
    tr.counts["tate.mc.samples"] += result.samples
    tr.counts["tate.mc.dropped"] += result.dropped


# (module, attribute, span name, hook); "Class.method" patches the class.
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("places", "hilbert_symbol", "places.hilbert_symbol", None),
    ("places", "hilbert_symbol_oracle", "places.hilbert_symbol_oracle", None),
    ("places", "square_class", "places.square_class", None),
    ("places", "Place.parse", "places.place_parse", None),
    ("forms", "QuadraticForm.hasse", "forms.hasse", None),
    ("forms", "diagonalize", "forms.diagonalize", None),
    ("symsign", "c_constant", "symsign.c_constant", _c_constant_matrices),
    ("symsign", "sl_orbit_count", "symsign.sl_orbit_count", _orbit_matrices),
    ("charsum", "phase_sum", "charsum.phase_sum", _phase_terms),
    ("charsum", "padic_poly_sum", "charsum.padic_poly_sum", None),
    ("charsum", "poly_eval_mod", "charsum.poly_eval_mod", None),
    ("charsum", "check_budget", "charsum.check_budget", _budget),
    ("weil", "gamma_rank1", "weil.gamma_rank1", _gauss_level),
    ("weil", "gamma_form", "weil.gamma_form", None),
    ("weil", "verify_weil_equation", "weil.verify_weil_equation", None),
    ("stationary", "exact_oscillatory_integral", "stationary.exact_oscillatory_integral", None),
    ("stationary", "critical_points", "stationary.critical_points", None),
    ("tate", "padic_zeta", "tate.padic_zeta", None),
    ("tate", "real_zeta", "tate.real_zeta", None),
    ("tate", "padic_sym3_mc_check", "tate.mc", _mc_samples),
    ("shintani", "v_entry", "shintani.v_entry", None),
]


def _rebind(orig, new) -> None:
    """Point every binding of `orig` in the package's modules at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "locquad" or modname.startswith("locquad.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def install(tr: Tracer) -> None:
    for module, attr, span, hook in WRAPPED:
        mod = importlib.import_module(f"locquad.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tr.wrap(span, raw.__func__, hook)))
            else:
                setattr(cls, meth, tr.wrap(span, raw, hook))
            continue
        orig = getattr(mod, attr)
        _rebind(orig, tr.wrap(span, orig, hook))

    cli = importlib.import_module("locquad.cli")
    for key, value in list(vars(cli).items()):
        if key.startswith("_cmd_"):
            setattr(cli, key, tr.wrap("cli.handler", value))

    suites = importlib.import_module("locquad.suites")
    for suite, fn in list(suites.SUITES.items()):
        wrapped = tr.wrap(f"suites.{suite}", fn)
        suites.SUITES[suite] = wrapped
        _rebind(fn, wrapped)


def layer_metrics(tr: Tracer, query_kinds: list[str], kinds: list[str], suite_names: list[str]) -> dict:
    """Per-layer figures from the recorded spans, as {name: (value, unit)}.

    `query_kinds[k]` is the request kind of the k-th top-level `cli.main`
    span; `kinds` and `suite_names` fix which per-kind and per-suite names
    are reported, with 0 for those this workload never reaches.
    """
    name, parent, dur, self_t = tr.arrays()
    ids = {n: i for i, n in enumerate(tr.names)}
    width = len(tr.names)
    calls_by = np.bincount(name, minlength=width)
    self_by = np.bincount(name, weights=self_t, minlength=width)
    incl_by = np.bincount(name, weights=dur, minlength=width)

    def calls(span):
        return int(calls_by[ids[span]]) if span in ids else 0

    def self_s(span):
        return float(self_by[ids[span]]) if span in ids else 0.0

    def incl_s(span):
        return float(incl_by[ids[span]]) if span in ids else 0.0

    out = {}

    main_id, handler_id = ids.get("cli.main", -1), ids.get("cli.handler", -1)
    handlers = np.flatnonzero(name == handler_id)
    handlers = handlers[name[parent[handlers]] == main_id]
    parse = np.frombuffer(tr.start, dtype=np.float64)[handlers] - np.frombuffer(tr.start, dtype=np.float64)[parent[handlers]]
    out["cli.parse_ms"] = (float(np.median(parse)) * 1e3 if parse.size else 0.0, "ms")

    top_main = np.flatnonzero((name == main_id) & (parent < 0))
    if len(top_main) != len(query_kinds):
        raise RuntimeError(f"{len(top_main)} top-level cli.main spans for {len(query_kinds)} requests")
    by_kind: dict[str, list[float]] = {k: [] for k in kinds}
    for idx, kind in zip(top_main, query_kinds):
        by_kind.setdefault(kind, []).append(float(dur[idx]))
    for kind in kinds:
        vals = by_kind[kind]
        out[f"cli.query.{kind}.p50_ms"] = (float(np.median(vals)) * 1e3 if vals else 0.0, "ms")
    out["cli.query.hasse.max_ms"] = (max(by_kind["hasse"], default=0.0) * 1e3, "ms")

    for suite in suite_names:
        out[f"suites.{suite}.s"] = (incl_s(f"suites.{suite}"), "s")

    hs = "places.hilbert_symbol"
    out[f"{hs}.calls"] = (calls(hs), "count")
    out[f"{hs}.self_s"] = (self_s(hs), "s")
    out[f"{hs}.per_s"] = (calls(hs) / incl_s(hs) if incl_s(hs) else 0.0, "1/s")
    for span in ("places.square_class", "places.hilbert_symbol_oracle"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.self_s"] = (self_s(span), "s")
    out["places.place_parse.self_s"] = (self_s("places.place_parse"), "s")

    hasse_id = ids.get("forms.hasse", -1)
    hs_spans = np.flatnonzero(name == ids.get(hs, -1))
    symbols_in_hasse = int(np.count_nonzero(name[parent[hs_spans]] == hasse_id)) if hs_spans.size else 0
    out["forms.hasse.calls"] = (calls("forms.hasse"), "count")
    out["forms.hasse.self_s"] = (self_s("forms.hasse"), "s")
    out["forms.hasse.symbols_per_call"] = (
        symbols_in_hasse / calls("forms.hasse") if calls("forms.hasse") else 0.0, "count")
    out["forms.diagonalize.calls"] = (calls("forms.diagonalize"), "count")
    out["forms.diagonalize.self_s"] = (self_s("forms.diagonalize"), "s")

    out["symsign.c_constant.self_s"] = (self_s("symsign.c_constant"), "s")
    out["symsign.sl_orbit_count.self_s"] = (self_s("symsign.sl_orbit_count"), "s")
    out["symsign.matrices"] = (tr.counts["symsign.matrices"], "count")

    terms = tr.counts["charsum.phase_sum.terms"]
    charsum_self = sum(self_s(s) for s in tr.names if s.startswith("charsum."))
    out["charsum.phase_sum.calls"] = (calls("charsum.phase_sum"), "count")
    out["charsum.phase_sum.terms"] = (terms, "count")
    out["charsum.phase_sum.self_s"] = (self_s("charsum.phase_sum"), "s")
    out["charsum.padic_poly_sum.calls"] = (calls("charsum.padic_poly_sum"), "count")
    out["charsum.padic_poly_sum.self_s"] = (self_s("charsum.padic_poly_sum"), "s")
    out["charsum.ns_per_term"] = (charsum_self / terms * 1e9 if terms else 0.0, "ns")
    out["charsum.budget_peak"] = (tr.peaks.get("charsum.budget_peak", 0.0), "ratio")

    g1 = calls("weil.gamma_rank1")
    out["weil.gamma_rank1.calls"] = (g1, "count")
    out["weil.gamma_rank1.self_s"] = (self_s("weil.gamma_rank1"), "s")
    out["weil.terms_per_gamma"] = (tr.under[("weil.gamma_rank1", "terms")] / g1 if g1 else 0.0, "count")
    out["weil.gauss_level_max"] = (tr.peaks.get("weil.gauss_level_max", 0), "count")
    out["weil.gamma_form.calls"] = (calls("weil.gamma_form"), "count")
    out["weil.verify_weil_equation.self_s"] = (self_s("weil.verify_weil_equation"), "s")

    eoi = "stationary.exact_oscillatory_integral"
    out[f"{eoi}.calls"] = (calls(eoi), "count")
    out[f"{eoi}.self_s"] = (self_s(eoi), "s")
    out["stationary.critical_points.self_s"] = (self_s("stationary.critical_points"), "s")

    for span in ("tate.padic_zeta", "tate.real_zeta"):
        out[f"{span}.calls"] = (calls(span), "count")
        out[f"{span}.self_s"] = (self_s(span), "s")
    mc_s = incl_s("tate.mc")
    out["tate.mc.self_s"] = (self_s("tate.mc"), "s")
    out["tate.mc.samples_per_s"] = (tr.counts["tate.mc.samples"] / mc_s if mc_s else 0.0, "1/s")
    out["tate.mc.dropped"] = (tr.counts["tate.mc.dropped"], "count")

    out["shintani.v_entry.calls"] = (calls("shintani.v_entry"), "count")
    out["shintani.v_entry.self_s"] = (self_s("shintani.v_entry"), "s")

    out["trace.spans"] = (len(dur), "count")
    return out
