"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each moorev1 layer.  A
function is replaced under every name that binds it: `from .x import f`
copies f into the importing module, so patching only `x.f` would miss
those callers.  Methods are replaced on their class.

A timed wrapper records a span (id, parent id, name, op id, start, end)
and its self time: the span's duration minus the part its child spans
cover.  A child covers its whole wrapper, bookkeeping included, so the
tracer's own cost stays out of its parent's self time.  The hot kernels
(`mono_mul`, `Polynomial.__mul__`, `Polynomial.mul_monomial`) are only
counted: a timed wrapper would dominate what it measures.

Calls, distinct inputs and the other counts are gathered per round and
must repeat exactly between runs of the same code.  Distinct inputs are
counted within one op: each op builds its own Workbench, so only a repeat
inside an op is work the program could share.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# The Workbench methods that make up `verify` and `decompose`.
WORKBENCH_REPORTS = (
    "verify_differentials_square_to_zero",
    "verify_e3_presentation",
    "verify_w_grading",
    "verify_module_isomorphisms",
    "verify_e4_claims",
    "verify_e4_dimensions",
    "survival_report",
    "mahowald_decomposition_check",
)

LINALG = ("rank", "kernel_basis", "column_space_basis", "subquotient_basis")

# Every per-layer metric: (name, unit).  `<span>.calls`, `<span>.self_s`
# and `<span>.distinct_ratio` come from the wrapper; the rest from stats.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gf2poly.enumerate_window.calls", "count"),
    ("gf2poly.enumerate_window.self_s", "s"),
    ("gf2poly.enumerate_window.distinct_ratio", "ratio"),
    ("gf2poly.enumerate_window.monomials", "count"),
    ("gf2poly.mono_mul.calls", "count"),
    ("gf2poly.Polynomial.__mul__.calls", "count"),
    ("gf2poly.Polynomial.mul_monomial.calls", "count"),
    ("dga.PagePresentation.apply_monomial.calls", "count"),
    ("dga.PagePresentation.apply_monomial.distinct_ratio", "ratio"),
    ("dga.PagePresentation.apply_monomial.self_s", "s"),
    ("dga.homology_page.self_s", "s"),
    ("dga.homology_page.degrees", "count"),
    ("dga.verify_d_squared.self_s", "s"),
    ("dga.verify_d_squared.checked", "count"),
    *((f"gf2linalg.{fn}.{stat}", unit) for fn in LINALG for stat, unit in (("calls", "count"), ("self_s", "s"))),
    ("gf2linalg.matrix_cells", "count"),
    ("cobar.ext_dimensions.self_s", "s"),
    ("cobar.CobarComplex.matrix.calls", "count"),
    ("cobar.CobarComplex.matrix.self_s", "s"),
    ("cobar.verify_cobar_d_squared.self_s", "s"),
    ("cobar.basis_cells", "count"),
    ("mahowald.zbh_bases.calls", "count"),
    ("mahowald.zbh_bases.self_s", "s"),
    ("mahowald.zbh_bases.degrees", "count"),
    *((f"specseq.Workbench.{m}.self_s", "s") for m in WORKBENCH_REPORTS),
    ("specseq.Workbench.induced_d3m_monomial.calls", "count"),
    ("specseq.Workbench.induced_d3m_monomial.distinct_ratio", "ratio"),
    ("specseq.Workbench.induced_d3m_monomial.self_s", "s"),
    ("chart.page_chart.self_s", "s"),
    ("chart.decomposition_chart.self_s", "s"),
    ("chart.render.self_s", "s"),
    ("chart.render.bytes", "bytes"),
    ("cli.run.self_s", "s"),
    ("cli.cache_hits", "count"),
    ("cli.cache_misses", "count"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_pct", "%"),
)

Stat = Callable[..., List[Tuple[str, int]]]


def _matrix_cells(rows, ncols=None) -> List[Tuple[str, int]]:
    if ncols is None:
        ncols = max((r.bit_length() for r in rows), default=0)
    return [("gf2linalg.matrix_cells", len(rows) * ncols)]


def _window_monomials(result, alphabet, window) -> List[Tuple[str, int]]:
    return [("gf2poly.enumerate_window.monomials", sum(len(result.basis(d)) for d in result.degrees()))]


def _zbh_degrees(result, p_max, q_max, workers=1) -> List[Tuple[str, int]]:
    n = sum(1 for p in range(p_max + 1) for q in range(q_max + 1) if result.basis(p, q))
    return [("mahowald.zbh_bases.degrees", n)]


def _cobar_cells(result, cx, s, t) -> List[Tuple[str, int]]:
    return [("cobar.basis_cells", len(cx.basis(s, t)))]


class Tracer:
    """Spans and counts at moorev1's layer boundaries, kept in memory."""

    def __init__(self):
        self.op = 0  # the harness sets one id per op; spans carry it
        # six numbers per span: id, parent id, name index, op id, start, end.
        # A flat array is invisible to the garbage collector; a list of
        # tuples made every collection walk all spans and slowed the run.
        self.spans = array("d")
        self._names: Dict[str, int] = {}
        self.keep_spans = True
        self._next_id = 1
        self._patches: List[Callable[[], None]] = []
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._stack = [[0, 0.0]]  # root frame: span id 0

    def reset(self) -> None:
        """Start a new round of counts and self times."""
        self.counts.clear()
        self.self_s.clear()
        self.distinct.clear()
        self._stack[1:] = []

    # ---- wrappers ----

    def _timed(self, name: str, fn, key=None, stat: Optional[Stat] = None):
        tr = self
        calls = name + ".calls"
        name_index = self._names.setdefault(name, len(self._names))

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            parent = tr._stack[-1]
            sid = tr._next_id
            tr._next_id += 1
            frame = [sid, 0.0]
            tr._stack.append(frame)
            tr.counts[calls] += 1
            if key is not None:
                tr.distinct[name].add(key(*args, **kwargs))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.self_s[name] += (t1 - t0) - frame[1]
                if tr.keep_spans:
                    tr.spans.extend((sid, parent[0], name_index, tr.op, t0, t1))
            if stat is not None:
                for stat_name, value in stat(result, *args, **kwargs):
                    tr.counts[stat_name] += value
            parent[1] += perf_counter() - enter
            return result

        return wrapper

    def _counted(self, name: str, fn, stat: Optional[Stat] = None):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if stat is not None:
                for stat_name, value in stat(*args, **kwargs):
                    counts[stat_name] += value
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation ----

    def _patch_function(self, module: str, name: str, wrap) -> None:
        """Replace moorev1.module.name under every binding in moorev1."""
        original = getattr(sys.modules[f"moorev1.{module}"], name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "moorev1" or mod_name.startswith("moorev1.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append(lambda m=mod, a=attr: setattr(m, a, original))

    def _patch_method(self, cls, name: str, wrap) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrap(original))
        self._patches.append(lambda: setattr(cls, name, original))

    def install(self) -> None:
        mods = {m: sys.modules[f"moorev1.{m}"] for m in ("gf2poly", "dga", "cobar", "specseq", "cli")}

        def fn(module, name, key=None, stat=None):
            self._patch_function(
                module, name, lambda f: self._timed(f"{module}.{name}", f, key, stat)
            )

        def method(module, cls_name, name, key=None, stat=None):
            cls = getattr(mods[module], cls_name)
            span = f"{module}.{cls_name}.{name}"
            self._patch_method(cls, name, lambda f: self._timed(span, f, key, stat))

        fn("gf2poly", "enumerate_window", key=lambda a, w: (self.op, a, w), stat=_window_monomials)
        method("dga", "PagePresentation", "apply_monomial", key=lambda pres, m: (self.op, id(pres), m))
        fn("dga", "homology_page", stat=lambda r, *a, **k: [("dga.homology_page.degrees", len(r.degrees()))])
        fn("dga", "verify_d_squared", stat=lambda r, *a, **k: [("dga.verify_d_squared.checked", r.checked)])
        for name in LINALG:
            cells = None if name == "subquotient_basis" else (lambda r, *a, **k: _matrix_cells(*a, **k))
            fn("gf2linalg", name, stat=cells)
        fn("cobar", "ext_dimensions")
        method("cobar", "CobarComplex", "matrix", stat=_cobar_cells)
        fn("cobar", "verify_cobar_d_squared")
        fn("mahowald", "zbh_bases", stat=_zbh_degrees)
        for name in WORKBENCH_REPORTS:
            method("specseq", "Workbench", name)
        method(
            "specseq", "Workbench", "induced_d3m_monomial", key=lambda wb, m: (self.op, id(wb), m)
        )
        for name in ("page_chart", "decomposition_chart"):
            fn("chart", name)
        fn("chart", "render", stat=lambda r, *a, **k: [("chart.render.bytes", len(r))])
        fn("cli", "run")

        # a dispatched command is a cache miss; a run that returns without
        # dispatching replays the cache (every benchmark op is valid)
        dispatch = mods["cli"]._DISPATCH
        for cmd, original in list(dispatch.items()):
            dispatch[cmd] = self._timed("cli.dispatch", original)
            self._patches.append(lambda c=cmd, f=original: dispatch.__setitem__(c, f))
        self._patch_function(
            "cli",
            "_atomic_write",
            lambda f: self._counted(
                "cli._atomic_write", f, stat=lambda path, data: [("cli.bytes_written", len(data))]
            ),
        )

        self._patch_function("gf2poly", "mono_mul", lambda f: self._counted("gf2poly.mono_mul", f))
        poly = mods["gf2poly"].Polynomial
        for name in ("__mul__", "mul_monomial"):
            self._patch_method(
                poly, name, lambda f, n=name: self._counted(f"gf2poly.Polynomial.{n}", f)
            )

    def uninstall(self) -> None:
        while self._patches:
            self._patches.pop()()

    # ---- results ----

    def round_metrics(self) -> Dict[str, float]:
        """Counts and self times of the round since the last reset."""
        out: Dict[str, float] = dict(self.counts)
        for name, seconds in self.self_s.items():
            out[name + ".self_s"] = seconds
        for name, inputs in self.distinct.items():
            out[name + ".distinct_ratio"] = len(inputs) / self.counts[name + ".calls"]
        out["cli.cache_misses"] = self.counts["cli.dispatch.calls"]
        out["cli.cache_hits"] = self.counts["cli.run.calls"] - self.counts["cli.dispatch.calls"]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent id, name, op id, start, end."""
        s = self.spans
        names = sorted(self._names, key=self._names.get)
        with open(path, "w", encoding="utf-8") as f:
            for i in range(0, len(s), 6):
                span = [int(s[i]), int(s[i + 1]), names[int(s[i + 2])], int(s[i + 3]), s[i + 4], s[i + 5]]
                f.write(json.dumps(span) + "\n")
