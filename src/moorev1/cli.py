"""Command-line driver: window configuration, one subcommand per
verification, table export, chart rendering, and cached artifacts.

Every output is a deterministic function of the resolved configuration.
Artifacts land in the output directory; a result cache under
`<out>/.cache` is keyed by a hash of the configuration, the package
version and a digest of the package source, and writes are atomic so
concurrent invocations are safe.  Each entry is one file, named by the
source digest and the key: a JSON header line, then the raw bytes of each
artifact in name order.  An entry that is malformed, names a file outside
the output directory, declares lengths that do not match its bytes, or
fails its sha256 digest is a cache miss.  A cold write removes the entries
of other source digests.

Exit codes: 0 all checks pass, 1 a verification failed (the report is
still written), 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import __version__
from .chart import decomposition_chart, page_chart, render
from .cobar import (
    CobarCochain,
    class_identity_check,
    endomorphism_comodule,
    ext_dimensions,
    moore_comodule,
    trivial_comodule,
    verify_cobar_d_squared,
)
from .dga import DimensionTable, PageRefusedError, page_dimension_table
from .gf2poly import GF2PolyError, TruncationWindow, default_window
from .specseq import TAGS, Report, Workbench, check_row

__all__ = [
    "RunConfig",
    "run",
    "main",
]

_COMODULES = {
    "S": trivial_comodule,
    "M": moore_comodule,
    "EndM": endomorphism_comodule,
}

_TABLE_FORMATS = ("json", "tsv")
_CHART_FORMATS = ("svg", "txt")

# Ext tables and their closed-form check stay in s <= 8, -1 <= t <= 16,
# the envelope the cobar oracle cross-checks
_EXT_S_MAX = 8
_EXT_T_RANGE = (-1, 16)

_WINDOW = default_window()
_DEFAULTS = {
    "t_max": _WINDOW.t_range[1],
    "s_max": _WINDOW.s_range[1],
    "v1_min": _WINDOW.v1_exponent_range[0],
    "v1_max": _WINDOW.v1_exponent_range[1],
    "page": 2,
    "spectrum": "EndM",
    "format": None,  # filled per subcommand
    "out": ".",
    "no_cache": False,
    "what": "page",
}

_INT_KEYS = ("t_max", "s_max", "v1_min", "v1_max", "page")
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    cmd: str
    t_max: int
    s_max: int
    v1_min: int
    v1_max: int
    page: int
    spectrum: str
    format: str
    out: str
    no_cache: bool
    what: str

    def window(self) -> TruncationWindow:
        return default_window(self.t_max, self.s_max, self.v1_min, self.v1_max)

    def window_label(self) -> str:
        return (
            f"t_max={self.t_max},s_max={self.s_max},"
            f"v1_min={self.v1_min},v1_max={self.v1_max}"
        )

    def cache_key(self) -> str:
        # every field is a scalar, so a shallow copy gives asdict's payload
        payload = dict(vars(self))
        # the output directory and the cache switch do not affect content
        del payload["out"]
        del payload["no_cache"]
        payload["version"] = __version__
        payload["source"] = _source_digest()
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the package's own modules (sorted names plus bytes), so
    an edited program never replays results cached by an older one.  Read
    once per process."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as f:
            data = f.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# ---- configuration ----


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use and shared by every run() call
    of the process: parse_args keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value file")
    common.add_argument("--t-max", type=int, dest="t_max")
    common.add_argument("--s-max", type=int, dest="s_max")
    common.add_argument("--v1-min", type=int, dest="v1_min")
    common.add_argument("--v1-max", type=int, dest="v1_max")
    common.add_argument("--page", type=int, choices=(2, 3, 4))
    common.add_argument("--spectrum", choices=TAGS)
    common.add_argument("--format", choices=_TABLE_FORMATS + _CHART_FORMATS)
    common.add_argument("--out", metavar="DIR")
    common.add_argument("--no-cache", action="store_const", const=True, dest="no_cache")

    parser = argparse.ArgumentParser(
        prog="moorev1",
        description="exact GF(2) workbench for truncated spectral-sequence pages",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("page", parents=[common], help="export a page dimension table")
    sub.add_parser("ext", parents=[common], help="export Ext dimension tables (Koszul complex)")
    sub.add_parser("mahowald", parents=[common], help="export Z/B/H tables and classes")
    sub.add_parser("verify", parents=[common], help="run the verification battery")
    sub.add_parser("decompose", parents=[common], help="check the pattern decomposition")
    chart = sub.add_parser("chart", parents=[common], help="render an Adams chart")
    chart.add_argument("what", nargs="?", choices=("page", "decomposition"))
    return parser


def _load_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"config key {key} needs an integer, got {value!r}")
    if key == "no_cache":
        if value.lower() in _TRUE:
            return True
        if value.lower() in _FALSE:
            return False
        raise ConfigError(f"config key no_cache needs a boolean, got {value!r}")
    return value


def _resolve(ns: argparse.Namespace) -> RunConfig:
    file_opts: Dict[str, str] = {}
    if getattr(ns, "config", None):
        file_opts = _load_config_file(ns.config)
    merged = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_opts:
            merged[key] = _coerce(key, file_opts[key])
        else:
            merged[key] = default
    if merged["spectrum"] not in TAGS:
        raise ConfigError(f"spectrum must be one of {TAGS}, got {merged['spectrum']!r}")
    if merged["page"] not in (2, 3, 4):
        raise ConfigError(f"page must be 2, 3, or 4, got {merged['page']!r}")
    if merged["what"] not in ("page", "decomposition"):
        raise ConfigError(f"chart target must be page or decomposition, got {merged['what']!r}")
    allowed = _CHART_FORMATS if ns.cmd == "chart" else _TABLE_FORMATS
    if merged["format"] is None:
        merged["format"] = allowed[0]
    if merged["format"] not in allowed:
        raise ConfigError(
            f"format {merged['format']!r} is not valid for {ns.cmd}; "
            f"choose from {', '.join(allowed)}"
        )
    return RunConfig(cmd=ns.cmd, **merged)


# ---- output plumbing ----


def _atomic_write(path: str, data: bytes) -> None:
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_payload(table: DimensionTable, fmt: str) -> str:
    if fmt == "tsv":
        return table.to_tsv()
    return _json_text(table.to_json_obj())


def _with_meta(table: DimensionTable, extra: Dict[str, str]) -> DimensionTable:
    return DimensionTable(table.coords, table.rows, {**table.meta, **extra})


# ---- subcommands ----

Artifacts = Tuple[int, str, Dict[str, str]]  # exit code, stdout, files


def _cmd_page(cfg: RunConfig) -> Artifacts:
    wb = Workbench(cfg.window())
    pg = wb.page(cfg.spectrum, cfg.page)
    meta = {
        "window": cfg.window_label(),
        "trusted": "rows limited to window-complete degrees",
        "page": str(cfg.page),
        "spectrum": cfg.spectrum,
        "conditional": "true" if pg.conditional else "false",
    }
    table = page_dimension_table(pg, meta=meta)
    fname = f"page-{cfg.spectrum}-r{cfg.page}.{cfg.format}"
    stdout = f"page {cfg.spectrum} r={cfg.page}: {len(table.rows)} nonzero degrees -> {fname}\n"
    return 0, stdout, {fname: _table_payload(table, cfg.format)}


def _cmd_ext(cfg: RunConfig) -> Artifacts:
    s_max = min(cfg.s_max, _EXT_S_MAX)
    t_range = (_EXT_T_RANGE[0], min(cfg.t_max, _EXT_T_RANGE[1]))
    if s_max < 0 or t_range[0] > t_range[1]:
        raise GF2PolyError(f"empty ext box: s in (0, {s_max}), t in {t_range}")
    comodule = _COMODULES[cfg.spectrum]()
    table = _with_meta(
        ext_dimensions(comodule, s_max, t_range),
        {"window": cfg.window_label(), "spectrum": cfg.spectrum, "conditional": "false"},
    )
    fname = f"ext-{cfg.spectrum}.{cfg.format}"
    stdout = f"ext {cfg.spectrum}: {len(table.rows)} nonzero bidegrees -> {fname}\n"
    return 0, stdout, {fname: _table_payload(table, cfg.format)}


def _cmd_mahowald(cfg: RunConfig) -> Artifacts:
    wb = Workbench(cfg.window())
    tables = wb.mahowald_tables()
    extra = {"window": cfg.window_label(), "conditional": "false"}
    files: Dict[str, str] = {}
    counts = {}
    for kind in ("Z", "B", "H"):
        table = _with_meta(tables.dimension_table(kind), extra)
        counts[kind] = sum(table.rows.values())
        files[f"mahowald-{kind}.{cfg.format}"] = _table_payload(table, cfg.format)
    for kind in ("H", "B"):
        lines = tables.export_lines(kind)
        files[f"mahowald-classes-{kind}.txt"] = "\n".join(lines) + "\n" if lines else ""
    stdout = (
        f"mahowald box p<={tables.p_max} q<={tables.q_max}: "
        f"Z {counts['Z']} B {counts['B']} H {counts['H']} -> mahowald-*.{cfg.format}\n"
    )
    return 0, stdout, files


def _ext_closed_form_report() -> Report:
    """Ext of the endomorphism comodule is F2<1,alpha> tensor F2[h11],
    and Ext of the two-cell comodule is F2[h11] on x0."""
    rows = []
    for tag, expected in (
        ("EndM", lambda s, t: int(t == 2 * s) + int(t == 2 * s - 1)),
        ("M", lambda s, t: int(t == 2 * s)),
    ):
        table = ext_dimensions(_COMODULES[tag](), _EXT_S_MAX, _EXT_T_RANGE)
        for s in range(_EXT_S_MAX + 1):
            for t in range(_EXT_T_RANGE[0], _EXT_T_RANGE[1] + 1):
                rows.append(check_row(f"ext-closed-form:{tag}", (s, t), table.dim(s, t), expected(s, t)))
    return Report("ext-closed-form", rows)


def _identity_check_report() -> Report:
    endo = endomorphism_comodule()
    c = CobarCochain.basis_element(endo, (1,), "1") + CobarCochain.basis_element(
        endo, (2,), "alpha"
    )
    # the class must vanish; lhs 1 records that it does not
    nonzero = class_identity_check(endo, c) != "zero-in-cohomology"
    return Report("cobar-identity", [check_row("identity-vs-alpha-h11", (1, 2), int(nonzero), 0)])


def _summary(name: str, build) -> dict:
    """The summary of one report: name, ok, conditional, checked and
    failures.  A page the report reads that refuses its differential fails
    the report, with the refusal as its one failure."""
    try:
        rep = build()
    except PageRefusedError as exc:
        return dict(name=name, ok=False, conditional=exc.conditional, checked=0, failures=[str(exc)])
    failures = [row._asdict() for row in rep.failures()]
    return dict(name=rep.name, ok=not failures, conditional=rep.conditional, checked=len(rep.rows), failures=failures)


def _cmd_verify(cfg: RunConfig) -> Artifacts:
    wb = Workbench(cfg.window())
    d2_reports = wb.verify_differentials_square_to_zero()
    d2_reports["cobar"] = verify_cobar_d_squared(endomorphism_comodule(), 6, (-1, 12))
    # one summary per report, d² proofs first
    summaries = [
        dict(name=f"d-squared:{key}", ok=rep.ok, conditional=rep.conditional, checked=rep.checked,
             failures=[f"{src} -> {im}" for src, im in rep.failures])
        for key, rep in d2_reports.items()
    ]
    summaries += [
        _summary(name, build)
        for name, build in (
            ("ext-closed-form", _ext_closed_form_report),
            ("cobar-identity", _identity_check_report),
            ("e3-presentation", wb.verify_e3_presentation),
            ("w-grading", wb.verify_w_grading),
            ("module-isomorphisms", wb.verify_module_isomorphisms),
            ("e4-claims", wb.verify_e4_claims),
            ("e4-closed-form", wb.verify_e4_dimensions),
            ("survival", wb.survival_report),
        )
    ]
    lines = []
    for s in summaries:
        # a report whose only failures are rows the window cannot decide is
        # not verified, but it is not refuted either
        undecided = s["failures"] and all(isinstance(f, dict) and f["status"] == "insufficient" for f in s["failures"])
        status = "PASS" if s["ok"] else "INSUFFICIENT" if undecided else "FAIL"
        lines.append(f"{s['name']}: {status} ({s['checked']} checked)")

    ok = all(s["ok"] for s in summaries)
    doc = {
        "version": __version__,
        "window": cfg.window_label(),
        "trusted": "each report row sits at a degree its page trusts",
        "ok": ok,
        "conditional": any(s["conditional"] for s in summaries),
        "reports": summaries,
    }
    lines.append(f"verify: {'PASS' if ok else 'FAIL'}")
    stdout = "\n".join(lines) + "\n"
    return (0 if ok else 1), stdout, {"verify-report.json": _json_text(doc)}


def _cmd_decompose(cfg: RunConfig) -> Artifacts:
    wb = Workbench(cfg.window())
    report = wb.mahowald_decomposition_check()
    counts = {"ok": 0, "mismatch": 0, "insufficient": 0}
    for row in report.rows:
        counts[row.status] += 1
    doc = {
        "version": __version__,
        "window": cfg.window_label(),
        "trusted": "cells are exact unless marked insufficient",
        "ok": counts["mismatch"] == 0,
        "conditional": report.conditional,
        "counts": counts,
        "rows": [row._asdict() for row in report.rows],
    }
    files: Dict[str, str] = {}
    if cfg.format == "tsv":
        body = ["s\tt\tlhs\trhs\tstatus"]
        for row in report.rows:
            body.append("\t".join(str(x) for x in (*row.degree, row.lhs, row.rhs, row.status)))
        files["decomposition.tsv"] = "\n".join(body) + "\n"
    files["decomposition.json"] = _json_text(doc)
    stdout = (
        f"decomposition: {counts['ok']} cells ok, {counts['insufficient']} insufficient, "
        f"{counts['mismatch']} mismatches -> decomposition.{cfg.format}\n"
    )
    return (0 if counts["mismatch"] == 0 else 1), stdout, files


def _cmd_chart(cfg: RunConfig) -> Artifacts:
    wb = Workbench(cfg.window())
    if cfg.what == "page":
        doc = page_chart(wb.page(cfg.spectrum, cfg.page), title=f"{cfg.spectrum} r={cfg.page}")
        fname = f"chart-page-{cfg.spectrum}-r{cfg.page}.{cfg.format}"
        label = f"chart page {cfg.spectrum} r={cfg.page}"
    else:
        doc = decomposition_chart(wb.mahowald_tables())
        fname = f"chart-decomposition.{cfg.format}"
        label = "chart decomposition"
    payload = render(doc, cfg.format)
    stdout = f"{label}: {sum(doc.cells.values())} dots -> {fname}\n"
    return 0, stdout, {fname: payload}


_DISPATCH = {
    "page": _cmd_page,
    "ext": _cmd_ext,
    "mahowald": _cmd_mahowald,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "chart": _cmd_chart,
}


# ---- entry points ----


def _inside_out(rel: str) -> bool:
    """Whether a cached file name stays inside the output directory
    (string checks only)."""
    norm = os.path.normpath(rel)
    return not (os.path.isabs(rel) or norm.startswith("..") or norm == "." or "\0" in rel)


def _replayable(header) -> bool:
    """A cache entry header as run() writes it: an exit code of 0 or 1, the
    stdout text, and [name, byte length] pairs in strictly increasing name
    order, each name inside the output directory."""
    if not isinstance(header, dict):
        return False
    code, stdout, files = (header.get(k) for k in ("exit_code", "stdout", "files"))
    return (
        type(code) is int
        and code in (0, 1)
        and isinstance(stdout, str)
        and isinstance(files, list)
        and all(
            isinstance(f, list) and len(f) == 2 and isinstance(f[0], str) and _inside_out(f[0])
            and type(f[1]) is int and f[1] >= 0
            for f in files
        )
        and all(a[0] < b[0] for a, b in zip(files, files[1:]))
    )


def _payload_digest(code: int, stdout: bytes, blobs: Dict[str, bytes]) -> str:
    """The sha256 an entry stores: over the exit code, the stdout bytes, and
    each file name and its bytes in name order, each part after its length."""
    h = hashlib.sha256()
    for part in [b"%d" % code, stdout, *(x for rel in sorted(blobs) for x in (rel.encode(), blobs[rel]))]:
        h.update(b"%d\0" % len(part))
        h.update(part)
    return h.hexdigest()


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache_dir = os.path.join(cfg.out, ".cache")
    cache_entry = os.path.join(cache_dir, f"{_source_digest()}-{cfg.cache_key()}.entry")
    # an unreadable, malformed or altered entry is a miss and gets recomputed
    hit = False
    if not cfg.no_cache:
        try:
            with open(cache_entry, "rb") as f:
                header = json.loads(f.readline())
                # the declared lengths must add up to the bytes left before
                # any is read, so a huge length never asks for memory
                left = os.fstat(f.fileno()).st_size - f.tell()
                if _replayable(header) and sum(n for _, n in header["files"]) == left:
                    code, stdout = header["exit_code"], header["stdout"]
                    blobs = {rel: f.read(n) for rel, n in header["files"]}
                    hit = header.get("sha256") == _payload_digest(code, stdout.encode(), blobs)
        # an absent entry raises FileNotFoundError, an OSError; a lone
        # surrogate raises UnicodeEncodeError, a ValueError; nesting deeper
        # than the parser's recursion limit raises RecursionError
        except (OSError, ValueError, RecursionError):
            pass
    if not hit:
        try:
            code, stdout, files = _DISPATCH[cfg.cmd](cfg)
        except GF2PolyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # each file is encoded once; pop drops its text as its bytes appear
        blobs = {rel: files.pop(rel).encode() for rel in sorted(files)}

    try:
        for rel in sorted(blobs):
            _atomic_write(os.path.join(cfg.out, rel), blobs[rel])
    except OSError as exc:
        print(f"error: cannot write output under {cfg.out}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(stdout)
    if not (hit or cfg.no_cache):
        names = sorted(blobs)
        header = {
            "exit_code": code,
            "stdout": stdout,
            "files": [[rel, len(blobs[rel])] for rel in names],
            "sha256": _payload_digest(code, stdout.encode(), blobs),
        }
        entry = b"".join([json.dumps(header, sort_keys=True).encode(), b"\n", *(blobs[rel] for rel in names)])
        try:
            _atomic_write(cache_entry, entry)
            # an older program's entries (.json before the framed format) are
            # never looked up again; writes in flight (.tmp-*) stay
            for name in os.listdir(cache_dir):
                if name.endswith((".entry", ".json")) and not name.startswith((_source_digest() + "-", ".tmp-")):
                    with contextlib.suppress(OSError):
                        os.unlink(os.path.join(cache_dir, name))
        except OSError:
            pass  # a cold cache never changes the result
    return code


def main() -> None:
    sys.exit(run())
