"""Output checks for every benchmark op.

Two kinds of check run on each op's results:

- digests: the exit code, the sha256 of stdout and the sha256 of every
  artifact must equal `reference.json`, recorded with `record.py`.
  Artifacts must stay byte-identical across commits.
- independent checks that do not trust the program's own output: Ext
  tables match their closed forms, every report in `verify-report.json`
  is ok, and `decompose` finds no mismatch.

Each check returns a list of problems; an empty list means the op passed.
"""
from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

from workloads import Op, op_key

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Ext over F2[xi1]/(xi1^4) in the box s <= 8, -1 <= t <= 16.
EXT_S_MAX = 8
EXT_T_RANGE = (-1, 16)
EXT_CLOSED_FORMS = {
    "S": lambda s, t: int(s <= t <= 2 * s),
    "M": lambda s, t: int(t == 2 * s),
    "EndM": lambda s, t: int(t in (2 * s - 1, 2 * s)),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> Dict[str, dict]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


def _read(out: str, name: str) -> bytes:
    with open(os.path.join(out, name), "rb") as f:
        return f.read()


def check_digests(ref: dict, code: int, stdout: str, out: str) -> List[str]:
    problems = []
    if code != ref["exit_code"]:
        problems.append(f"exit code {code}, expected {ref['exit_code']}")
    if sha256(stdout.encode()) != ref["stdout"]:
        problems.append("stdout differs from the reference")
    for name, digest in sorted(ref["files"].items()):
        try:
            data = _read(out, name)
        except OSError:
            problems.append(f"{name} was not written")
            continue
        if sha256(data) != digest:
            problems.append(f"{name} differs from the reference")
    return problems


def _ext_table(text: str, fmt: str) -> Dict[tuple, int]:
    if fmt == "json":
        return {(s, t): dim for s, t, dim in json.loads(text)["rows"]}
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if lines[0].split("\t") != ["s", "t", "dim"]:
        raise ValueError(f"unexpected tsv header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        s, t, dim = (int(x) for x in line.split("\t"))
        rows[(s, t)] = dim
    return rows


def check_ext(spectrum: str, text: str, fmt: str) -> List[str]:
    form = EXT_CLOSED_FORMS[spectrum]
    expected = {
        (s, t): form(s, t)
        for s in range(EXT_S_MAX + 1)
        for t in range(EXT_T_RANGE[0], EXT_T_RANGE[1] + 1)
        if form(s, t)
    }
    got = _ext_table(text, fmt)
    if got != expected:
        wrong = sorted(set(got.items()) ^ set(expected.items()))[:3]
        return [f"ext {spectrum} breaks its closed form, e.g. (s, t, dim) in {wrong}"]
    return []


def check_verify_report(text: str) -> List[str]:
    doc = json.loads(text)
    bad = [r["name"] for r in doc["reports"] if r["ok"] is not True]
    problems = [f"verify report {name} is not ok" for name in bad]
    if not doc["reports"]:
        problems.append("verify-report.json holds no reports")
    return problems


def check_decomposition(text: str) -> List[str]:
    mismatches = json.loads(text)["counts"]["mismatch"]
    return [f"decompose found {mismatches} mismatches"] if mismatches else []


def _option(op: Op, flag: str, default: str) -> str:
    return op[op.index(flag) + 1] if flag in op else default


def check_independent(op: Op, out: str) -> List[str]:
    cmd = op[0]
    try:
        if cmd == "ext":
            spectrum = _option(op, "--spectrum", "EndM")
            fmt = _option(op, "--format", "json")
            return check_ext(spectrum, _read(out, f"ext-{spectrum}.{fmt}").decode(), fmt)
        if cmd == "verify":
            return check_verify_report(_read(out, "verify-report.json").decode())
        if cmd == "decompose":
            return check_decomposition(_read(out, "decomposition.json").decode())
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd} output cannot be checked: {exc!r}"]
    return []


def check_op(reference: Dict[str, dict], op: Op, code: int, stdout: str, out: str) -> List[str]:
    ref = reference.get(op_key(op))
    if ref is None:
        return [f"no reference recorded for {op_key(op)!r}"]
    return check_digests(ref, code, stdout, out) + check_independent(op, out)
