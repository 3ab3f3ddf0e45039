"""Acceptance battery: the eleven checks that gate a release, run on the
default window (t <= 64, s <= 12, v1 exponents in [-16, 16]).

Each test prints one PASS/FAIL line (visible with pytest -s); the test
outcome itself carries the same verdict.
"""
import filecmp
import hashlib
import json
import os

import pytest

from moorev1.cli import run
from moorev1.cobar import (
    CobarCochain,
    class_identity_check,
    endomorphism_comodule,
    ext_dimensions,
    moore_comodule,
)
from moorev1.gf2poly import Polynomial, default_window
from moorev1.specseq import Workbench
from oracles import induced_d3m, zbh_class_nonzero, zbh_is_boundary


# sha256 of verify-report.json from `moorev1 verify` on the default window
VERIFY_REPORT_SHA256 = "d2005ec6a39931887d8ab093d67d77e5d20444ad0ff878e3e350105692956cd3"

# sha256 of every file the table and chart commands write on the default window
ARTIFACT_SHA256 = {
    ("page", "--spectrum", "EndM", "--page", "4"): {
        "page-EndM-r4.json": "1f9b10888d02e3d29b8de57bc9bdd1ef516234524676a446f7ded6db51cb1f48",
    },
    ("page", "--spectrum", "M", "--page", "4", "--format", "tsv"): {
        "page-M-r4.tsv": "79b9290e8c88f681bacc1f20e881a7f7e36c93d4736695b4d5853c7cbdd4d901",
    },
    ("decompose", "--format", "tsv"): {
        "decomposition.json": "33967d925a0afceb61d867459dd1d5d280a3e8a09f7a9d3d732824ae0ea7b279",
        "decomposition.tsv": "ae0cd7a10cda533d0e7332d4344182715677a6aa3339775661e092ed9b6f5e78",
    },
    ("mahowald",): {
        "mahowald-B.json": "1194bee5b61b6a4f0d726d8fd5fa8f51e1a118f6004b0d8f8a873ff9e9702211",
        "mahowald-H.json": "dc0e3cc2a10ef2028520b4f544e354f76ad67c69ac843286df85ac2f6c6c40f2",
        "mahowald-Z.json": "48e8c1f0ddd9facac29caa7267735301ba6430c5092d8fcf5ea45bb52a71c92d",
        "mahowald-classes-B.txt": "faee3de9fd78099a48be2ae00f684b940583154bbd0fab3ca9ca29d8e83c8f6a",
        "mahowald-classes-H.txt": "c72e5c8048d265c1439575c8f528251ea6fa8d3dc606bae53689eff8d979b494",
    },
    ("chart", "page", "--spectrum", "M", "--page", "2", "--format", "svg"): {
        "chart-page-M-r2.svg": "3563c119ef168ade19739fdfe03472e858fb2881a73348ab1f4d318d5a71e0c4",
    },
    ("chart", "decomposition", "--format", "svg"): {
        "chart-decomposition.svg": "3249c1c431c837dfabb0026a2055c7cdac34908967bf5ba29d6596ffe62dde5a",
    },
    ("chart", "page", "--spectrum", "EndM", "--page", "3", "--format", "txt"): {
        "chart-page-EndM-r3.txt": "eb6530ab1537defc699164b6921aaff8266497e945a141e2b975f47ec9311433",
    },
    ("chart", "page", "--spectrum", "EndM", "--page", "3", "--format", "svg"): {
        "chart-page-EndM-r3.svg": "8f0f4f386278e2483b801bda2f0ae38cd2baadc5fdb296c23cd4ec68a7b0dac6",
    },
    ("chart", "page", "--spectrum", "M", "--page", "4", "--format", "svg"): {
        "chart-page-M-r4.svg": "1eb379aaa00691008e5252603d1cda89e5e6d4f70265441f3d573b5189c13f2e",
    },
    ("chart", "page", "--spectrum", "S", "--page", "2", "--format", "txt"): {
        "chart-page-S-r2.txt": "d416ed9ab209bea602cca3216fe0b844c36694c36c899d8cab27cc24d6ab2d14",
    },
}


@pytest.fixture(scope="module")
def wb():
    return Workbench(default_window())


def _record(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_differential_soundness(wb):
    reports = wb.verify_differentials_square_to_zero()
    ok = set(reports) == {"EndM r=2", "M r=2", "EndM r=3", "M r=3"} and all(
        rep.ok and rep.checked > 0 for rep in reports.values()
    )
    _record(1, "d2 and d3 square to zero", ok)


def test_criterion_02_ext_closed_forms():
    endo = ext_dimensions(endomorphism_comodule(), 8, (-1, 16))
    moore = ext_dimensions(moore_comodule(), 8, (-1, 16))
    ok = True
    for s in range(9):
        for t in range(-1, 17):
            ok = ok and endo.dim(s, t) == int(t == 2 * s) + int(t == 2 * s - 1)
            ok = ok and moore.dim(s, t) == int(t == 2 * s)
    _record(2, "cobar Ext closed forms", ok)


def test_criterion_03_identity_class():
    endo = endomorphism_comodule()
    c = CobarCochain.basis_element(endo, (1,), "1") + CobarCochain.basis_element(
        endo, (2,), "alpha"
    )
    ok = class_identity_check(endo, c) == "zero-in-cohomology"
    _record(3, "xi1|1 + xi1^2|alpha is a coboundary", ok)


def test_criterion_04_e3_presentation(wb):
    report = wb.verify_e3_presentation()
    ok = report.ok and len(report.rows) > 1000
    _record(4, "homology of d2 matches the r=3 presentation", ok)


def test_criterion_05_survival(wb):
    report = wb.survival_report()
    by_claim = {row.claim: row for row in report.rows}
    named = [
        "survives-to-e4:alpha",
        "survives-to-e4:alphap",
        "survives-to-e4:h(1,1)",
        "survives-to-e4:x(1)",
    ]
    dies = [row for row in report.rows if row.claim.startswith("dies:")]
    ok = (
        all(name in by_claim and by_claim[name].status == "ok" for name in named)
        and len(dies) > 0
        and all(row.status == "ok" for row in dies)
    )
    _record(5, "alpha, v1*alpha, h11, v1*h21 survive; v1^m*x(n) dies", ok)


def test_criterion_06_induced_d3_list(wb):
    alph = wb.alphabet("M", 3)
    expected = {
        "v1^2": "h(1,1)^3",
        "h(2,1)": "v1^-2*h(1,1)^3*h(2,1)",
        "h(3,1)": "v1^-2*h(1,1)^3*h(3,1) + v1^-2*h(1,1)*h(2,1)^3",
        "h(4,1)": "v1^-2*h(1,1)^3*h(4,1) + v1^-2*h(1,1)*h(2,1)*h(3,1)^2",
        "h(5,1)": "v1^-2*h(1,1)^3*h(5,1) + v1^-2*h(1,1)*h(2,1)*h(4,1)^2",
    }
    ok = True
    for source, target in expected.items():
        value = induced_d3m(wb, Polynomial.parse(alph, source))
        ok = ok and value == Polynomial.parse(alph, target)
    _record(6, "induced d3 on the two-cell page matches the displayed list", ok)


def test_criterion_07_w_grading(wb):
    report = wb.verify_w_grading()
    ok = report.ok and len(report.rows) > 1000
    _record(7, "d3 raises the w-grading by one", ok)


def test_criterion_08_e4_claims(wb):
    claims = wb.verify_e4_claims()
    closed = wb.verify_e4_dimensions()
    claim4 = [row for row in claims.rows if row.claim == "claim-4"]
    ok = (
        claims.ok
        and closed.ok
        and len(claim4) > 0
        and all(row.rhs == 0 and row.lhs == 0 for row in claim4)
        and max(row.degree[-1] for row in claim4) >= 3
    )
    _record(8, "slice claims 1-4 and i-ii", ok)


def test_criterion_09_mahowald_homology(wb):
    tables = wb.mahowald_tables()
    alph = tables.alphabet
    spots = {
        (0, 0): "1",
        (2, 9): "x(1)",
        (4, 18): "x(1)^2",
        (4, 34): "x(2)^2",
        (6, 51): "x(1)^2*x(3) + x(2)^3",
    }
    ok = True
    for (p, q), text in spots.items():
        poly = Polynomial.parse(alph, text)
        ok = ok and tables.h_dim(p, q) == 1 and zbh_class_nonzero(tables, poly)
    for text in ("x(1)^3", "x(1)*x(2)^2"):
        ok = ok and zbh_is_boundary(tables, Polynomial.parse(alph, text))
    _record(9, "Mahowald homology classes and boundaries", ok)


def test_criterion_10_decomposition(wb):
    report = wb.mahowald_decomposition_check()
    rows = {row.degree: row for row in report.rows}
    ok = all(row.status != "mismatch" for row in report.rows)
    # every positive-quadrant Adams bidegree in range must be present and
    # exact; insufficiency may only occur at cells the window cannot cover,
    # and those stay visible as rows rather than being dropped
    for stem in range(0, 25):
        for filt in range(0, 13):
            row = rows.get((filt, stem + filt))
            ok = ok and row is not None and row.status == "ok"
    ok = ok and all(r.status in ("ok", "insufficient") for r in report.rows)
    _record(10, "bo/bu pattern decomposition of the two-cell page", ok)


def test_criterion_11_determinism(tmp_path):
    argv_sets = [
        ["verify"],
        ["page", "--spectrum", "EndM", "--page", "4"],
        ["decompose"],
        ["mahowald"],
        ["chart", "decomposition", "--format", "svg"],
    ]
    dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in dirs:
        for argv in argv_sets:
            code = run([*argv, "--no-cache", "--out", out])
            assert code == 0, argv
    names = sorted(os.listdir(dirs[0]))
    ok = names == sorted(os.listdir(dirs[1])) and any(n.endswith(".svg") for n in names)
    for name in names:
        ok = ok and filecmp.cmp(
            os.path.join(dirs[0], name), os.path.join(dirs[1], name), shallow=False
        )
    # the default verify report is pinned byte for byte across changes too
    with open(os.path.join(dirs[0], "verify-report.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    ok = ok and digest == VERIFY_REPORT_SHA256
    _record(11, "two full runs are byte-identical", ok)


@pytest.mark.parametrize("argv", sorted(ARTIFACT_SHA256), ids=" ".join)
def test_default_tables_are_pinned(tmp_path, argv):
    """The page, decomposition and Mahowald tables and the charts stay
    byte-identical across changes, like the verify report."""
    out = str(tmp_path)
    assert run([*argv, "--no-cache", "--out", out]) == 0
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == ARTIFACT_SHA256[argv]
