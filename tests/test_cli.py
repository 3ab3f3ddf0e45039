import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict

import pytest

import moorev1.cli as cli
import moorev1.dga as dga
import moorev1.specseq as specseq
from moorev1.cobar import CobarCochain, CobarComplex, cobar_differential, verify_cobar_d_squared
from moorev1.cli import RunConfig, run
from moorev1.dga import DimensionTable, PagePresentation
from moorev1.gf2poly import Multidegree, default_window
from moorev1.specseq import CheckRow, Report, Workbench

SMALL = ["--t-max", "20", "--s-max", "5", "--v1-min", "-5", "--v1-max", "5"]


def run_in(tmp_path, *argv):
    return run([*argv, "--out", str(tmp_path)])


def read_rows(path):
    """The rows of a json table artifact, as coordinates -> dimension."""
    doc = json.loads(path.read_text())
    return {tuple(row[:-1]): row[-1] for row in doc["rows"]}


def test_page_export_schema(tmp_path):
    assert run_in(tmp_path, "page", *SMALL, "--spectrum", "M") == 0
    doc = json.loads((tmp_path / "page-M-r2.json").read_text())
    assert doc["coords"] == ["s", "t", "u"]
    meta = doc["meta"]
    assert meta["spectrum"] == "M"
    assert meta["page"] == "2"
    assert meta["conditional"] == "false"
    assert "window" in meta and "trusted" in meta
    rows = doc["rows"]
    assert rows == sorted(rows)
    assert all(len(r) == 4 for r in rows)


def test_conditional_flag_on_conjectural_page(tmp_path):
    assert run_in(tmp_path, "page", *SMALL, "--spectrum", "EndM", "--page", "3") == 0
    doc = json.loads((tmp_path / "page-EndM-r3.json").read_text())
    assert doc["meta"]["conditional"] == "true"


def test_page_rows_match_enumeration_oracle(tmp_path):
    assert (
        run_in(tmp_path, "page", "--t-max", "8", "--s-max", "2", "--v1-min", "-2",
               "--v1-max", "2", "--spectrum", "M") == 0
    )
    rows = read_rows(tmp_path / "page-M-r2.json")
    # count monomials v1^k h11^a h21^b by hand; the window keeps h-indices
    # with 2^(n+1)-2 <= 13, so exactly v1, h(1,1), h(2,1)
    page = Workbench(default_window(8, 2, -2, 2)).page("M", 2)

    def oracle(s, t, u):
        count = 0
        for k in range(-4, 5):
            for a in range(0, 3):
                for b in range(0, 3):
                    if (a + b, 2 * k + 2 * a + 6 * b, k) == (s, t, u):
                        count += 1
        return count

    for s in range(0, 3):
        for t in range(0, 6):
            for u in range(-1, 2):
                d = Multidegree(s, t, u)
                if page.trusted(d):
                    assert rows.get((s, t, u), 0) == oracle(s, t, u), (s, t, u)
    assert rows[(0, 2, 1)] == 1
    assert rows[(1, 4, 1)] == 1


def test_export_empty_table():
    table = DimensionTable(("s", "t"), {}, {"note": "empty"})
    assert table.to_tsv() == "# note=empty\ns\tt\tdim\n"


def test_ext_closed_form_spots(tmp_path):
    assert run_in(tmp_path, "ext", "--spectrum", "EndM") == 0
    rows = read_rows(tmp_path / "ext-EndM.json")
    assert rows[(0, 0)] == 1  # the identity
    assert rows[(0, -1)] == 1  # alpha
    assert rows[(1, 2)] == 1  # h11
    assert rows[(1, 1)] == 1  # alpha h11
    assert rows[(2, 3)] == 1  # alpha h11^2
    assert rows.get((1, 3), 0) == 0


def test_verify_small_window(tmp_path, capsys):
    code = run_in(tmp_path, "verify", *SMALL)
    out = capsys.readouterr().out
    assert code == 0
    assert "verify: PASS" in out
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    assert doc["ok"] is True
    assert doc["conditional"] is True
    names = {r["name"] for r in doc["reports"]}
    assert {"d-squared:EndM r=2", "d-squared:cobar", "ext-closed-form",
            "cobar-identity", "e3-presentation", "w-grading", "e4-claims",
            "e4-closed-form", "survival"} <= names
    by_name = {r["name"]: r for r in doc["reports"]}
    d2_conditional = {key: by_name[f"d-squared:{key}"]["conditional"]
                      for key in ("EndM r=2", "M r=2", "EndM r=3", "M r=3", "cobar")}
    assert d2_conditional == {"EndM r=2": False, "M r=2": False, "EndM r=3": True,
                              "M r=3": True, "cobar": False}
    assert by_name["e4-claims"]["conditional"] is True
    assert all(r["failures"] == [] for r in doc["reports"])


def test_verify_failure_exits_one(tmp_path, monkeypatch):
    bad = Report("w-grading", [CheckRow("w-step", (0, 0, 0), 1, 2, "mismatch")], True)
    monkeypatch.setattr(Workbench, "verify_w_grading", lambda self: bad)
    code = run_in(tmp_path, "verify", *SMALL, "--no-cache")
    assert code == 1
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    assert doc["ok"] is False
    by_name = {r["name"]: r for r in doc["reports"]}
    assert by_name["w-grading"]["failures"] == [
        {"claim": "w-step", "degree": [0, 0, 0], "lhs": 1, "rhs": 2, "status": "mismatch"}
    ]


def test_verify_writes_its_report_when_the_w_grading_breaks(tmp_path, monkeypatch):
    # one extra w on every h(2,1) factor, as in
    # test_w_grading_rows_match_symbolic_reference; the slice claims presume
    # the grading, so they fail beside the report that checks it
    w_degree = Workbench.w_degree

    def broken(bench, mono, walk=None):
        hi = bench.alphabet("M", 2).index("h(2,1)")
        return w_degree(bench, mono, walk) + sum(e for g, e in mono if g == hi)

    monkeypatch.setattr(Workbench, "w_degree", broken)
    assert run_in(tmp_path, "verify", *SMALL, "--no-cache") == 1
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    failures = {r["name"]: r["failures"] for r in doc["reports"] if not r["ok"]}
    assert set(failures) == {"w-grading", "e4-claims"}
    assert {(f["claim"], f["status"]) for f in failures["w-grading"]} == {("w-shift", "mismatch")}


def test_d_squared_failures_are_written_by_name(tmp_path, monkeypatch):
    # make d(d(v1)) = d(v1) on EndM r=2, so that the generator proof finds
    # one failure; the report names its source, not its index tuple
    real = specseq.d_squared_on_generators

    def broken(pres, window):
        if pres.name == "endomorphism r=2":
            d_v1, apply = pres.differentials["v1"], pres.apply
            pres.apply = lambda p: p if p == d_v1 else apply(p)
        return real(pres, window)

    # and report one cobar cochain as failing, which is written the same way
    def broken_cobar(comodule, s_max, t_range):
        rep = verify_cobar_d_squared(comodule, s_max, t_range)
        c = CobarCochain(comodule, CobarComplex(comodule).basis(1, 2)[:1])
        rep.failures.append((c, cobar_differential(c)))
        return rep

    monkeypatch.setattr(specseq, "d_squared_on_generators", broken)
    monkeypatch.setattr(cli, "verify_cobar_d_squared", broken_cobar)
    assert run_in(tmp_path, "verify", *SMALL, "--no-cache") == 1
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    failures = {r["name"]: r["failures"] for r in doc["reports"] if r["failures"]}
    assert failures == {
        "d-squared:EndM r=2": ["v1 -> alpha*h(1,1)^2"],
        "d-squared:cobar": ["xi1|gamma -> xi1|xi1|1 + xi1|xi1^2|alpha"],
    }


def test_decompose_report(tmp_path):
    assert run_in(tmp_path, "decompose", *SMALL) == 0
    doc = json.loads((tmp_path / "decomposition.json").read_text())
    assert doc["counts"]["mismatch"] == 0
    assert doc["counts"]["ok"] > 0
    row = doc["rows"][0]
    assert set(row) == {"claim", "degree", "lhs", "rhs", "status"}


# windows too small for x(1): its degree is never trusted there
@pytest.mark.parametrize(
    "window", [("4", "0", "0", "0"), ("-1", "0", "-2", "-2"), ("1", "0", "-1", "1")], ids="-".join
)
@pytest.mark.parametrize("cmd", [("page", "--spectrum", "EndM", "--page", "4"), ("verify",), ("decompose",)])
def test_tiny_windows_exit_zero_or_one(tmp_path, capsys, cmd, window):
    t_max, s_max, v1_min, v1_max = window
    argv = [*cmd, "--t-max", t_max, "--s-max", s_max, "--v1-min", v1_min, "--v1-max", v1_max]
    assert run_in(tmp_path, *argv, "--no-cache") in (0, 1), capsys.readouterr().err


def test_verify_on_a_tiny_window_reports_the_survivors_insufficient(tmp_path):
    argv = ["--t-max", "4", "--s-max", "0", "--v1-min", "0", "--v1-max", "0", "--no-cache"]
    assert run_in(tmp_path, "verify", *argv) == 1
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    failures = {r["name"]: r["failures"] for r in doc["reports"] if not r["ok"]}
    assert list(failures) == ["survival"]
    assert [(f["claim"], f["lhs"], f["rhs"], f["status"]) for f in failures["survival"]] == [
        (f"survives-to-e4:{g}", 0, 1, "insufficient") for g in ("alpha", "alphap", "h(1,1)", "x(1)")
    ]


def test_verify_counts_e2_endm_instead_of_building_it(tmp_path, monkeypatch):
    """verify never enumerates the E2(EndM) basis and builds no d2 matrix:
    it applies d2 only to the wired generator values (the d² proof) and to
    the odd-m v1^m*x(n) classes of the survival report."""
    enumerated, applied, ranked = [], Counter(), []
    real_enumerate, real_apply = dga.enumerate_window, PagePresentation.apply_monomial
    real_homology = specseq.homology_page

    def enumerate_window(algebra, window):
        enumerated.append(algebra.alphabet)
        return real_enumerate(algebra, window)

    def apply_monomial(pres, mono):
        applied[pres.name] += 1
        return real_apply(pres, mono)

    def homology_page(pres, *args, **kwargs):
        ranked.append(pres.name)
        return real_homology(pres, *args, **kwargs)

    monkeypatch.setattr(dga, "enumerate_window", enumerate_window)
    monkeypatch.setattr(PagePresentation, "apply_monomial", apply_monomial)
    monkeypatch.setattr(specseq, "homology_page", homology_page)
    assert run_in(tmp_path, "verify", *SMALL, "--no-cache") == 0
    bench = Workbench(default_window(20, 5, -5, 5))
    assert enumerated and bench.alphabet("EndM", 2) not in enumerated
    assert "endomorphism r=2" not in ranked
    calls = applied["endomorphism r=2"]
    wired = sum(len(v.terms) for v in bench.presentation("EndM", 2).differentials.values())
    odd_fates = [r for r in bench._xn_fates() if int(r.claim.split("^")[1].split("*")[0]) % 2]
    assert odd_fates and calls == wired + len(odd_fates)


def test_verify_transports_the_induced_d3_without_applying_endm_d3(tmp_path, monkeypatch):
    """verify computes M's induced d3 from E3(EndM) generator values: no
    apply_monomial of E3(EndM) runs inside induced_d3m_monomial.  What is
    left is one apply per source monomial of the page-4 EndM matrices over
    the windows around the four survivors, one per term of each wired d3
    value (the d² proof), one per relation twice (at construction and in
    the proof), and one per even-m v1^m*x(n) class of the survival report."""
    applied, inside, benches = Counter(), [0], []
    real_apply, real_induced = PagePresentation.apply_monomial, Workbench.induced_d3m_monomial
    real_init = Workbench.__init__

    def apply_monomial(pres, mono):
        applied[pres.name, inside[0] > 0] += 1
        return real_apply(pres, mono)

    def induced_d3m_monomial(bench, mono):
        inside[0] += 1
        try:
            return real_induced(bench, mono)
        finally:
            inside[0] -= 1

    def init(bench, window):
        real_init(bench, window)
        benches.append(bench)

    monkeypatch.setattr(PagePresentation, "apply_monomial", apply_monomial)
    monkeypatch.setattr(Workbench, "induced_d3m_monomial", induced_d3m_monomial)
    monkeypatch.setattr(Workbench, "__init__", init)
    assert run_in(tmp_path, "verify", "--t-max", "32", "--no-cache") == 0
    (bench,) = benches
    assert not [key for key in applied if key[1]]
    calls = applied["endomorphism r=3", False]
    pres = bench.presentation("EndM", 3)
    survivors = [Multidegree(*r.degree) for r in bench.survival_report().rows if r.claim.startswith("survives-to-e4:")]
    pages = [dga.homology_page(pres, bench._window_around(d)) for d in survivors]
    columns = sum(len(page.basis(c)) for page in pages for c in page._matrices)
    wired = sum(len(pres.derivation_value(gi, g.stride).terms) for gi, g in enumerate(pres.alphabet))
    even_fates = [r for r in bench._xn_fates() if int(r.claim.split("^")[1].split("*")[0]) % 2 == 0]
    assert even_fates and len(survivors) == 4 and columns
    assert calls == columns + wired + 2 * len(pres.relations) + len(even_fates)


def test_verify_writes_its_report_when_the_m_page_refuses_its_d3(tmp_path, monkeypatch):
    """With p(x(1)) = h(2,1) the lift/projection round trip moves h(2,1),
    so the page-4 build refuses the induced d3 at its first transported
    ratio: verify exits 1 with its report written, and each report that
    reads page 4 of M fails with the refusal.  (Exit 2 and no report before
    the refusal was caught.)"""
    real_rules = Workbench._projection_rules

    def rules(bench):
        got = real_rules(bench)
        got[bench.alphabet("EndM", 3).index("x(1)")] = (0, bench.alphabet("M", 2).index("h(2,1)"))
        return got

    monkeypatch.setattr(Workbench, "_projection_rules", rules)
    assert run_in(tmp_path, "verify", "--t-max", "32", "--no-cache") == 1
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    failed = {r["name"]: r for r in doc["reports"] if not r["ok"]}
    assert set(failed) == {"d-squared:M r=3", "w-grading", "e4-claims", "e4-closed-form"}
    for name in ("w-grading", "e4-claims", "e4-closed-form"):
        (refusal,) = failed[name]["failures"]
        assert refusal.startswith("two-cell r=3: p(l(h(2,1))) * v1^eps is v1^-1*h(2,1), not h(2,1)")
        assert failed[name]["checked"] == 0 and failed[name]["conditional"]


def test_chart_outputs(tmp_path):
    assert run_in(tmp_path, "chart", *SMALL, "--spectrum", "M", "--page", "2") == 0
    svg = (tmp_path / "chart-page-M-r2.svg").read_bytes()
    assert svg.startswith(b"<svg")
    assert run_in(tmp_path, "chart", "decomposition", *SMALL, "--format", "txt") == 0
    txt = (tmp_path / "chart-decomposition.txt").read_bytes()
    assert b"+---" in txt


def test_cache_replay_is_byte_identical(tmp_path, capsys):
    argv = ["mahowald", "--t-max", "16", "--s-max", "4", "--v1-min", "-4", "--v1-max", "4"]
    assert run_in(tmp_path, *argv) == 0
    first_out = capsys.readouterr().out
    first = (tmp_path / "mahowald-H.json").read_bytes()
    assert (tmp_path / ".cache").is_dir()
    assert run_in(tmp_path, *argv) == 0
    assert capsys.readouterr().out == first_out
    assert (tmp_path / "mahowald-H.json").read_bytes() == first


def test_no_cache_leaves_no_entries(tmp_path):
    assert run_in(tmp_path, "page", *SMALL, "--no-cache") == 0
    assert not (tmp_path / ".cache").exists()


def test_fresh_and_cached_runs_agree(tmp_path):
    argv = ["page", *SMALL, "--spectrum", "S"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run([*argv, "--out", str(a)]) == 0
    assert run([*argv, "--out", str(b), "--no-cache"]) == 0
    assert (a / "page-S-r2.json").read_bytes() == (b / "page-S-r2.json").read_bytes()


def test_unknown_flag_exits_two(capsys):
    assert run(["verify", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_two(capsys):
    assert run([]) == 2


def test_chart_rejects_table_formats(capsys):
    assert run(["chart", "--format", "json"]) == 2
    assert "not valid for chart" in capsys.readouterr().err


def test_tables_reject_chart_formats(capsys):
    assert run(["page", "--format", "svg"]) == 2


def test_unsupported_page_exits_two(tmp_path, capsys):
    assert run_in(tmp_path, "page", *SMALL, "--spectrum", "S", "--page", "3") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("window", [("--s-max", "-1"), ("--t-max", "-2"), ("--t-max", "-3")], ids="".join)
def test_ext_on_an_empty_box_exits_two(tmp_path, capsys, window):
    # ext's box is s <= min(s_max, 8), -1 <= t <= min(t_max, 16); one row
    # short of empty it still writes a table
    assert run_in(tmp_path, "ext", *window, "--no-cache") == 2
    assert capsys.readouterr().err.startswith("error: empty ext box")
    assert list(tmp_path.iterdir()) == []
    assert run_in(tmp_path, "ext", "--s-max", "0", "--t-max", "-1", "--no-cache") == 0
    assert read_rows(tmp_path / "ext-EndM.json")


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max=20\ns-max=5\nv1-min=-5\nv1-max=5\nspectrum=M\n# comment\n\n")
    assert run_in(tmp_path, "page", "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "page-M-r2.json").read_text())
    assert doc["meta"]["window"] == "t_max=20,s_max=5,v1_min=-5,v1_max=5"
    assert run_in(tmp_path, "page", "--config", str(cfg), "--t-max", "16") == 0
    doc = json.loads((tmp_path / "page-M-r2.json").read_text())
    assert doc["meta"]["window"].startswith("t_max=16")


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("bogus=1\n")
    assert run_in(tmp_path, "page", "--config", str(bad_key)) == 2
    bad_int = tmp_path / "bad2.cfg"
    bad_int.write_text("t-max=sixty\n")
    assert run_in(tmp_path, "page", "--config", str(bad_int)) == 2
    assert run_in(tmp_path, "page", "--config", str(tmp_path / "missing.cfg")) == 2
    capsys.readouterr()
    # t_max and t-max name one key: a second value is an error, not an override
    repeated = tmp_path / "bad3.cfg"
    repeated.write_text("# window\nt_max=16\n\nt-max=32\n")
    assert run_in(tmp_path, "page", "--config", str(repeated)) == 2
    err = capsys.readouterr().err
    assert f"{repeated}:4: key 't_max' repeats line 2" in err
    assert "Traceback" not in err


def test_config_file_bad_chart_target_names_the_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("what=foo\n")
    assert run_in(tmp_path, "chart", *SMALL, "--config", str(cfg), "--no-cache") == 2
    err = capsys.readouterr().err
    assert err == "error: chart target must be page or decomposition, got 'foo'\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"t_max=\xff\xfe32\n")
    assert run_in(tmp_path, "page", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "page-M-r2.json").exists()


def test_workers_flag_is_a_usage_error(tmp_path, capsys):
    assert run_in(tmp_path, "page", *SMALL, "--workers", "2") == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err
    assert "Traceback" not in err


def test_workers_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers=2\n")
    assert run_in(tmp_path, "page", *SMALL, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "unknown key 'workers'" in err
    assert "Traceback" not in err


def test_cache_key_depends_on_config_not_out():
    base = dict(cmd="page", t_max=8, s_max=2, v1_min=-2, v1_max=2, page=2,
                spectrum="M", format="json", out=".", no_cache=False,
                what="page")
    a = RunConfig(**base)
    b = RunConfig(**{**base, "out": "/elsewhere", "no_cache": True})
    c = RunConfig(**{**base, "t_max": 10})
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != c.cache_key()


def test_cache_key_follows_package_source(monkeypatch):
    cfg = RunConfig(cmd="page", t_max=8, s_max=2, v1_min=-2, v1_max=2, page=2,
                    spectrum="M", format="json", out=".", no_cache=False,
                    what="page")
    before = cfg.cache_key()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cfg.cache_key() != before


def _cache_entry(out):
    """The one cache entry under out."""
    entries = list((out / ".cache").iterdir())
    assert len(entries) == 1, entries
    return entries[0]


def test_cold_run_removes_entries_of_older_programs(tmp_path, capsys, monkeypatch):
    """An entry is named after the source digest and the key.  A cold
    write removes every entry whose name lacks the current digest: one
    named by the key alone, one of another digest, and one in the older
    .json format.  A write in flight (.tmp-*) stays, and the entry it
    wrote replays."""
    argv = ["ext", "--spectrum", "S"]
    assert run_in(tmp_path, *argv) == 0
    fresh_out = capsys.readouterr().out
    entry = _cache_entry(tmp_path)
    digest, key = entry.name[: -len(".entry")].split("-")
    assert digest == cli._source_digest() and len(key) == 64
    stored = entry.read_bytes()
    cache = tmp_path / ".cache"
    stale = [f"{key}.entry", f"{'0' * 64}-{key}.entry", f"{key}.json"]
    for name in stale:
        (cache / name).write_bytes(stored)
    (cache / ".tmp-inflight").write_bytes(b"")
    entry.unlink()
    assert run_in(tmp_path, *argv) == 0
    assert capsys.readouterr() == (fresh_out, "")
    assert _files_left(cache) == sorted([".tmp-inflight", entry.name])
    (cache / ".tmp-inflight").unlink()
    assert _cache_entry(tmp_path).read_bytes() == stored
    monkeypatch.setitem(cli._DISPATCH, "ext", lambda cfg: pytest.fail("a replay computes nothing"))
    assert run_in(tmp_path, *argv) == 0
    assert capsys.readouterr() == (fresh_out, "")


def _entry_parts(data):
    """The decoded header line of an entry and the bytes after it."""
    line, body = data.split(b"\n", 1)
    return json.loads(line), body


def _joined(header, body):
    """An entry of header and body, framed as run() frames it."""
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body


def _sealed(header, blobs):
    """The entry run() would write for header and files: each file's length
    in name order, the digest run() stores, then the bytes of each file."""
    names = sorted(blobs)
    digest = cli._payload_digest(header["exit_code"], header["stdout"].encode(), blobs)
    header = {**header, "files": [[rel, len(blobs[rel])] for rel in names], "sha256": digest}
    return _joined(header, b"".join(blobs[rel] for rel in names))


def _files_left(out):
    return sorted(p.name for p in out.iterdir())


# each tamper edits the header in place and returns the bytes that follow it


def _change_a_digit(header, body):
    i = body.rindex(b"1\n    ]")  # the last row's dimension
    return body[:i] + b"2" + body[i + 1 :]


def _change_a_stdout_byte(header, body):
    header["stdout"] = header["stdout"].replace("page", "paje", 1)
    return body


def _drop_a_file(header, body):
    header["files"] = []
    return b""


def _lone_surrogate_in_stdout(header, body):
    header["stdout"] = "\ud800" + header["stdout"]
    return body


def _cut_the_last_byte(header, body):
    return body[:-1]


def _add_a_trailing_byte(header, body):
    return body + b"\n"


def _length_one_short(header, body):
    header["files"][0][1] -= 1
    return body


def _length_one_long(header, body):
    header["files"][0][1] += 1
    return body


def _negative_length(header, body):
    # the lengths still add up to the bytes after the header
    (name, n), = header["files"]
    header["files"] = [["a.txt", -1], [name, n + 1]]
    return body


def _true_as_a_length(header, body):
    (name, n), = header["files"]
    header["files"] = [["a.txt", True], [name, n - 1]]
    return body


def _huge_length(header, body):
    # read() of this many bytes would raise MemoryError
    header["files"][0][1] = 10**15
    return body


@pytest.mark.parametrize(
    "tamper",
    [
        _change_a_digit,
        _change_a_stdout_byte,
        _drop_a_file,
        _lone_surrogate_in_stdout,
        _cut_the_last_byte,
        _add_a_trailing_byte,
        _length_one_short,
        _length_one_long,
        _negative_length,
        _true_as_a_length,
        _huge_length,
    ],
)
def test_altered_entry_is_recomputed(tmp_path, capsys, tamper):
    argv = ["page", "--spectrum", "M", "--t-max", "24"]
    assert run_in(tmp_path, *argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = (tmp_path / "page-M-r2.json").read_bytes()
    entry = _cache_entry(tmp_path)
    stored = entry.read_bytes()
    header, body = _entry_parts(stored)
    altered = _joined(header, tamper(header, body))
    assert altered != stored
    entry.write_bytes(altered)
    assert run_in(tmp_path, *argv) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh_out
    assert captured.err == ""
    assert (tmp_path / "page-M-r2.json").read_bytes() == fresh
    assert _files_left(tmp_path) == [".cache", "page-M-r2.json"]
    # the recomputed run rewrites the entry as it first was
    assert entry.read_bytes() == stored


def test_each_artifact_is_stored_once_and_verbatim(tmp_path):
    argv = ["chart", "page", "--spectrum", "M", "--page", "2", "--format", "svg", "--t-max", "24"]
    assert run_in(tmp_path, *argv) == 0
    svg = (tmp_path / "chart-page-M-r2.svg").read_bytes()
    entry = _cache_entry(tmp_path).read_bytes()
    line = entry.split(b"\n", 1)[0]
    assert entry == line + b"\n" + svg
    header = json.loads(line)
    assert line == json.dumps(header, sort_keys=True).encode()
    assert set(header) == {"exit_code", "stdout", "files", "sha256"}
    assert header["files"] == [["chart-page-M-r2.svg", len(svg)]]


@pytest.mark.parametrize(
    "manifest",
    [
        {"stdout": "x"},
        {"exit_code": 0, "stdout": "x"},
        {"exit_code": "0", "stdout": "x", "files": []},
        {"exit_code": True, "stdout": "x", "files": []},
        {"exit_code": 0, "stdout": ["x"], "files": []},
        {"exit_code": 0, "stdout": "x", "files": ["a.json"]},
        {"exit_code": 0, "stdout": "x", "files": {"a.json": 1}},
        ["not", "a", "manifest"],
        {"exit_code": 0, "stdout": "x", "files": [["a.json"]]},
        {"exit_code": 0, "stdout": "x", "files": [["a.json", 0, 0]]},
        {"exit_code": 0, "stdout": "x", "files": [[0, 0]]},
        {"exit_code": 0, "stdout": "x", "files": [["a.json", 0.0]]},
    ],
)
def test_malformed_manifest_is_a_miss(tmp_path, capsys, manifest):
    argv = ["ext", "--spectrum", "M"]
    assert run_in(tmp_path, *argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = (tmp_path / "ext-M.json").read_bytes()
    entry = _cache_entry(tmp_path)
    stored = entry.read_bytes()
    entry.write_text(json.dumps(manifest) + "\n")
    (tmp_path / "ext-M.json").unlink()
    assert run_in(tmp_path, *argv) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh_out
    assert captured.err == ""
    assert (tmp_path / "ext-M.json").read_bytes() == fresh
    # the recomputed run rewrites a valid entry
    assert entry.read_bytes() == stored


def test_deeply_nested_manifest_is_a_miss(tmp_path, capsys):
    """A header nested past the parser's recursion limit makes json.loads
    raise RecursionError, which is a miss like any other malformed entry."""
    argv = ["ext", "--spectrum", "M"]
    assert run_in(tmp_path, *argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = (tmp_path / "ext-M.json").read_bytes()
    entry = _cache_entry(tmp_path)
    stored = entry.read_bytes()
    entry.write_text("[" * 200_000 + "]" * 200_000 + "\n")
    (tmp_path / "ext-M.json").unlink()
    assert run_in(tmp_path, *argv) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh_out
    assert captured.err == ""
    assert (tmp_path / "ext-M.json").read_bytes() == fresh
    assert entry.read_bytes() == stored


def test_malformed_manifest_keeps_failure_exit_code(tmp_path, monkeypatch):
    bad = Report("w-grading", [CheckRow("w-step", (0, 0, 0), 1, 2, "mismatch")], True)
    monkeypatch.setattr(Workbench, "verify_w_grading", lambda self: bad)
    argv = ["verify", *SMALL]
    assert run_in(tmp_path, *argv) == 1
    entry = _cache_entry(tmp_path)
    stored = entry.read_bytes()
    assert _entry_parts(stored)[0]["exit_code"] == 1
    entry.write_text('{"stdout": "x"}\n')
    assert run_in(tmp_path, *argv) == 1
    assert entry.read_bytes() == stored
    # without the broken report only a replay still exits 1
    monkeypatch.undo()
    assert run_in(tmp_path, *argv) == 1


def _assert_recomputed(out, capsys, altered):
    """Put altered in place of the entry of `ext --spectrum S` under out and
    check that the rerun is a miss: exit 0, no stderr, the fresh stdout and
    table, no other file written, and the entry rewritten as it first was."""
    argv = ["ext", "--spectrum", "S"]
    assert run_in(out, *argv) == 0
    fresh_out = capsys.readouterr().out
    fresh = (out / "ext-S.json").read_bytes()
    entry = _cache_entry(out)
    stored = entry.read_bytes()
    entry.write_bytes(altered)
    assert run_in(out, *argv) == 0
    assert capsys.readouterr() == (fresh_out, "")
    assert (out / "ext-S.json").read_bytes() == fresh
    assert _files_left(out) == [".cache", "ext-S.json"]
    assert entry.read_bytes() == stored


@pytest.mark.parametrize(
    "files",
    [
        [["b.txt", 1], ["a.txt", 1]],
        [["a.txt", 1], ["a.txt", 1]],
        [["a.txt", -1], ["b.txt", 3]],
        [["a.txt", True], ["b.txt", 1]],
    ],
    ids=["unsorted", "repeated", "negative", "bool"],
)
def test_sealed_entry_with_a_malformed_file_list_is_a_miss(tmp_path, capsys, files):
    """The lengths add up to the bytes after the header, and the digest
    matches what a reader trusting every pair would read, so only the form
    of the file list makes it a miss."""
    body = io.BytesIO(b"xy")
    trusted = {rel: body.read(n) for rel, n in files}
    digest = cli._payload_digest(0, b"replayed\n", trusted)
    _assert_recomputed(
        tmp_path / "out", capsys,
        _joined({"exit_code": 0, "stdout": "replayed\n", "files": files, "sha256": digest}, b"xy"),
    )


@pytest.mark.parametrize(
    "name", ["../escape.txt", "sub/../../escape.txt", "{tmp}/escape.txt", ".", "nul\0.txt"]
)
def test_manifest_names_outside_out_are_a_miss(tmp_path, capsys, name):
    name = name.format(tmp=tmp_path)
    # a digest and lengths that match, so only the name makes it a miss
    _assert_recomputed(tmp_path / "out", capsys, _sealed({"exit_code": 0, "stdout": "replayed\n"}, {name: b"x"}))
    assert not (tmp_path / "escape.txt").exists()


def test_manifest_names_inside_out_replay(tmp_path, capsys):
    argv = ["ext", "--spectrum", "S"]
    assert run_in(tmp_path, *argv) == 0
    capsys.readouterr()
    entry = _cache_entry(tmp_path)
    files = {"sub/../a.txt": b"a", "sub/b.txt": b"b"}
    entry.write_bytes(_sealed({"exit_code": 0, "stdout": "replayed\n"}, files))
    assert run_in(tmp_path, *argv) == 0
    assert capsys.readouterr().out == "replayed\n"
    assert (tmp_path / "a.txt").read_text() == "a"
    assert (tmp_path / "sub" / "b.txt").read_text() == "b"


def test_replay_write_error_exits_two(tmp_path, capsys):
    argv = ["ext", "--spectrum", "M"]
    assert run_in(tmp_path, *argv) == 0
    capsys.readouterr()
    (tmp_path / "ext-M.json").unlink()
    (tmp_path / "ext-M.json").mkdir()
    assert run_in(tmp_path, *argv) == 2
    assert "cannot write output" in capsys.readouterr().err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_SEEDED_RUNS = (
    "ext --spectrum S",
    "ext --spectrum M",
    "ext --spectrum EndM",
    "page --spectrum M --t-max 24",
)
# one interpreter per hash seed runs every command, to pay the import once
_DRIVER = (
    "import sys; from moorev1.cli import run; "
    "sys.exit(max(run(a.split() + ['--out', sys.argv[1]]) for a in sys.argv[2:]))"
)


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_outputs_identical_across_hash_seeds(tmp_path):
    procs = {}
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
        procs[seed] = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, str(tmp_path / seed), *_SEEDED_RUNS],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    results = {seed: p.communicate(timeout=120) + (p.returncode,) for seed, p in procs.items()}
    for out, err, code in results.values():
        assert code == 0, err.decode()
    assert results["0"][0] == results["12345"][0]
    assert results["0"][0].decode().count("->") == len(_SEEDED_RUNS)
    trees = {seed: _tree_bytes(tmp_path / seed) for seed in procs}
    assert {"ext-S.json", "ext-M.json", "ext-EndM.json", "page-M-r2.json"} <= set(trees["0"])
    assert trees["0"] == trees["12345"]


def test_identity_check_row_is_pinned():
    assert cli._identity_check_report().rows == [CheckRow("identity-vs-alpha-h11", (1, 2), 0, 0, "ok")]


# ---- one parser per process ----


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_carries_nothing_past_errors_and_help(tmp_path, capsys):
    """A usage error and --help on the shared parser leave the next op as
    it would be first in a fresh process: exit code, stdout and files."""
    argv = ["page", "--t-max", "16"]
    assert run(["page", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err
    assert run(["page", "--help"]) == 0
    assert "--spectrum" in capsys.readouterr().out
    code = run([*argv, "--out", str(tmp_path / "here")])
    out = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    fresh = subprocess.run(
        [sys.executable, "-m", "moorev1", *argv, "--out", str(tmp_path / "fresh")],
        env=env, capture_output=True, timeout=120,
    )
    assert (code, out.encode()) == (fresh.returncode, fresh.stdout)
    assert _tree_bytes(tmp_path / "here") == _tree_bytes(tmp_path / "fresh")


def test_chart_target_is_not_carried_over(tmp_path, capsys):
    assert run_in(tmp_path, "chart", "decomposition", "--t-max", "16") == 0
    assert run_in(tmp_path, "chart", "--t-max", "16") == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("chart page EndM r=2:")
    assert cli._resolve(cli._build_parser().parse_args(["chart"])).what == "page"


def test_spectrum_flag_is_not_carried_over(tmp_path, capsys):
    """The config file's spectrum applies once the flag is gone: a
    spectrum left behind by the last call would override it."""
    config = tmp_path / "m.cfg"
    config.write_text("spectrum = M\n")
    assert run_in(tmp_path, "page", "--t-max", "16", "--spectrum", "EndM") == 0
    assert run_in(tmp_path, "page", "--t-max", "16", "--config", str(config)) == 0
    assert (tmp_path / "page-M-r2.json").exists()
    assert capsys.readouterr().out.splitlines()[1].startswith("page M r=2:")


def _asdict_cache_key(cfg):
    """The cache key as computed from dataclasses.asdict."""
    payload = asdict(cfg)
    del payload["out"]
    del payload["no_cache"]
    payload["version"] = cli.__version__
    payload["source"] = cli._source_digest()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("cmd", sorted(cli._DISPATCH))
def test_cache_key_matches_the_asdict_formula(cmd):
    cfg = cli._resolve(cli._build_parser().parse_args([cmd]))
    assert cfg.cache_key() == _asdict_cache_key(cfg)


def test_cache_key_matches_the_asdict_formula_with_every_field_set():
    cfg = RunConfig(cmd="chart", t_max=40, s_max=6, v1_min=-3, v1_max=5, page=4,
                    spectrum="M", format="txt", out="/elsewhere", no_cache=True,
                    what="decomposition")
    assert cfg.cache_key() == _asdict_cache_key(cfg)

