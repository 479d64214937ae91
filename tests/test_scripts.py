"""Smoke tests of the scripts under scripts/, run as their command lines run
them: every CSV they write has its header and row count, and every value in
it is finite."""

import csv
import json
import math
import pathlib
import re
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def assert_finite(rows):
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row if v != ""), row


# file -> (columns after t, rows), as scripts/emit_figure_data.py asks for them
_FIGURES = {
    **{f"matern_plus_nu{nu}": ([f"plus_{m}" for m in range(7)], 701) for nu in (1, 2)},
    **{f"matern_null_nu{nu}": ([f"null_{m}" for m in range(nu + 1)], 1201) for nu in (2, 9)},
    **{f"matern_truncated_nu{nu}_n{n}": ([f"truncated_n{n}"], 1001)
       for nu, n in ((0, 8), (1, 8), (1, 64))},
    **{f"cauchy_{kind}": ([f"{kind}_{m}" for m in range(6)], 1201) for kind in ("alpha", "beta")},
    **{f"cauchy_truncated_n{n}": ([f"truncated_n{n}"], 801) for n in (1, 3, 11)},
    "gaussian_basis": ([f"psi_{m}" for m in range(6)], 1001),
    **{f"gaussian_truncated_n{n}": ([f"truncated_n{n}"], 1001) for n in (1, 3, 11, 30)},
}


def test_emit_figure_data_writes_every_figure(monkeypatch, tmp_path):
    run_script(monkeypatch, "emit_figure_data.py", "--outdir", str(tmp_path))
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(_FIGURES)
    for name, (columns, count) in _FIGURES.items():
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", *columns], name
        assert len(rows) == count and all(len(row) == len(header) for row in rows), name
        assert_finite(rows)


def test_truncation_study_tabulates_every_family(monkeypatch, capsys):
    run_script(monkeypatch, "truncation_study.py")
    header, *rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert header == ["family", "nu", "n", "exact_hs", "bound", "max_pointwise"]
    levels = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    expected = ([("matern", str(nu), str(n)) for nu in range(5) for n in levels]
                + [(family, "", str(n)) for family in ("cauchy", "gaussian") for n in levels])
    assert [tuple(row[:3]) for row in rows] == expected
    assert all(len(row) == len(header) for row in rows)
    assert_finite(row[1:] for row in rows)
    # every column that a family has is filled in
    for row in rows:
        filled = {"matern": [3, 4, 5], "cauchy": [5], "gaussian": [3, 5]}[row[0]]
        assert all(row[i] != "" for i in filled), row


def test_output_hashes_are_one_repeatable_digest_per_workload(monkeypatch, capsys):
    # the script pins the BLAS threads and puts the checkout on sys.path;
    # both are put back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = []
    for _ in range(2):
        run_script(monkeypatch, "output_hashes.py", "--seeds", "7")
        runs.append(capsys.readouterr().out.splitlines())
    assert [re.fullmatch(r"[0-9a-f]{64}  (\w+) seed=7", line)[1] for line in runs[0]] == [
        "features", "grid", "krr"]
    assert runs[1] == runs[0]


def _write_report(path, rows):
    # rows of deviation checks: each passes where |computed| <= tol
    path.write_text("".join(json.dumps(dict(check_name=name, computed=computed,
                                            abs_error=abs(computed), tolerance=tol,
                                            passed=abs(computed) <= tol))
                            + "\n" for name, computed, tol in rows))


# one ulp of 1.0; verify_diff reads errors up to its FLOOR of four ulp as the floor
_ULP = 2.0**-52


@pytest.mark.parametrize("change, code", [
    ("moved", 0), ("floor", 0), ("added", 1), ("removed", 1), ("tolerance", 1), ("failed", 1),
    ("drift_up", 1), ("drift_down", 1),
])
def test_verify_diff_lists_every_change(monkeypatch, capsys, tmp_path, change, code):
    old = [("a", 1.0, 1e-12), ("b", 2.0, 1e-8), ("c", 0.0, 1e-6)]
    new = {"moved": [("a", 1.0, 1e-12), ("b", 19.0, 1e-8), ("c", -0.0, 1e-6)],
           "floor": [("a", 1.0, 1e-12), ("b", 2.0, 1e-8), ("c", 3 * _ULP, 1e-6)],
           "added": [("a", 1.0, 1e-12), ("b", 2.0, 1e-8), ("c", 0.0, 1e-6), ("d", 3.0, 1e-6)],
           "removed": [("a", 1.0, 1e-12), ("b", 2.0, 1e-8)],
           "tolerance": [("a", 1.0, 1e-12), ("b", 2.0, 1e-7), ("c", 0.0, 1e-6)],
           "failed": [("a", 1.0, 1e-12), ("b", 2.0, 1e-8), ("c", 2e-6, 1e-6)],
           "drift_up": [("a", 1.0, 1e-12), ("b", 2.0, 1e-8), ("c", 1e-14, 1e-6)],
           "drift_down": [("a", 1.0, 1e-12), ("b", 0.1, 1e-8), ("c", 0.0, 1e-6)]}[change]
    _write_report(tmp_path / "old.jsonl", old)
    _write_report(tmp_path / "new.jsonl", new)
    with pytest.raises(SystemExit) as exit_:
        run_script(monkeypatch, "verify_diff.py", str(tmp_path / "old.jsonl"),
                   str(tmp_path / "new.jsonl"))
    assert exit_.value.code == code
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == {
        "moved": ["moved b: 2.0 -> 19.0 (tol 1e-08)", "moved c: 0.0 -> -0.0 (tol 1e-06)"],
        "floor": [f"moved c: 0.0 -> {3 * _ULP!r} (tol 1e-06)"],
        "added": ["added d"],
        "removed": ["removed c"],
        "tolerance": ["tolerance b: 1e-08 -> 1e-07"],
        "failed": ["moved c: 0.0 -> 2e-06 (tol 1e-06)",
                   "drifted c: abs_error 0.0 -> 2e-06, past a factor 10", "failed c"],
        "drift_up": ["moved c: 0.0 -> 1e-14 (tol 1e-06)",
                     "drifted c: abs_error 0.0 -> 1e-14, past a factor 10"],
        "drift_down": ["moved b: 2.0 -> 0.1 (tol 1e-08)",
                       "drifted b: abs_error 2.0 -> 0.1, past a factor 10"]}[change]
    assert summary.endswith(f"of 3 -> {len(new)} checks")
