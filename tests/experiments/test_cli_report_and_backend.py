"""CLI regressions: `sweep report` on empty stores and `--backend`.

`sweep report` against a missing, zero-byte or truncated-only results
store is a normal state (a store is "just created" the moment a sweep is
configured), so it must say "no results" and exit 0 — never raise.  The
`--backend` flag must validate up front, execute cells on the chosen
engine, and stay *out* of the cell key so stores resume across backends.
Outside the test tree it offers only the shipped engines: ``reference``
is the test tree's oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ResultsStore, expand_matrix

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    return tmp_path


class TestReportEmptyStore:
    def check_no_results(self, out_path, capsys):
        rc = main(["sweep", "report", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no results" in captured.out
        assert "Traceback" not in captured.err

    def test_missing_store(self, tmp_path, capsys):
        self.check_no_results(tmp_path / "nope.jsonl", capsys)

    def test_zero_byte_store(self, tmp_path, capsys):
        out = tmp_path / "empty.jsonl"
        out.touch()
        self.check_no_results(out, capsys)

    def test_store_with_only_truncated_line(self, tmp_path, capsys):
        out = tmp_path / "truncated.jsonl"
        out.write_text('{"key": "abc", "result": {"graph": "t"')
        self.check_no_results(out, capsys)

    def test_default_store_location_missing(self, capsys):
        rc = main(["sweep", "report"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no results" in captured.out

    def test_populated_store_still_reports(self, tmp_path, capsys):
        small = ["--graphs", "twitter", "--algorithms", "BFS",
                 "--frameworks", "ligra", "--orderings", "original,vebo",
                 "--scale", "0.04"]
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", "run", *small, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sweep", "report", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "no results" not in captured.out
        assert "geomean vebo speedup over original" in captured.out


class TestBackendFlag:
    SMALL = ["--graphs", "twitter", "--algorithms", "PR,BFS",
             "--frameworks", "ligra", "--orderings", "original",
             "--scale", "0.04"]

    def test_unknown_backend_fails_before_any_cell_runs(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        rc = main(["sweep", "run", *self.SMALL, "--out", str(out),
                   "--backend", "warp-drive"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown engine backend" in captured.err
        assert not out.exists() or len(ResultsStore(out)) == 0

    def test_reference_backend_unknown_outside_the_test_tree(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "run", *self.SMALL,
             "--out", str(tmp_path / "s.jsonl"), "--backend", "reference"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert ("unknown engine backend 'reference'; "
                "available: ['parallel', 'vectorized']") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "s.jsonl").exists()

    def test_backend_not_in_cell_key(self):
        ref = expand_matrix(["twitter"], ["PR"], ["ligra"], ["original"],
                            backend="reference")
        vec = expand_matrix(["twitter"], ["PR"], ["ligra"], ["original"],
                            backend="vectorized")
        assert ref[0].backend == "reference"
        assert vec[0].backend == "vectorized"
        assert ref[0].key() == vec[0].key()

    def test_store_resumes_across_backends(self, tmp_path, capsys):
        """Cells persisted under one backend are replayed, not recomputed,
        when the sweep is resumed under the other — backends are
        bit-identical, so the key deliberately ignores them."""
        out = tmp_path / "s.jsonl"
        assert main(["sweep", "run", *self.SMALL, "--out", str(out),
                     "--backend", "reference"]) == 0
        first = ResultsStore(out).records()
        capsys.readouterr()
        assert main(["sweep", "run", *self.SMALL, "--out", str(out),
                     "--resume", "--backend", "vectorized"]) == 0
        captured = capsys.readouterr()
        assert f"{len(first)} resumed from store" in captured.out
        assert ResultsStore(out).records().keys() == first.keys()

    def test_backends_produce_identical_stores(self, tmp_path, capsys):
        """The same matrix swept on each backend persists byte-identical
        modeled results (`ordering_seconds` is wall clock and exempt; the
        shared artifact cache replays it here, so even that matches)."""
        ref_out = tmp_path / "ref.jsonl"
        vec_out = tmp_path / "vec.jsonl"
        assert main(["sweep", "run", *self.SMALL, "--out", str(ref_out),
                     "--backend", "reference"]) == 0
        assert main(["sweep", "run", *self.SMALL, "--out", str(vec_out),
                     "--backend", "vectorized"]) == 0
        ref = ResultsStore(ref_out).records()
        vec = ResultsStore(vec_out).records()
        assert ref.keys() == vec.keys()
        for key, a in ref.items():
            assert a.to_dict() == vec[key].to_dict()
