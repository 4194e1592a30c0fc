"""Observability never changes what the computation persists.

The pin the whole subsystem hangs off: a sweep run with obs on and an
identical sweep run with obs off produce **byte-identical** results
stores and artifact caches (same keys, same file digests).  Both runs
start from copies of the same warm base cache so the one legitimately
non-deterministic input — the wall-clock ``seconds`` recorded when an
ordering is first built — replays identically from the copied artifact
instead of being re-measured.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from repro import obs
from repro.experiments import ResultsStore, expand_matrix, run_cells
from repro.obs import core
from repro.store import ArtifactCache
from repro.store.cache import ARTIFACT_KINDS


def make_cells():
    return expand_matrix(
        ["powerlaw", "twitter"], ["PR", "BFS"], ["ligra", "polymer"],
        ["original", "vebo"], params={"scale": 0.02},
        algo_kwargs={"PR": {"num_iterations": 2}},
    )


def cache_digests(root) -> dict[str, str]:
    """sha256 of every artifact file, keyed by kind/name (measurement
    excluded: it holds wall-clock observations, documented as
    non-deterministic, and is empty here anyway)."""
    out = {}
    for kind in ARTIFACT_KINDS:
        kind_dir = root / kind
        if not kind_dir.is_dir():
            continue
        for path in sorted(kind_dir.iterdir()):
            # Bundles are directories of sidecar files; a stray file
            # beside them is digested too, so no byte escapes the check.
            members = sorted(path.rglob("*")) if path.is_dir() else [path]
            for member in members:
                if member.is_file():
                    rel = member.relative_to(kind_dir)
                    out[f"{kind}/{rel}"] = hashlib.sha256(
                        member.read_bytes()
                    ).hexdigest()
    return out


def run_once(cache_root, results_path, jobs: int = 1):
    cells = make_cells()
    run_cells(
        cells, jobs=jobs, store=ResultsStore(results_path), resume=True,
        cache=ArtifactCache(cache_root),
    )
    return cells


@pytest.fixture(scope="module")
def warm_base(tmp_path_factory):
    """A cache holding the graph/ordering/partition artifacts the sweep
    needs — but no traces, so both comparison runs execute for real."""
    base = tmp_path_factory.mktemp("identity") / "base"
    run_once(base, base.parent / "seed-results.jsonl")
    cache = ArtifactCache(base)
    assert cache.clean(kind="trace")  # force both runs to re-execute
    return base


class TestObsByteIdentity:
    def test_results_and_cache_identical_obs_on_vs_off(
        self, warm_base, tmp_path, monkeypatch,
    ):
        dir_off = tmp_path / "off"
        dir_on = tmp_path / "on"
        shutil.copytree(warm_base, dir_off)
        shutil.copytree(warm_base, dir_on)

        monkeypatch.delenv(core.OBS_ENV_VAR, raising=False)
        monkeypatch.delenv(core.OBS_DIR_ENV_VAR, raising=False)
        core.reset()
        run_once(dir_off, tmp_path / "off-results.jsonl")

        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(dir_on / "obs"))
        core.reset()
        try:
            cells = run_once(dir_on, tmp_path / "on-results.jsonl")
        finally:
            core.reset()
            monkeypatch.delenv(core.OBS_ENV_VAR)
            monkeypatch.delenv(core.OBS_DIR_ENV_VAR)

        # The obs-on run really did record events...
        events = obs.read_events(dir_on / "obs")
        assert len(events) > len(cells)
        assert not (dir_off / "obs").exists()

        # ...yet the results stores are byte-identical...
        off_bytes = (tmp_path / "off-results.jsonl").read_bytes()
        on_bytes = (tmp_path / "on-results.jsonl").read_bytes()
        assert off_bytes == on_bytes

        # ...and so is every artifact: same keys, same file digests.
        digests_off = cache_digests(dir_off)
        digests_on = cache_digests(dir_on)
        assert set(digests_off) == set(digests_on)
        assert digests_off == digests_on
        # Both runs wrote fresh traces (the base had none), so the
        # comparison covered newly-created artifacts, not just replays.
        assert any(name.startswith("trace/") for name in digests_off)

    def test_obs_files_invisible_to_cache_enumeration(
        self, warm_base, tmp_path, monkeypatch,
    ):
        root = tmp_path / "scan"
        shutil.copytree(warm_base, root)
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.setenv(core.OBS_DIR_ENV_VAR, str(root / "obs"))
        core.reset()
        try:
            run_once(root, tmp_path / "scan-results.jsonl")
        finally:
            core.reset()
        cache = ArtifactCache(root)
        assert (root / "obs").is_dir()
        kinds = {kind for kind, _key, _size in cache.entries()}
        assert kinds <= set(ARTIFACT_KINDS)
        # clean() must not touch the event log either.
        cache.clean()
        assert list((root / "obs").glob("events-*.jsonl"))
