"""Content-addressed on-disk artifact cache.

Building the evaluation graphs, running the vertex orderings and
executing the algorithms dominate the wall-clock cost of the benchmark
harness.  All of those artifacts are deterministic functions of (a) a
dataset/graph identity and (b) the build parameters, so they are perfect
candidates for a content-addressed cache: the cache *key* is a SHA-256
digest over a canonical JSON encoding of the identifying payload, and the
cache *value* is a bundle of numpy arrays (see
:mod:`repro.store.serialization` and :mod:`repro.store.traces`).

Bundle format v2 (current)
--------------------------
One **directory** per artifact, holding one plain ``.npy`` sidecar file
per array plus a JSON manifest::

    <root>/
        graph/<40-hex-key>/
            manifest.json       magic marker, version, name -> file map
            a0000.npy           first array
            a0001.npy           ...
        ordering/<40-hex-key>/...
        trace/<40-hex-key>/...

Plain ``.npy`` members are what makes the warm path *zero-copy*: unlike a
compressed ``.npz``, they can be memory-mapped (``np.load(mmap_mode='r')``),
so a cache hit hands the engines page-cache-backed, read-only views of the
on-disk bytes instead of decompressing a private heap copy per load.

Every bundle embeds a magic marker (``manifest.json``'s ``magic`` field)
so :meth:`ArtifactCache.clean` can prove a bundle is cache-owned before
deleting it; foreign files inside the cache root are never touched.  The
monolithic ``<key>.npz`` archives of bundle format v1 are no longer read:
one left over in a cache root is a foreign file, so its key is a clean
miss that rebuilds a v2 bundle beside it (delete the cache root to
reclaim the space).  The ``partition/`` and ``edgeorder/`` bundles of
older releases are no longer read or cleaned either:
:meth:`ArtifactCache.retired_entries` (``datasets list``) reports them,
and they are deleted by hand.

Read-only contract
------------------
Every array returned by :meth:`ArtifactCache.load` has
``writeable=False`` — memory-mapped or not.  Callers that need to mutate
must copy; a caller scribbling on a cache-returned buffer could otherwise
corrupt every later hit of the same key (and, under mmap, the on-disk
bytes themselves).

Configuration
-------------
``REPRO_CACHE_DIR``
    Overrides the default cache root
    (``$XDG_CACHE_HOME/repro-vebo`` or ``~/.cache/repro-vebo``).
``REPRO_CACHE_OFF``
    Any non-empty value disables caching globally: :func:`resolve_cache`
    returns ``None`` and all cache-aware call sites fall back to building
    from scratch.
``REPRO_MMAP``
    Any non-empty value makes bundle loads memory-map their arrays
    (``np.load(mmap_mode='r')``) instead of reading them eagerly.  Hits
    then cost O(1) RSS until pages are touched, and N loads of the same
    bundle share one set of physical pages.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.errors import CacheError

__all__ = [
    "ARTIFACT_KINDS",
    "BUNDLE_VERSION",
    "MMAP_ENV_VAR",
    "ArtifactCache",
    "artifact_key",
    "array_fingerprint",
    "default_cache",
    "default_cache_root",
    "mmap_enabled",
    "resolve_cache",
]

#: Manifest filename inside every v2 bundle directory.
MANIFEST_NAME = "manifest.json"
#: v2 marker value, stored in the manifest's ``magic`` field.
MAGIC_VALUE_V2 = "repro-artifact-v2"
#: Current bundle layout version (written by :meth:`ArtifactCache.store`).
BUNDLE_VERSION = 2

#: The artifact families the cache knows how to segregate on disk.
ARTIFACT_KINDS = ("graph", "ordering", "trace")

#: Environment gate for memory-mapped loads (``--mmap`` on the CLI).
MMAP_ENV_VAR = "REPRO_MMAP"

_KEY_HEX_CHARS = 40  # truncated SHA-256; 160 bits is ample for a local cache


def mmap_enabled() -> bool:
    """True when ``REPRO_MMAP`` asks for memory-mapped bundle loads."""
    return bool(os.environ.get(MMAP_ENV_VAR))


def _canonical(value):
    """Recursively convert ``value`` into something ``json.dumps`` renders
    deterministically (numpy scalars -> python scalars, tuples -> lists)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__array_sha256__": array_fingerprint(value)}
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CacheError(f"cannot build a cache key from {type(value).__name__!r}")


def artifact_key(kind: str, payload: dict) -> str:
    """Digest the identifying payload of one artifact into a hex key.

    Two payloads produce the same key iff their canonical JSON encodings
    match — so changing any build parameter (scale, seed, partition count,
    algorithm, source-file digest, ...) changes the key.  The bundle
    *format* version is deliberately not part of the key: a format
    change must not move the identity of an artifact.
    """
    blob = json.dumps(
        {"kind": kind, "payload": _canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:_KEY_HEX_CHARS]


def array_fingerprint(*arrays: np.ndarray) -> str:
    """SHA-256 over the dtype/shape/bytes of one or more arrays.

    This is what makes derived artifacts (orderings, traces)
    *content*-addressed: they key on the actual graph arrays, so a cached
    VEBO run can never be replayed against a different graph.
    Works unchanged on memory-mapped inputs (reading pages on demand).
    """
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:_KEY_HEX_CHARS]


def default_cache_root() -> Path:
    """The cache root honouring ``REPRO_CACHE_DIR`` and XDG conventions."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-vebo"


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Enforce the cache's read-only contract on a loaded array."""
    if isinstance(arr, np.ndarray):
        arr.setflags(write=False)
    return arr


def _tree_size(path: Path) -> int:
    """Total byte size of a bundle directory's sidecars.

    Tolerates entries vanishing mid-walk: a concurrent writer of the
    same content-addressed key may replace the bundle under us.
    """
    total = 0
    try:
        for p in path.iterdir():
            try:
                if p.is_file():
                    total += p.stat().st_size
            except OSError:
                continue
    except OSError:
        return 0
    return total


class ArtifactCache:
    """A directory of content-addressed artifact bundles (one directory
    of ``.npy`` sidecars plus a manifest per artifact)."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        """The bundle directory for ``(kind, key)``."""
        if kind not in ARTIFACT_KINDS:
            raise CacheError(f"unknown artifact kind {kind!r}; use one of {ARTIFACT_KINDS}")
        return self.root / kind / key

    def has(self, kind: str, key: str) -> bool:
        return (self.path_for(kind, key) / MANIFEST_NAME).is_file()

    # ------------------------------------------------------------------
    def load(self, kind: str, key: str, unpack: Callable[[dict], object] | None = None):
        """Return the bundle's arrays — or ``unpack(arrays)`` when
        ``unpack`` is given — or ``None`` on a cache miss.

        Every returned array is read-only; with ``REPRO_MMAP`` set, they
        are memory-mapped views of the on-disk bytes.

        A bundle that exists but cannot be parsed (truncated write from a
        crashed process, foreign file at the right path), or whose arrays
        ``unpack`` rejects with :class:`CacheError` (a corrupt member, an
        older layout), is treated as a miss and removed, so a corrupt
        entry can never wedge the cache: outside a refresh, :meth:`store`
        keeps any incumbent bundle, so one left in place would miss on
        every later load.
        """
        path = self.path_for(kind, key)
        if not path.is_dir():
            self._note_get(kind, key, hit=False)
            return None
        try:
            manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not a JSON object")
        except (OSError, ValueError):
            shutil.rmtree(path, ignore_errors=True)
            self._note_get(kind, key, hit=False)
            return None
        if manifest.get("magic") != MAGIC_VALUE_V2:
            # Right name, wrong provenance: do not trust, do not delete.
            self._note_get(kind, key, hit=False)
            return None
        use_mmap = mmap_enabled()
        mapped = 0
        arrays: dict[str, np.ndarray] = {}
        try:
            members = manifest["arrays"]
            if not isinstance(members, dict):
                raise ValueError("manifest 'arrays' is not a mapping")
            for name, fname in members.items():
                fname = str(fname)
                if os.sep in fname or fname.startswith((".", "/")):
                    raise ValueError(f"unsafe member filename {fname!r}")
                member = path / fname
                arr = None
                if use_mmap:
                    try:
                        arr = np.load(member, allow_pickle=False, mmap_mode="r")
                        mapped += 1
                    except ValueError:
                        arr = None  # dtype/shape not mappable: read eagerly
                if arr is None:
                    arr = np.load(member, allow_pickle=False)
                if not isinstance(arr, np.ndarray):
                    raise ValueError(f"member {fname} is not a plain .npy array")
                arrays[str(name)] = _readonly(arr)
            value = arrays if unpack is None else unpack(arrays)
        except (OSError, ValueError, KeyError, CacheError):
            shutil.rmtree(path, ignore_errors=True)
            self._note_get(kind, key, hit=False)
            return None
        self._note_get(kind, key, hit=True, mmapped=mapped > 0)
        return value

    @staticmethod
    def _note_get(kind: str, key: str, hit: bool, mmapped: bool = False) -> None:
        if not obs.enabled():
            return
        obs.event("cache.get", cat="store", kind=kind, key=key, hit=hit, mmap=mmapped)
        obs.metrics().counter(f"cache.{kind}.{'hits' if hit else 'misses'}")
        if mmapped:
            obs.metrics().counter(f"cache.{kind}.mmap_hits")
        rss = obs.rss_bytes()
        if rss:
            obs.metrics().gauge("process.rss_bytes", rss)

    def store(
        self, kind: str, key: str, arrays: dict[str, np.ndarray], refresh: bool = False
    ) -> Path:
        """Atomically persist a v2 bundle (write-to-temp-dir, then rename).

        Sidecar files are named positionally (``a0000.npy``...) and mapped
        back to array names by the manifest, so array names may contain
        characters that are unsafe in filenames (``meta.<key>``, ...).
        An incumbent bundle under the key is kept, unless ``refresh`` is
        set: a refresh rebuilds because the incumbent is suspect, so the
        new bundle swaps it out.
        """
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=".tmp-"))
        try:
            members: dict[str, str] = {}
            for i, (name, arr) in enumerate(arrays.items()):
                fname = f"a{i:04d}.npy"
                np.save(tmp / fname, np.asarray(arr), allow_pickle=False)
                members[str(name)] = fname
            manifest = {
                "magic": MAGIC_VALUE_V2,
                "version": BUNDLE_VERSION,
                "kind": kind,
                "key": key,
                "arrays": members,
            }
            (tmp / MANIFEST_NAME).write_text(
                json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8"
            )
            # Replace-first: outside a refresh, an existing bundle is
            # never removed while other processes may be reading it.  Keys
            # are content digests, so a concurrent writer's bundle is
            # equivalent.
            try:
                os.replace(tmp, path)
            except OSError:
                if not refresh and (path / MANIFEST_NAME).is_file():
                    # Lost the race to an equivalent writer: keep theirs.
                    shutil.rmtree(tmp, ignore_errors=True)
                else:
                    # A refresh, or a corrupt or foreign directory squatting
                    # on the key: evict the incumbent and take one more swing.
                    shutil.rmtree(path, ignore_errors=True)
                    os.replace(tmp, path)
        except OSError as exc:
            shutil.rmtree(tmp, ignore_errors=True)
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
        if obs.enabled():
            size = _tree_size(path)
            obs.event("cache.put", cat="store", kind=kind, key=key, bytes=size)
            obs.metrics().counter(f"cache.{kind}.puts")
            obs.metrics().counter(f"cache.{kind}.bytes_written", size)
        return path

    def get_or_build(
        self,
        kind: str,
        key: str,
        build: Callable[[], dict[str, np.ndarray]],
        refresh: bool = False,
        unpack: Callable[[dict], object] | None = None,
    ) -> tuple[object, bool]:
        """Return ``(arrays, hit)`` — ``(unpack(arrays), hit)`` when
        ``unpack`` is given; on a miss (or a bundle ``unpack`` rejects,
        see :meth:`load`) run ``build`` and persist.  ``refresh=True``
        builds without looking and replaces the stored bundle."""
        if not refresh:
            cached = self.load(kind, key, unpack=unpack)
            if cached is not None:
                return cached, True
        arrays = build()
        self.store(kind, key, arrays, refresh)
        return (arrays if unpack is None else unpack(arrays)), False

    # ------------------------------------------------------------------
    @staticmethod
    def _owns_bundle_dir(path: Path) -> bool:
        try:
            manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
            return isinstance(manifest, dict) and manifest.get("magic") == MAGIC_VALUE_V2
        except (OSError, ValueError):
            return False

    def _owned_paths(self, kinds: Iterable[str]) -> list[Path]:
        owned = []
        for kind in kinds:
            folder = self.root / kind
            if not folder.is_dir():
                continue
            owned.extend(
                path for path in sorted(folder.iterdir())
                if self._owns_bundle_dir(path)
            )
        return owned

    def clean(self, kind: str | None = None) -> list[Path]:
        """Delete cache-owned bundles; return removed paths.

        Only bundles carrying the embedded magic marker are deleted —
        anything else found under the cache root (a user's own npz, a
        stray download, a directory without our manifest) is left alone.
        """
        kinds = (kind,) if kind is not None else ARTIFACT_KINDS
        for k in kinds:
            if k not in ARTIFACT_KINDS:
                raise CacheError(f"unknown artifact kind {k!r}; use one of {ARTIFACT_KINDS}")
        removed = []
        for path in self._owned_paths(kinds):
            shutil.rmtree(path)
            removed.append(path)
        return removed

    def entries(self) -> list[tuple[str, str, int]]:
        """``(kind, key, size_bytes)`` for every cache-owned bundle."""
        out = []
        for path in self._owned_paths(ARTIFACT_KINDS):
            out.append((path.parent.name, path.name, _tree_size(path)))
        return out

    def retired_entries(self) -> list[tuple[str, str, int]]:
        """``(directory, key, size_bytes)`` for every cache-owned bundle
        under a root directory that is no current kind: the ``partition/``
        and ``edgeorder/`` bundles of older releases.  Nothing reads them,
        and :meth:`clean` leaves them."""
        try:
            dirs = sorted(p.name for p in self.root.iterdir()
                          if p.is_dir() and p.name not in ARTIFACT_KINDS)
        except OSError:
            return []
        return [(path.parent.name, path.name, _tree_size(path))
                for path in self._owned_paths(dirs)]

    def size_bytes(self) -> int:
        return sum(size for _, _, size in self.entries())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactCache(root={str(self.root)!r})"


_default: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """The process-wide cache at :func:`default_cache_root`.

    Re-resolves the root when ``REPRO_CACHE_DIR`` changes (tests point it
    at temporary directories).
    """
    global _default
    root = default_cache_root()
    if _default is None or _default.root != root:
        _default = ArtifactCache(root)
    return _default


def resolve_cache(cache: "ArtifactCache | bool | None") -> ArtifactCache | None:
    """Normalize the ``cache=`` argument convention used across the library.

    * ``ArtifactCache`` instance — use it as given;
    * ``None`` or ``True`` — use :func:`default_cache` unless the
      ``REPRO_CACHE_OFF`` environment variable is set;
    * ``False`` — caching disabled, always build from scratch.
    """
    if cache is False:
        return None
    if cache is None or cache is True:
        if os.environ.get("REPRO_CACHE_OFF"):
            return None
        return default_cache()
    return cache
