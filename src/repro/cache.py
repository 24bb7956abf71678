"""Caching layers: a bounded in-process memo and an on-disk store.

Both layers are instrumented through :mod:`repro.perf`:

**In-process memo** (:class:`LRUMemo`): a bounded, thread-safe table
that reports ``cache.<name>.hits`` / ``cache.<name>.misses``.  Its one
tenant is the doping solver's warm-start bracket cache,
:data:`repro.scaling.batch.bracket_memo`.

**Disk cache** (opt-in): optimising a Table 2/3
:class:`~repro.scaling.strategy.DeviceFamily` costs seconds of
root-solving but is a pure function of the model source code.  When
enabled, optimised families are persisted as JSON through
:mod:`repro.io.serialize` and reloaded on the next run.  Enable it by
either::

    export REPRO_CACHE_DIR=/path/to/cache   # explicit location
    export REPRO_CACHE=1                    # default ~/.cache/repro

Entries are versioned by :func:`model_schema_hash`, a digest of the
physics/optimiser source files — any model change changes the hash and
silently invalidates old entries.  To invalidate manually, delete the
cache directory (or call :func:`clear_disk_cache`).

The cache directory has two tenants, both keyed by the same schema
hash (see ``docs/TUTORIAL.md`` for the full layout):

* family entries — ``{tag}-{hash}.json``, optimised
  :class:`~repro.scaling.strategy.DeviceFamily` JSON;
* grid tensors — ``grid-{grid_id}-{hash}.npz``, the design-space
  service's precomputed metric grids (:func:`grid_path`; built by
  ``repro grid build``, written/read by :mod:`repro.service.grid`).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import threading
from collections import OrderedDict
from typing import Any, Hashable

from . import perf

#: Packages/modules whose source defines the numerical results that the
#: disk cache stores.  Editing any of these invalidates the cache.
_SCHEMA_SOURCES = (
    "constants.py",
    "units.py",
    "materials",
    "device",
    "scaling",
    "circuit",
    "io/serialize.py",
)


class LRUMemo:
    """A bounded, thread-safe memo table with perf-counter reporting.

    Parameters
    ----------
    name:
        Counter namespace: hits/misses appear as ``cache.<name>.hits``
        and ``cache.<name>.misses``.
    maxsize:
        Entry cap; least-recently-used entries are evicted beyond it.
    """

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        self.name = name
        self.maxsize = maxsize
        self._table: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``; returns None (and counts a miss) if absent."""
        with self._lock:
            try:
                value = self._table[key]
            except KeyError:
                perf.bump(f"cache.{self.name}.misses")
                return None
            self._table.move_to_end(key)
        perf.bump(f"cache.{self.name}.hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the LRU entry if full."""
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            while len(self._table) > self.maxsize:
                self._table.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are left alone)."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


# -- on-disk family cache -----------------------------------------------------

def cache_dir() -> pathlib.Path | None:
    """The on-disk cache directory, or None when the cache is disabled.

    ``$REPRO_CACHE_DIR`` names an explicit directory; otherwise setting
    ``$REPRO_CACHE`` to a truthy value opts in at ``~/.cache/repro``.
    """
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return pathlib.Path(explicit).expanduser()
    flag = os.environ.get("REPRO_CACHE", "").lower()
    if flag in ("1", "true", "yes", "on"):
        return pathlib.Path("~/.cache/repro").expanduser()
    return None


_SCHEMA_HASH: str | None = None
_SCHEMA_LOCK = threading.Lock()


def model_schema_hash() -> str:
    """Digest of the model source files that determine cached results."""
    global _SCHEMA_HASH
    with _SCHEMA_LOCK:
        if _SCHEMA_HASH is None:
            root = pathlib.Path(__file__).parent
            digest = hashlib.sha256()
            for entry in _SCHEMA_SOURCES:
                path = root / entry
                files = (sorted(path.glob("*.py")) if path.is_dir()
                         else [path])
                for source in files:
                    digest.update(str(source.relative_to(root)).encode())
                    digest.update(source.read_bytes())
            _SCHEMA_HASH = digest.hexdigest()[:16]
    return _SCHEMA_HASH


def _entry_path(tag: str, directory: pathlib.Path) -> pathlib.Path:
    return directory / f"{tag}-{model_schema_hash()}.json"


def load_family(tag: str):
    """Load a cached :class:`DeviceFamily`, or None on miss/disabled.

    Any unreadable or schema-mismatched entry counts as a miss; the
    caller recomputes and overwrites it.
    """
    directory = cache_dir()
    if directory is None:
        return None
    path = _entry_path(tag, directory)
    # Imported lazily: io.serialize pulls in the analysis and device
    # layers, and the scaling layer imports this module for LRUMemo.
    from .io.serialize import family_from_dict, load_json
    try:
        family = family_from_dict(load_json(path))
    except (OSError, ValueError, KeyError, TypeError):
        perf.bump("cache.family.misses")
        return None
    perf.bump("cache.family.hits")
    return family


def store_family(tag: str, family) -> None:
    """Persist an optimised family (no-op when the cache is disabled)."""
    directory = cache_dir()
    if directory is None:
        return
    from .io.serialize import family_to_dict, save_json
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(tag, directory)
    tmp = path.with_suffix(".json.tmp")
    save_json(family_to_dict(family), tmp)
    tmp.replace(path)
    perf.bump("cache.family.stores")


# -- design-space grid tensors ------------------------------------------------

def grid_path(grid_id: str) -> pathlib.Path | None:
    """Cache path for a precomputed design-space grid, or None.

    ``grid_id`` is the :meth:`repro.service.grid.GridSpec.grid_id` axes
    digest; the filename also carries :func:`model_schema_hash`, so a
    model edit orphans old tensors exactly like stale family entries
    (the service then reports a cache miss and rebuilds or falls back
    to the exact tier).  Returns None when the disk cache is disabled.
    """
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"grid-{grid_id}-{model_schema_hash()}.npz"


def clear_disk_cache() -> int:
    """Delete every entry in the disk cache; returns the count removed.

    Covers both tenants: family JSON and the design-space grid tensors
    (``*.npz``).
    """
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for pattern in ("*.json", "*.npz"):
        for path in directory.glob(pattern):
            path.unlink(missing_ok=True)
            removed += 1
    return removed
