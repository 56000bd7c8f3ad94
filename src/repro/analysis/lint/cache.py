"""On-disk result cache of ``repro-analyze``.

A warm full-tree run must not re-parse ~100 files per invocation.
The cache stores one payload per analyzed file, keyed by the file's
``(path, mtime_ns, size)`` stat signature, in one of two kinds:

* ``lint`` — the file's lint findings;
* ``program`` — the file's verify summary and its hot-cost facts,
  extracted from one parse.  verify, det and hot all assemble their
  whole-program view from these entries; their rules re-run every
  invocation.

Soundness
---------
A cached entry is only a function of the file's bytes and of the
analyzer implementation, so two guards make reuse safe:

* the stat signature — any content change (or ``touch``) invalidates
  the entry;
* a **per-kind** implementation fingerprint — a SHA-256 over the
  cache ``kind`` plus exactly the source files whose output that kind
  caches (lint: core + lint rules, since findings are cached;
  program: core + the two extraction models, since only per-file
  facts are cached), plus the running Python version and a schema
  constant.  Editing an analyzer invalidates its own cache in one
  stroke, and because the ``kind`` itself is hashed, an entry written
  under one kind can never validate for the other — even if a cache
  file is copied or renamed.

The cache is strictly best-effort: unreadable, corrupt, or
wrong-fingerprint cache files are silently discarded and rebuilt, and
write failures (read-only checkouts, races) are swallowed.  ``--no-cache``
bypasses it entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = [
    "DEFAULT_CACHE_DIR",
    "AnalysisCache",
    "implementation_fingerprint",
]

#: Default cache directory, relative to the invocation cwd.
DEFAULT_CACHE_DIR = Path(".repro-lint-cache")

#: Bump when the cached payload *schema* changes shape.
_SCHEMA_VERSION = 2

_LINT_DIR = Path(__file__).resolve().parent
_ANALYSIS_DIR = _LINT_DIR.parent

#: Analyzer sources folded into each kind's fingerprint: exactly the
#: files whose output that kind caches.  ``lint`` caches *findings*, so
#: its rules are included; ``program`` caches only per-file extraction
#: facts (rules re-run every invocation against the assembled
#: program), so only the extraction models are hashed — editing a
#: whole-program rule must not cold-start extraction.
_IMPL_FILES_BY_KIND = {
    "lint": (
        _LINT_DIR / "core.py",
        _LINT_DIR / "rules.py",
    ),
    "program": (
        _LINT_DIR / "core.py",
        _LINT_DIR / "rules.py",  # keyword tables feed dimension seeds
        _ANALYSIS_DIR / "verify" / "model.py",
        _ANALYSIS_DIR / "hot" / "model.py",
    ),
}


def implementation_fingerprint(kind: str = "lint") -> str:
    """SHA-256 over one kind's implementation + interpreter version.

    The ``kind`` string itself is hashed, so two kinds whose
    implementation files happen to coincide still produce distinct
    fingerprints — a cache file can only ever validate for the kind
    that wrote it.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={_SCHEMA_VERSION}".encode())
    digest.update(f"kind={kind}".encode())
    digest.update(f"python={sys.version_info[:2]}".encode())
    impl_files = _IMPL_FILES_BY_KIND.get(kind)
    if impl_files is None:
        # Unknown kinds hash every analyzer source: maximally eager
        # invalidation is the safe default for a cache.
        impl_files = tuple(sorted(
            {impl for files in _IMPL_FILES_BY_KIND.values()
             for impl in files}))
    for impl in impl_files:
        try:
            digest.update(impl.read_bytes())
        except OSError:  # pragma: no cover - impl file missing/unreadable
            digest.update(b"<missing>")
    return digest.hexdigest()


def _stat_signature(path: Path) -> Optional[Dict[str, int]]:
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size}


class AnalysisCache:
    """One JSON cache file (``<dir>/<kind>.json``) of per-file payloads."""

    def __init__(self, directory: Path = DEFAULT_CACHE_DIR,
                 kind: str = "lint") -> None:
        self.path = Path(directory) / f"{kind}.json"
        self._fingerprint = implementation_fingerprint(kind)
        self._entries: Dict[str, Dict[str, Any]] = self._load()
        self._dirty = False
        self.hits = 0
        self.misses = 0

    def _load(self) -> Dict[str, Dict[str, Any]]:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) \
                or raw.get("fingerprint") != self._fingerprint:
            return {}
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}

    # ------------------------------------------------------------------
    # Per-file entries
    # ------------------------------------------------------------------
    def get(self, path: Path) -> Optional[Dict[str, Any]]:
        """The cached payload for ``path``, or None when stale/absent."""
        entry = self._entries.get(str(path))
        if entry is None:
            self.misses += 1
            return None
        if entry.get("stat") != _stat_signature(path):
            self.misses += 1
            return None
        self.hits += 1
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, path: Path, payload: Dict[str, Any]) -> None:
        signature = _stat_signature(path)
        if signature is None:
            return
        self._entries[str(path)] = {"stat": signature, "payload": payload}
        self._dirty = True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> None:
        """Write the cache atomically (tmp + rename); never raises."""
        if not self._dirty:
            return
        document = {"fingerprint": self._fingerprint,
                    "entries": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name,
                suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._dirty = False
