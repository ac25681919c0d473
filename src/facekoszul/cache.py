"""On-disk memoization of irreducible characters.

One JSON object per line; every line carries a format version. Lines that are
corrupted or from another version are skipped on load, so the worst case is
recomputation, never reinterpretation. Writes are buffered and appended once
by the owning process.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

CACHE_VERSION = 1
CACHE_FILENAME = "characters.jsonl"
CACHE_DIR_ENV = "FACEKOSZUL_CACHE_DIR"

__all__ = [
    "CACHE_VERSION",
    "CACHE_DIR_ENV",
    "CacheEntry",
    "CharacterCache",
    "default_cache_dir",
    "cache_get",
    "cache_put",
]


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "facekoszul"


@dataclass(frozen=True)
class CacheEntry:
    """A cached character: canonical key plus its weight-multiplicity list."""

    key: str
    weights: tuple = field(default=())
    version: int = CACHE_VERSION

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "key": self.key,
                "weights": [[list(w), m] for w, m in self.weights],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def _entry_from_obj(obj) -> CacheEntry | None:
    if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
        return None
    try:
        key = str(obj["key"])
        weights = tuple(
            (tuple(int(c) for c in coords), int(mult)) for coords, mult in obj["weights"]
        )
    except (KeyError, TypeError, ValueError):
        return None
    return CacheEntry(key, weights)


class CharacterCache:
    """JSON-lines character store under one directory; single-writer discipline."""

    def __init__(self, directory):
        self.path = Path(directory) / CACHE_FILENAME
        self._entries: dict[str, tuple] = {}
        self._fresh: dict[str, tuple] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            entry = _entry_from_obj(obj)
            if entry is not None:
                self._entries[entry.key] = entry.weights

    def lookup(self, key: str):
        """Return the stored weight list or None; the provider hook for characters."""
        return self._entries.get(key)

    def store(self, key: str, weights) -> None:
        if key in self._entries:
            return
        self.replace(key, weights)

    def replace(self, key: str, weights) -> None:
        """Store even over an existing entry; on the next load the appended
        line wins, since later lines override earlier ones."""
        norm = tuple((tuple(int(c) for c in w), int(m)) for w, m in weights)
        self._entries[key] = norm
        self._fresh[key] = norm

    def flush(self) -> int:
        """Append entries added since the last flush; returns how many were written."""
        if not self._fresh:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for key in sorted(self._fresh):
                fh.write(CacheEntry(key, self._fresh[key]).to_json_line() + "\n")
        count = len(self._fresh)
        self._fresh.clear()
        return count


def cache_get(cache: CharacterCache, key: str) -> CacheEntry | None:
    weights = cache.lookup(key)
    return None if weights is None else CacheEntry(key, weights)


def cache_put(cache: CharacterCache, entry: CacheEntry) -> None:
    if entry.version != CACHE_VERSION:
        raise ValueError(f"refusing to store cache entry with version {entry.version}")
    cache.store(entry.key, entry.weights)
