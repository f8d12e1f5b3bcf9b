"""Content-addressed, integrity-verified result cache for campaigns.

Campaign traffic is repetitive: the same (scenario, scheduler, seed) trial
shows up in sweep after sweep, and the determinism machinery (PR 4/5's
golden-equivalence and serial-vs-parallel bit-identity) guarantees that a
trial's result is a pure function of its canonical spec and the code that
produced it.  That makes caching sound: a :class:`ResultCache` entry is
keyed by ``sha256(code_version | canonical spec JSON)`` and a repeated
trial is free.  The code version is :func:`code_version`, a digest of the
package's own source, so any edit to the simulator misses every entry
written before it.

What makes it *safe* is that nothing from disk is ever trusted blindly:

* Every entry carries the sha256 of its canonical payload JSON.  On read,
  the payload is re-serialised and re-hashed; a mismatch -- a flipped byte,
  a truncated file, a hand-edited entry -- is a **corruption**, not a hit.
* A corrupt entry is *quarantined* (moved into ``<cache-dir>/quarantine/``
  with its detection reason in the file name) and the lookup reports a
  miss, so the trial is recomputed and the evidence is preserved for
  inspection.  A corrupt entry is never deserialised into a report.
* Writes are crash-atomic: the entry is serialised to a temporary file in
  the same directory, fsynced, and atomically renamed into place.  A crash
  mid-write leaves either the old state or the new state, never a torn
  entry (a leftover ``*.tmp`` is ignored by lookups and overwritten by the
  next write).

Payloads must be canonical-JSON-serialisable (plain dicts/lists/strings/
numbers); trial runners that return full result objects cannot be cached
-- use a telemetry runner (:func:`repro.experiments.campaign.sweep_trial`,
built on ``trial_telemetry``) instead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: Schema tag stamped on (and required of) every cache entry.
ENTRY_SCHEMA = "repro.result-cache/v1"


def canonical_json(payload) -> str:
    """The canonical JSON form used for hashing and storage.

    Sorted keys, no whitespace, strict JSON (``allow_nan=False``): two
    payloads are bit-identical iff their canonical JSON strings are equal.
    Raises :class:`TypeError`/:class:`ValueError` for non-JSON payloads --
    callers gate on that to refuse journaling/caching uncacheable runners.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def payload_sha256(payload) -> str:
    """Hex sha256 of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@functools.cache
def code_version() -> str:
    """SHA-256 of the code that produces a result; computed once per process.

    It covers every ``repro/**/*.py`` file, by its package-relative path
    and its bytes in sorted path order, plus the Python major.minor
    version.  Any edit to the package moves it, so results cached or
    journaled before the edit are never served after it.  (``__version__``
    is a release label and is not part of it.)
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256(f"python {sys.version_info[0]}.{sys.version_info[1]}\n".encode())
    for path in sorted(package.rglob("*.py"), key=lambda path: path.as_posix()):
        data = path.read_bytes()
        name = path.relative_to(package.parent).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cache_key(spec_hash: str, code_version: str) -> str:
    """The content address of one trial: spec hash bound to code version."""
    return hashlib.sha256(f"{code_version}|{spec_hash}".encode()).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` crash-atomically (tmp + fsync + rename)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


@dataclass
class CacheStats:
    """Lookup/store accounting one cache instance accumulates."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
        }


@dataclass
class ResultCache:
    """A directory of verified, content-addressed trial results.

    Entries live under two-hex-digit shard directories
    (``<dir>/ab/<key>.json``); corrupt entries are moved to
    ``<dir>/quarantine/`` and reported as misses.
    """

    directory: str
    code_version: str
    stats: CacheStats = field(default_factory=CacheStats)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, "quarantine")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def key_for(self, spec_hash: str) -> str:
        """The content address of a trial spec under this cache's version."""
        return cache_key(spec_hash, self.code_version)

    def get(self, key: str):
        """The verified payload for ``key``, or ``None`` on miss.

        Any defect -- unreadable file, malformed JSON, wrong schema, a key
        or code-version mismatch, or a payload hash that does not verify --
        quarantines the entry and counts as a miss.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        reason = None
        payload = None
        try:
            entry = json.loads(text)
        except ValueError:
            reason = "malformed-json"
        else:
            reason, payload = self._verify(key, entry)
        if reason is not None:
            self._quarantine(path, key, reason)
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _verify(self, key: str, entry) -> tuple[str | None, object]:
        """(defect reason, payload): reason ``None`` iff the entry verifies."""
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            return "bad-schema", None
        if entry.get("key") != key:
            return "key-mismatch", None
        if entry.get("code_version") != self.code_version:
            return "version-mismatch", None
        if "payload" not in entry:
            return "missing-payload", None
        payload = entry["payload"]
        try:
            digest = payload_sha256(payload)
        except (TypeError, ValueError):
            return "unhashable-payload", None
        if digest != entry.get("payload_sha256"):
            return "payload-hash-mismatch", None
        return None, payload

    def _quarantine(self, path: str, key: str, reason: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        target = os.path.join(self.quarantine_dir, f"{key}.{reason}.json")
        with contextlib.suppress(OSError):
            os.replace(path, target)

    def put(self, key: str, payload) -> None:
        """Store a payload under ``key`` (crash-atomically).

        Raises :class:`TypeError`/:class:`ValueError` when the payload is
        not canonical-JSON-serialisable -- the caller picked an uncacheable
        runner, which must fail loudly rather than silently skip caching.
        """
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "code_version": self.code_version,
            "payload_sha256": payload_sha256(payload),
            "payload": payload,
        }
        write_atomic(
            self._path(key), json.dumps(entry, sort_keys=True, indent=2) + "\n"
        )
        self.stats.stores += 1
