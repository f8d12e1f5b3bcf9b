"""The code version moves when the code does: cache misses, journal refusal.

:func:`repro.experiments.cache.code_version` digests the package's own
source.  This test copies ``src/`` to a temporary directory, runs the copy
in subprocesses, then flips one bit of one byte of ``repro/sim/engine.py``
in the copy.  The edited copy must report another digest, miss a cache
entry the original copy hit, and refuse (CLI exit 2, both versions named,
no traceback) to append to a journal the original copy wrote.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from repro.experiments.cache import code_version

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Look one spec up in a cache (storing it on a miss); print version and hit.
CACHE_PROBE = """
import json, sys
from repro.experiments.cache import ResultCache, code_version
cache = ResultCache(sys.argv[1], code_version())
key = cache.key_for("spec")
hit = cache.get(key) is not None
if not hit:
    cache.put(key, {"answer": 42})
print(json.dumps({"version": code_version(), "hit": hit}))
"""

QUICK = ["--schedulers", "LF", "--seeds", "1", "--blocks", "60", "--backoff", "0.0"]


def _run(src: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=src, capture_output=True, text=True
    )


def _probe(src: str, cache_dir: str) -> dict:
    done = _run(src, "-c", CACHE_PROBE, cache_dir)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _flip_one_bit(path: str) -> None:
    """Swap the case of the first letter of the module docstring."""
    data = bytearray(open(path, "rb").read())
    index = data.index(b'"""') + 3
    assert chr(data[index]).isalpha()
    data[index] ^= 0x20
    open(path, "wb").write(bytes(data))


def test_an_edit_misses_the_cache_and_refuses_the_journal(tmp_path):
    src = str(tmp_path / "src")
    shutil.copytree(
        os.path.join(SRC, "repro"),
        os.path.join(src, "repro"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache_dir = str(tmp_path / "cache")
    journal = str(tmp_path / "journal.jsonl")

    first = _probe(src, cache_dir)
    # The digest names files by package-relative path: the copy is this code.
    assert first == {"version": code_version(), "hit": False}
    assert _probe(src, cache_dir) == {"version": first["version"], "hit": True}
    written = _run(src, "-m", "repro.cli", "campaign", "run", *QUICK, "--journal", journal)
    assert written.returncode == 0, written.stderr
    header = json.loads(open(journal).read().splitlines()[0])
    assert header["code_version"] == first["version"]

    _flip_one_bit(os.path.join(src, "repro", "sim", "engine.py"))
    edited = _probe(src, cache_dir)
    assert edited["version"] != first["version"]
    assert not edited["hit"]

    before = open(journal).read()
    refused = _run(src, "-m", "repro.cli", "campaign", "resume", *QUICK, "--journal", journal)
    assert refused.returncode == 2
    assert first["version"] in refused.stderr
    assert edited["version"] in refused.stderr
    assert "Traceback" not in refused.stderr
    assert open(journal).read() == before  # nothing appended under the stale header
