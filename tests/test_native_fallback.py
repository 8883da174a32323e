"""Where the ``native`` engine cannot be built or trusted, ``fast`` serves.

Each case runs in a fresh interpreter with its own empty cache directory
(``XDG_CACHE_HOME``), so the process-wide availability decision and the
cached library are its own: without a compiler ``native`` is not registered,
the default engine is ``fast`` and exactly one ``RuntimeWarning`` says why;
a corrupt cached library is rebuilt (or, failing that, falls back the same
way).
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parent.parent

#: imports the package, resolves the engines and reports what it saw
PROBE = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro.backends import native
    names = repro.available_backends()
    active = repro.active_backend().name
    path = str(native.library_path()) if "native" in names else None
print(json.dumps({
    "available": list(names), "active": active, "library": path,
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)
                 and "native" in str(w.message)]}))
"""


def _probe(cache: Path, **env) -> dict:
    full = {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "CC"}
    full.update(XDG_CACHE_HOME=str(cache), PYTHONPATH=str(ROOT / "src"), **env)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=full, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_fast_fallback(seen: dict) -> None:
    assert "native" not in seen["available"]
    assert seen["active"] == "fast"
    assert len(seen["warnings"]) == 1, seen["warnings"]


def test_no_compiler_falls_back_to_fast(tmp_path):
    seen = _probe(tmp_path / "cache", CC="/nonexistent")
    _assert_fast_fallback(seen)
    assert "/nonexistent" in seen["warnings"][0]


@pytest.mark.skipif(shutil.which(os.environ.get("CC", "cc").split()[0]) is None,
                    reason="no C compiler on this host")
def test_corrupt_cached_library_is_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    first = _probe(cache)
    if "native" not in first["available"]:
        _assert_fast_fallback(first)       # the self-check refused this host
        return
    assert first["active"] == "native" and not first["warnings"]
    library = Path(first["library"])
    assert stat.S_IMODE(library.parent.stat().st_mode) == 0o700
    library.write_bytes(b"\x7fELF this is not a shared object")
    second = _probe(cache)
    if "native" in second["available"]:
        assert second["active"] == "native" and not second["warnings"]
        assert library.read_bytes()[:4] == b"\x7fELF"
        assert library.stat().st_size > 1000          # rebuilt in place
    else:
        _assert_fast_fallback(second)


def test_env_fast_keeps_fast_the_default(tmp_path):
    """REPRO_BACKEND=fast keeps the numpy engine the default (the
    `make test-fast` gate)."""
    seen = _probe(tmp_path / "cache", CC="/nonexistent", REPRO_BACKEND="fast")
    assert seen["active"] == "fast"
