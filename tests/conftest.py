"""Suite-wide fixtures.

Tests run hermetically: every inherited ``REPRO_*`` knob (artifact
store, worker counts, ...) is unset, so a developer's shell cannot
change what the suite checks. The sweep harness persists results
under ``~/.cache/repro`` by default; tests must never read or pollute
the developer's real cache, so every test gets a throwaway cache
directory unless it overrides the variable itself.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
