"""Execution-setting resolution: explicit value, then environment, then default.

The array-backend setting is gone; the frontier engine is the one
setting still resolved this way, through ``resolve_engine``.
"""

import pytest

from repro.cd.traversal import resolve_engine


class TestResolveBackend:
    def test_engine_whitespace_defers_to_env(self, monkeypatch):
        # A whitespace-only engine used to bypass the env fallback and
        # then fail validation.
        monkeypatch.setenv("REPRO_ENGINE", "v1")
        assert resolve_engine("   ") == "v1"
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("   ") == "v2"
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine("v3")
