"""The one REPRO_* resolution rule: unset → default, "" → explicitly off."""

import pytest

from repro.cache.config import resolve_scan_mode, resolve_segment_cache
from repro.envutil import env_setting
from repro.errors import ReproError
from repro.hyracks.backends import resolve_backend
from repro.hyracks.limits import resolve_deadline_seconds
from repro.hyracks.spill import SpillConfig
from repro.observability.profile import resolve_profile_config


class TestEnvSetting:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_setting("REPRO_X") is None
        assert env_setting("REPRO_X", "fallback") == "fallback"

    def test_set_returns_stripped_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  value  ")
        assert env_setting("REPRO_X") == "value"

    def test_empty_is_explicitly_off_not_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "")
        assert env_setting("REPRO_X", "fallback") == ""
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_setting("REPRO_X", "fallback") == ""


class TestConsumersHonourTheRule:
    """Every REPRO_* consumer distinguishes unset from set-but-empty."""

    def test_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "sequential"
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert resolve_backend(None).name == "sequential"
        monkeypatch.setenv("REPRO_BACKEND", "process")
        backend = resolve_backend(None)
        assert backend.name == "process"
        backend.close()
        # explicit argument beats the environment
        assert resolve_backend("sequential").name == "sequential"

    def test_spill_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        default_root = SpillConfig().root_directory()
        assert default_root  # system temp dir
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        assert SpillConfig().root_directory() == str(tmp_path)
        # "" pins the built-in default rather than erroring out
        monkeypatch.setenv("REPRO_SPILL_DIR", "")
        assert SpillConfig().root_directory() == default_root
        # explicit directory beats the environment
        assert SpillConfig(directory="/x").root_directory() == "/x"

    def test_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "")
        assert resolve_deadline_seconds(None) is None
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        assert resolve_deadline_seconds(None) == 2.5
        assert resolve_deadline_seconds(9.0) == 9.0

    def test_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "")
        assert resolve_profile_config(None) is None
        monkeypatch.setenv("REPRO_PROFILE", "counter")
        assert resolve_profile_config(None) is not None
        assert resolve_profile_config(False) is None

    def test_scan_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_MODE", "")
        default = resolve_scan_mode(None)
        monkeypatch.delenv("REPRO_SCAN_MODE")
        assert resolve_scan_mode(None) == default
        monkeypatch.setenv("REPRO_SCAN_MODE", "text")
        assert resolve_scan_mode(None) == "text"
        assert resolve_scan_mode("ondemand") == "ondemand"
        monkeypatch.setenv("REPRO_SCAN_MODE", "eager")
        with pytest.raises(ReproError, match="expected one of ondemand, text$"):
            resolve_scan_mode(None)

    def test_segment_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SEGMENT_CACHE", "")
        assert resolve_segment_cache(None) is None
        monkeypatch.setenv("REPRO_SEGMENT_CACHE", str(tmp_path))
        assert resolve_segment_cache(None) is not None
        # explicit "" disables even when the environment enables
        assert resolve_segment_cache("") is None
