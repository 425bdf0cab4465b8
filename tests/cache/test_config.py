"""Scan-mode and segment-cache configuration resolution."""

import pytest

from repro.cache import SCAN_MODES, SegmentCache, resolve_scan_mode
from repro.cache.config import (
    SCAN_MODE_ENV,
    SEGMENT_CACHE_ENV,
    resolve_segment_cache,
    validate_scan_mode,
)
from repro.errors import ReproError


class TestScanModeResolution:
    def test_registry(self):
        assert SCAN_MODES == ("ondemand", "text")

    def test_default_is_ondemand(self, monkeypatch):
        monkeypatch.delenv(SCAN_MODE_ENV, raising=False)
        assert resolve_scan_mode(None) == "ondemand"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(SCAN_MODE_ENV, "text")
        assert resolve_scan_mode("ondemand") == "ondemand"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(SCAN_MODE_ENV, "text")
        assert resolve_scan_mode(None) == "text"

    def test_retired_eager_mode_is_rejected_by_name(self, monkeypatch):
        # The message lists exactly the modes that survive.
        expected = "unknown scan mode 'eager'; expected one of ondemand, text$"
        with pytest.raises(ReproError, match=expected):
            validate_scan_mode("eager")
        monkeypatch.setenv(SCAN_MODE_ENV, "eager")
        with pytest.raises(ReproError, match=expected):
            resolve_scan_mode(None)

    @pytest.mark.parametrize("bad", ["", "fast", "ondemand ", "TEXT"])
    def test_invalid_mode_rejected(self, bad):
        with pytest.raises(ReproError, match="unknown scan mode"):
            validate_scan_mode(bad)

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(SCAN_MODE_ENV, "warp")
        with pytest.raises(ReproError, match="unknown scan mode"):
            resolve_scan_mode(None)


class TestSegmentCacheResolution:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(SEGMENT_CACHE_ENV, raising=False)
        assert resolve_segment_cache(None) is None

    def test_explicit_dir(self, tmp_path):
        cache = resolve_segment_cache(str(tmp_path))
        assert isinstance(cache, SegmentCache)
        assert cache.cache_dir == str(tmp_path)

    def test_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SEGMENT_CACHE_ENV, str(tmp_path))
        cache = resolve_segment_cache(None)
        assert isinstance(cache, SegmentCache)
        assert cache.cache_dir == str(tmp_path)

    def test_empty_string_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SEGMENT_CACHE_ENV, str(tmp_path))
        assert resolve_segment_cache("") is None
