"""Stat-keyed parse cache: hit/miss accounting and file-change invalidation."""

from __future__ import annotations

import os

import pytest

from repro.trace import statcache


@pytest.fixture(autouse=True)
def clean_cache():
    statcache.reset()
    yield
    statcache.reset()


def _touch(path, text, mtime_ns=None):
    path.write_text(text)
    if mtime_ns is not None:
        os.utime(path, ns=(mtime_ns, mtime_ns))


class TestCachedParse:
    def test_parses_once_per_file_identity(self, tmp_path):
        path = tmp_path / "data.csv"
        _touch(path, "alpha")
        calls = []

        def parser(p):
            calls.append(p)
            return p.read_text()

        assert statcache.cached_parse(path, parser) == "alpha"
        assert statcache.cached_parse(path, parser) == "alpha"
        assert len(calls) == 1
        stats = statcache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_changed_file_invalidates(self, tmp_path):
        path = tmp_path / "data.csv"
        _touch(path, "alpha", mtime_ns=1_000_000_000)
        parser = lambda p: p.read_text()  # noqa: E731
        assert statcache.cached_parse(path, parser) == "alpha"
        # same size, different mtime -- an in-place rewrite
        _touch(path, "bravo", mtime_ns=2_000_000_000)
        assert statcache.cached_parse(path, parser) == "bravo"
        # different size, same mtime -- a replaced file
        _touch(path, "charlie!", mtime_ns=2_000_000_000)
        assert statcache.cached_parse(path, parser) == "charlie!"
        assert statcache.stats()["invalidations"] == 2

    def test_tags_namespace_parsers_over_one_file(self, tmp_path):
        path = tmp_path / "data.csv"
        _touch(path, "alpha")
        upper = statcache.cached_parse(path, lambda p: p.read_text().upper(), tag="u")
        lower = statcache.cached_parse(path, lambda p: p.read_text(), tag="l")
        assert (upper, lower) == ("ALPHA", "alpha")
        assert statcache.stats()["entries"] == 2

    def test_missing_file_raises_not_caches(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            statcache.cached_parse(tmp_path / "absent.csv", lambda p: None)
        assert statcache.stats()["entries"] == 0

    def test_entry_cap_bounds_the_table(self, tmp_path):
        for i in range(statcache.MAX_ENTRIES + 5):
            path = tmp_path / f"f{i}.csv"
            _touch(path, str(i))
            statcache.cached_parse(path, lambda p: p.read_text())
        assert statcache.stats()["entries"] == statcache.MAX_ENTRIES

    def test_reset_drops_entries_and_counters(self, tmp_path):
        path = tmp_path / "data.csv"
        _touch(path, "alpha")
        statcache.cached_parse(path, lambda p: p.read_text())
        statcache.reset()
        assert statcache.stats() == {
            "hits": 0, "misses": 0, "invalidations": 0, "entries": 0,
        }


class TestAzureLoaderIntegration:
    """The loader's contract on top of the cache: fresh containers out,
    re-parse only when the CSV actually changed."""

    def _write_csv(self, path, rows):
        from tests.trace.test_azure_loader import write_invocations_csv

        write_invocations_csv(path, rows)

    def test_repeat_loads_hit_the_cache_and_copy_out(self, tmp_path):
        from repro.trace.azure_loader import load_invocation_counts

        path = tmp_path / "inv.csv"
        self._write_csv(path, [("o", "a", "f", "timer", [1, 2, 3])])
        first = load_invocation_counts(path)
        second = load_invocation_counts(path)
        assert first == second
        assert first is not second  # mutating one load cannot leak
        assert statcache.stats()["hits"] == 1

    def test_rewritten_csv_reparses(self, tmp_path):
        from repro.trace.azure_loader import load_invocation_counts

        path = tmp_path / "inv.csv"
        self._write_csv(path, [("o", "a", "f", "timer", [1])])
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        assert load_invocation_counts(path)[0].per_minute[0] == 1
        self._write_csv(path, [("o", "a", "f", "timer", [9])])
        os.utime(path, ns=(2_000_000_000, 2_000_000_000))
        assert load_invocation_counts(path)[0].per_minute[0] == 9
        assert statcache.stats()["invalidations"] == 1
