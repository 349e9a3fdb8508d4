"""Tests for explicit run-flag propagation into worker processes."""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro import procenv


def _probe(_=None):
    """Runs in the worker: report the flags simulation code would see."""
    return {
        "check": os.environ.get("REPRO_CHECK"),
        "every": os.environ.get("REPRO_CHECK_EVERY"),
    }


def _probe_in(method, initializer=None, initargs=()):
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return pool.submit(_probe).result()


class TestSnapshot:
    def test_snapshot_forwards_check_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_CHECK_EVERY", "3")
        snap = procenv.snapshot()
        assert snap["REPRO_CHECK"] == "1"
        assert snap["REPRO_CHECK_EVERY"] == "3"

    def test_snapshot_extra_overrides(self):
        assert procenv.snapshot({"REPRO_CHECK": "0"})["REPRO_CHECK"] == "0"


class TestSpawnPropagation:
    def test_initializer_ships_flipped_flag_to_spawn_child(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_CHECK_EVERY", "5")
        seen = _probe_in("spawn", procenv.initializer, (procenv.snapshot(),))
        assert seen == {"check": "1", "every": "5"}


class TestForkserverPropagation:
    """The bug class the initializer exists for: a ``forkserver`` child
    (the Linux default from Python 3.14) inherits the environment the
    server started with, not the parent's current one."""

    def test_initializer_replaces_stale_environment(self, monkeypatch):
        # Whatever the server holds (it may already be running), give the
        # parent a different value afterwards.
        server = _probe_in("forkserver")["check"]
        current = f"{server}-parent"
        monkeypatch.setenv("REPRO_CHECK", current)
        assert _probe_in("forkserver")["check"] == server
        seen = _probe_in("forkserver", procenv.initializer, (procenv.snapshot(),))
        assert seen["check"] == current
