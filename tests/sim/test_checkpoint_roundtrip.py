"""Checkpoint-equivalence battery: restore == never-stopped, byte for byte.

The contract under test (docs/CHECKPOINTS.md): a checkpoint captured at
any epoch barrier, restored into a fresh session, and run to the end
produces a merged canonical event trace whose SHA-256 equals the
uninterrupted twin's -- for every shard count and for an unchanged
``fork()``.  A changed-policy fork shares the event prefix up to the fork
barrier and is free to diverge after.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Desiccant, VanillaManager
from repro.faas.platform import PlatformConfig
from repro.mem.layout import MIB
from repro.sim import checkpoint
from repro.trace.replay import ClusterReplayConfig, cluster_replay

NODES = 4


def _run(
    factory=Desiccant,
    *,
    seed: int = 42,
    shards: int = 1,
    scale: float = 3.0,
    warmup: float = 4.0,
    duration: float = 8.0,
    capacity_mib: int = 768,
    checkpoint_dir=None,
    checkpoint_every=2,
    resume_from=None,
    fork=None,
    event_trace_path=None,
    telemetry_dir=None,
):
    """One tiny traced cluster replay on the in-process pool."""
    config = ClusterReplayConfig(
        nodes=NODES,
        shards=shards,
        processes=False,
        epoch_seconds=2.0,
        scale_factor=scale,
        warmup_scale_factor=scale,
        warmup_seconds=warmup,
        duration_seconds=duration,
        platform=PlatformConfig(capacity_bytes=capacity_mib * MIB),
        trace=True,
        trace_seed=seed,
        event_trace_path=event_trace_path,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every if checkpoint_dir else None,
        resume_from=resume_from,
        fork=fork,
        telemetry_dir=telemetry_dir,
    )
    return cluster_replay(factory, config)


# ----------------------------------------------------------- the property


class TestRoundtripProperty:
    """Random workload, random barrier: restore-and-finish is identical."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([2.0, 3.0, 5.0]),
        barrier=st.floats(0.0, 1.0),
    )
    def test_restore_matches_uninterrupted_twin(self, shards, seed, scale, barrier):
        scratch = Path(tempfile.mkdtemp(prefix="repro-ckpt-prop-"))
        try:
            base = _run(seed=seed, shards=shards, scale=scale)
            ckpt_dir = scratch / "ckpt"
            captured = _run(
                seed=seed, shards=shards, scale=scale, checkpoint_dir=ckpt_dir
            )
            # Checkpointing itself must not perturb the timeline.
            assert captured.trace_sha256 == base.trace_sha256
            assert captured.checkpoints
            # Restore from a barrier chosen by the example and run to the
            # end: the merged trace must be byte-identical to the twin
            # that never stopped.
            chosen = captured.checkpoints[
                min(int(barrier * len(captured.checkpoints)),
                    len(captured.checkpoints) - 1)
            ]
            resumed = _run(
                seed=seed,
                shards=shards,
                scale=scale,
                checkpoint_dir=ckpt_dir,
                resume_from=chosen,
            )
            assert resumed.trace_sha256 == base.trace_sha256, chosen.name
            assert resumed.trace_events == base.trace_events
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class TestTelemetryResume:
    """A capture that streamed telemetry resumes from every barrier.

    The resuming session builds its hosts before the restore truncates
    the captured CSVs back to the barrier, so building them must leave
    the CSVs alone; the finished CSVs then equal the uninterrupted run's.
    """

    @staticmethod
    def _csvs(root: Path):
        return {path.name: path.read_bytes() for path in sorted(root.glob("*.csv"))}

    @pytest.mark.parametrize("shards", [1, 2])
    def test_resume_rewrites_the_captured_csvs(self, tmp_path, shards):
        base = _run(shards=shards, telemetry_dir=tmp_path / "base")
        expected = self._csvs(tmp_path / "base")
        assert len(expected) == NODES
        ckpt_dir, telemetry = tmp_path / "ckpt", tmp_path / "captured"
        captured = _run(
            shards=shards, checkpoint_dir=ckpt_dir, telemetry_dir=telemetry
        )
        assert self._csvs(telemetry) == expected
        phases = {path.name.split("-")[0] for path in captured.checkpoints}
        assert phases == {"warmup", "measure", "measured"}
        for barrier in captured.checkpoints:
            resumed = _run(
                shards=shards, resume_from=barrier, telemetry_dir=telemetry
            )
            assert resumed.trace_sha256 == base.trace_sha256, barrier.name
            assert self._csvs(telemetry) == expected, barrier.name


# ------------------------------------------------------------------ forks


def _events_before(path: Path, clock: float):
    lines = [line for line in path.read_text().splitlines() if line]
    return [line for line in lines if json.loads(line)["t"] <= clock]


class TestForkDeterminism:
    # Tight enough capacity (and enough load) that vanilla and desiccant
    # behave observably differently: desiccant's reclaim avoids evictions
    # vanilla has to take.
    PRESSURE = dict(capacity_mib=384, scale=6.0, warmup=6.0, duration=12.0)

    def _captured(self, tmp_path, **kw):
        ckpt_dir = tmp_path / "ckpt"
        base = _run(
            checkpoint_dir=ckpt_dir,
            event_trace_path=tmp_path / "base.jsonl",
            **self.PRESSURE,
            **kw,
        )
        return ckpt_dir, base

    def test_unchanged_fork_replays_bit_for_bit(self, tmp_path):
        ckpt_dir, base = self._captured(tmp_path, shards=2)
        forked = _run(
            shards=2,
            checkpoint_dir=ckpt_dir,
            resume_from=ckpt_dir / "measure-start.ckpt",
            fork={},
            **self.PRESSURE,
        )
        assert forked.trace_sha256 == base.trace_sha256

    def test_changed_policy_diverges_only_after_the_barrier(self, tmp_path):
        ckpt_dir, base = self._captured(tmp_path, shards=2)
        mid = sorted(ckpt_dir.glob("measured-*.ckpt"))[0]
        barrier_clock = checkpoint.read_header(mid)["meta"]["clock"]
        forked = _run(
            shards=2,
            checkpoint_dir=ckpt_dir,
            resume_from=mid,
            fork={"manager_factory": VanillaManager},
            event_trace_path=tmp_path / "fork.jsonl",
            **self.PRESSURE,
        )
        assert forked.stats.policy == "vanilla"
        # Diverges: the two policies behave differently under pressure.
        assert forked.trace_sha256 != base.trace_sha256
        # ...but only after the fork barrier: the event prefix up to the
        # barrier clock is the captured history, shared byte for byte.
        prefix_base = _events_before(tmp_path / "base.jsonl", barrier_clock)
        prefix_fork = _events_before(tmp_path / "fork.jsonl", barrier_clock)
        assert prefix_base  # the barrier is mid-measurement, not at t=0
        assert prefix_fork == prefix_base

    def test_reseed_fork_keeps_the_prefix(self, tmp_path):
        ckpt_dir, base = self._captured(tmp_path, shards=2)
        mid = sorted(ckpt_dir.glob("measured-*.ckpt"))[0]
        barrier_clock = checkpoint.read_header(mid)["meta"]["clock"]
        forked = _run(
            shards=2,
            checkpoint_dir=ckpt_dir,
            resume_from=mid,
            fork={"reseed": "what-if-7"},
            event_trace_path=tmp_path / "fork.jsonl",
            **self.PRESSURE,
        )
        prefix_base = _events_before(tmp_path / "base.jsonl", barrier_clock)
        prefix_fork = _events_before(tmp_path / "fork.jsonl", barrier_clock)
        assert prefix_fork == prefix_base

    def test_fork_requires_resume(self, tmp_path):
        with pytest.raises(ValueError, match="resume_from"):
            _run(fork={"reseed": "x"})

    def test_resume_refuses_other_shard_count(self, tmp_path):
        # A checkpoint stores one host blob per shard: it resumes only at
        # the shard count that captured it.
        ckpt_dir, _ = self._captured(tmp_path, shards=2)
        with pytest.raises(checkpoint.CheckpointError) as caught:
            _run(
                shards=1,
                checkpoint_dir=ckpt_dir,
                resume_from=ckpt_dir / "measure-start.ckpt",
                **self.PRESSURE,
            )
        assert caught.value.invariant == "checkpoint-config"

    def test_resume_refuses_different_arrivals(self, tmp_path):
        ckpt_dir, _ = self._captured(tmp_path, shards=2)
        with pytest.raises(checkpoint.CheckpointError) as caught:
            _run(
                shards=2,
                seed=43,  # regenerates a different arrival log
                checkpoint_dir=ckpt_dir,
                resume_from=ckpt_dir / "measure-start.ckpt",
                **self.PRESSURE,
            )
        assert caught.value.invariant == "checkpoint-arrivals"


class TestArrivalDigests:
    """Only a capture's meta and a resume's ``checkpoint-arrivals`` check
    read the arrival-log digests, so only those runs compute them."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        digest = checkpoint.arrivals_digest

        def spy(arrivals):
            calls.append(len(arrivals))
            return digest(arrivals)

        monkeypatch.setattr(checkpoint, "arrivals_digest", spy)
        return calls

    def test_traced_run_without_checkpoints_never_digests(self, digests):
        result = _run()
        assert result.trace_sha256 is not None
        assert digests == []

    def test_capture_digests_each_phase_once(self, tmp_path, digests):
        result = _run(checkpoint_dir=tmp_path / "ckpt")
        assert result.checkpoints
        assert len(digests) == 2

    def test_resume_without_captures_still_checks_the_log(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        _run(checkpoint_dir=ckpt_dir)
        warmup = sorted(ckpt_dir.glob("warmup-*.ckpt"))
        assert warmup
        with pytest.raises(checkpoint.CheckpointError) as caught:
            _run(seed=43, resume_from=warmup[0])
        assert caught.value.invariant == "checkpoint-arrivals"
