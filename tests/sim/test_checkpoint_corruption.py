"""Corrupt checkpoints must fail loudly, named by the broken invariant.

Mirrors the oracle-test idiom (tests/check/test_oracle.py): plant one
specific corruption, assert the restore raises a
:class:`~repro.check.invariants.Violation` whose ``invariant`` names
exactly the law that caught it -- before a single pickle byte executes.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.check import check_checkpoint
from repro.check.invariants import Violation
from repro.sim import checkpoint


@pytest.fixture
def ckpt(tmp_path) -> Path:
    path = tmp_path / "barrier.ckpt"
    checkpoint.dump(path, {"clock": 12.5, "items": list(range(64))}, meta={"pos": 4})
    return path


def _header_and_payload(path: Path):
    raw = path.read_bytes()
    cut = raw.index(b"\n")
    return json.loads(raw[:cut]), raw[cut + 1 :]


def _rewrite(path: Path, header: dict, payload: bytes) -> None:
    path.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload
    )


class TestIntactCheckpoints:
    def test_roundtrip(self, ckpt):
        header = check_checkpoint(ckpt)
        assert header["magic"] == checkpoint.CHECKPOINT_MAGIC
        assert header["meta"] == {"pos": 4}
        loaded_header, state = checkpoint.load(ckpt)
        assert loaded_header["schema"] == checkpoint.SCHEMA_VERSION
        assert state == {"clock": 12.5, "items": list(range(64))}

    def test_read_header_leaves_payload_untouched(self, ckpt):
        header = checkpoint.read_header(ckpt)
        assert header["payload_bytes"] > 0

    def test_dump_is_atomic(self, ckpt, tmp_path):
        # No .tmp staging file survives a successful dump.
        assert list(tmp_path.glob("*.tmp")) == []


class TestCorruption:
    def test_flipped_payload_byte_is_a_digest_violation(self, ckpt):
        header, payload = _header_and_payload(ckpt)
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0xFF
        _rewrite(ckpt, header, bytes(mutated))
        with pytest.raises(Violation) as caught:
            check_checkpoint(ckpt)
        assert caught.value.invariant == "checkpoint-digest"

    def test_every_payload_position_is_covered(self, ckpt):
        # Flip one byte at several positions including both ends: SHA-256
        # has no blind spots, and neither may the checker.
        header, payload = _header_and_payload(ckpt)
        for position in (0, 1, len(payload) // 3, len(payload) - 1):
            mutated = bytearray(payload)
            mutated[position] ^= 0x01
            _rewrite(ckpt, header, bytes(mutated))
            with pytest.raises(Violation) as caught:
                check_checkpoint(ckpt)
            assert caught.value.invariant == "checkpoint-digest", position

    def test_bumped_schema_version_refused(self, ckpt):
        header, payload = _header_and_payload(ckpt)
        header["schema"] = checkpoint.SCHEMA_VERSION + 1
        _rewrite(ckpt, header, payload)
        with pytest.raises(Violation) as caught:
            checkpoint.load(ckpt)
        assert caught.value.invariant == "checkpoint-schema"

    def test_truncated_payload_refused(self, ckpt):
        header, payload = _header_and_payload(ckpt)
        _rewrite(ckpt, header, payload[: len(payload) // 2])
        with pytest.raises(Violation) as caught:
            check_checkpoint(ckpt)
        assert caught.value.invariant == "checkpoint-truncated"

    def test_wrong_magic_refused(self, ckpt):
        header, payload = _header_and_payload(ckpt)
        header["magic"] = "not-a-checkpoint"
        _rewrite(ckpt, header, payload)
        with pytest.raises(Violation) as caught:
            check_checkpoint(ckpt)
        assert caught.value.invariant == "checkpoint-magic"

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"\x00\x01\x02 this is not a checkpoint")
        with pytest.raises(Violation) as caught:
            check_checkpoint(path)
        assert caught.value.invariant == "checkpoint-magic"

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(Violation) as caught:
            check_checkpoint(tmp_path / "never-written.ckpt")
        assert caught.value.invariant == "checkpoint-magic"

    def test_corruption_detected_before_any_pickle_executes(self, ckpt):
        # The digest check rejects the file outright; the payload is
        # never handed to pickle.loads, so a poisoned pickle cannot run.
        header, payload = _header_and_payload(ckpt)
        poisoned = b"cos\nsystem\n(S'true'\ntR."  # classic pickle RCE shape
        _rewrite(ckpt, header, poisoned + payload[len(poisoned):])
        with pytest.raises(Violation) as caught:
            checkpoint.load(ckpt)
        assert caught.value.invariant in ("checkpoint-digest", "checkpoint-truncated")


class TestEnvironmentGate:
    def test_fastpath_off_capture_refused(self, tmp_path):
        """A capture an earlier build took under ``REPRO_FASTPATH=0``
        never maintained the platform's incremental aggregates: it is
        intact, but load refuses it by name."""
        path = tmp_path / "reference.ckpt"
        payload = pickle.dumps({"x": 1}, protocol=checkpoint.PICKLE_PROTOCOL)
        _write_payload(path, payload, {"fastpath": False, "check": ""})
        # check_checkpoint does not care about the environment...
        check_checkpoint(path)
        # ...but load refuses to restore it, and says why.
        with pytest.raises(Violation) as caught:
            checkpoint.load(path)
        assert caught.value.invariant == "checkpoint-env"
        assert "REPRO_FASTPATH=0" in str(caught.value)

    def test_current_header_restores(self, tmp_path):
        path = tmp_path / "current.ckpt"
        header = checkpoint.dump(path, {"x": 1})
        # Earlier builds gate on this key, so new captures keep writing it.
        assert header["env"]["fastpath"] is True
        _, state = checkpoint.load(path)
        assert state == {"x": 1}


def _write_payload(path: Path, payload: bytes, env: dict) -> None:
    """A checkpoint whose header digest matches ``payload`` exactly."""
    header = {
        "magic": checkpoint.CHECKPOINT_MAGIC,
        "schema": checkpoint.SCHEMA_VERSION,
        "meta": {},
        "env": env,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    _rewrite(path, header, payload)


class TestUnloadablePayload:
    """An intact payload naming a global this build lacks fails by name."""

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.retired_layer.rng", "_rebuild_counting_random"),
            ("repro.sim.checkpoint", "_retired_helper"),
        ],
    )
    def test_missing_global_is_a_payload_violation(self, tmp_path, module, name):
        path = tmp_path / "old-build.ckpt"
        # Protocol-4 GLOBAL opcode, then STOP: the payload's only content
        # is a reference to ``module.name``.
        payload = b"\x80\x04c" + f"{module}\n{name}\n".encode() + b"."
        _write_payload(path, payload, checkpoint.environment_fingerprint())
        check_checkpoint(path)  # every byte-level check passes
        with pytest.raises(Violation) as caught:
            checkpoint.load(path)
        assert caught.value.invariant == "checkpoint-payload"
        assert f"{module}.{name}" in str(caught.value)

    def test_shard_host_blob_with_missing_global_is_a_payload_violation(self):
        blob = b"\x80\x04crepro.retired_layer\nShardHost\n."
        with pytest.raises(Violation) as caught:
            checkpoint.restore_host(blob)
        assert caught.value.invariant == "checkpoint-payload"
        assert "repro.retired_layer.ShardHost" in str(caught.value)

    def test_header_with_retired_env_key_still_restores(self, tmp_path):
        # Only ``fastpath`` is gated; keys older builds recorded (such as
        # ``memo``) are informational and must not block a restore.
        path = tmp_path / "older-env.ckpt"
        payload = pickle.dumps({"x": 1}, protocol=checkpoint.PICKLE_PROTOCOL)
        env = dict(checkpoint.environment_fingerprint(), memo=False)
        _write_payload(path, payload, env)
        header, state = checkpoint.load(path)
        assert header["env"]["memo"] is False
        assert state == {"x": 1}


class TestSessionCheckpointCorruption:
    """The gate holds end to end: a session resume sees the violation."""

    def test_resume_from_corrupted_session_checkpoint(self, tmp_path):
        from repro.core import Desiccant
        from repro.trace.replay import ClusterReplayConfig, cluster_replay

        config = ClusterReplayConfig(
            nodes=2,
            shards=1,
            processes=False,
            epoch_seconds=2.0,
            scale_factor=2.0,
            warmup_scale_factor=2.0,
            warmup_seconds=4.0,
            duration_seconds=4.0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        cluster_replay(Desiccant, config)
        target = tmp_path / "ckpt" / "measure-start.ckpt"
        header, payload = _header_and_payload(target)
        mutated = bytearray(payload)
        mutated[7] ^= 0x40
        _rewrite(target, header, bytes(mutated))
        from dataclasses import replace

        with pytest.raises(Violation) as caught:
            cluster_replay(Desiccant, replace(config, resume_from=target))
        assert caught.value.invariant == "checkpoint-digest"
