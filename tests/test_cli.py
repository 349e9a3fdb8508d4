"""Unit tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import _archive_dir_for, _trace_path_for, build_parser, main
from repro.trace import archive


def test_list_prints_all_functions(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "file-hash" in out
    assert "alexa (8)" in out
    assert out.count("\n") >= 21  # header + rule + 20 functions


def test_characterize_single_function(capsys):
    assert main(["characterize", "clock", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "clock" in out
    assert "max_ratio" in out


def test_characterize_desiccant_policy(capsys):
    assert (
        main(
            [
                "characterize",
                "time",
                "--policy",
                "desiccant",
                "--iterations",
                "5",
            ]
        )
        == 0
    )
    assert "desiccant" in capsys.readouterr().out


def test_characterize_unknown_function_fails_cleanly(capsys):
    assert main(["characterize", "not-a-function", "--iterations", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_overhead_command(capsys):
    assert main(["overhead", "time", "--warm", "4", "--probe", "2"]) == 0
    out = capsys.readouterr().out
    assert "time (desiccant)" in out
    assert "%" in out


def test_replay_single_policy(capsys):
    assert (
        main(
            [
                "replay",
                "--policy",
                "vanilla",
                "--scale-factor",
                "3",
                "--warmup",
                "5",
                "--duration",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "vanilla" in out
    assert "cold/req" in out


def test_replay_writes_event_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "replay",
                "--policy",
                "vanilla",
                "--scale-factor",
                "3",
                "--warmup",
                "5",
                "--duration",
                "10",
                "--event-trace",
                str(path),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    lines = path.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert all({"seq", "t", "node", "kind"} <= set(r) for r in records)
    assert any(r["kind"] == "request-done" for r in records)


def test_trace_path_per_policy():
    assert _trace_path_for("out.jsonl", "desiccant", multiple=False) == "out.jsonl"
    assert (
        _trace_path_for("out.jsonl", "desiccant", multiple=True)
        == "out.desiccant.jsonl"
    )
    assert _trace_path_for("trace", "eager", multiple=True) == "trace.eager.jsonl"


def test_archive_dir_per_policy():
    assert _archive_dir_for("arc", "desiccant", multiple=False) == "arc"
    assert _archive_dir_for("arc", "desiccant", multiple=True) == "arc.desiccant"


REPLAY_ARGS = [
    "replay",
    "--policy",
    "vanilla",
    "--scale-factor",
    "3",
    "--warmup",
    "5",
    "--duration",
    "10",
]


class TestTraceCommands:
    @pytest.fixture()
    def traced(self, tmp_path, capsys):
        """One replay leg producing both a flat trace and an archive."""
        flat = tmp_path / "trace.jsonl"
        arc = tmp_path / "arc"
        assert (
            main(
                REPLAY_ARGS
                + ["--event-trace", str(flat), "--archive", str(arc)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "archived" in err and "composed sha256" in err
        return flat, arc

    def test_replay_archive_matches_flat_trace(self, traced, capsys):
        flat, arc = traced
        assert main(["trace", "verify", str(arc), "--against", str(flat)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_reads_each_segment_twice(self, tmp_path, capsys, monkeypatch):
        """``trace verify`` prints the count and digest its own sweep
        composed: one checking pass and one composing pass per segment,
        and no third."""
        arc = tmp_path / "arc"
        assert (
            main(REPLAY_ARGS + ["--archive", str(arc), "--bucket-seconds", "2"])
            == 0
        )
        readers = []

        class CountingReader(archive.ArchiveReader):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                readers.append(self)

        monkeypatch.setattr(archive, "ArchiveReader", CountingReader)
        assert main(["trace", "verify", str(arc)]) == 0
        (reader,) = readers
        segments = len(reader.segments())
        assert segments > 1
        assert len(reader.segments_read) == 2 * segments
        manifest = json.loads((arc / archive.MANIFEST_NAME).read_text())
        assert (
            f"{manifest['events']} events verified (composed sha256 "
            f"{manifest['sha256'][:16]})"
        ) in capsys.readouterr().out

    def test_pack_reproduces_replay_archive(self, traced, tmp_path, capsys):
        flat, arc = traced
        packed = tmp_path / "packed"
        assert main(["trace", "pack", str(flat), str(packed)]) == 0
        capsys.readouterr()
        originals = sorted(p.name for p in arc.iterdir())
        assert sorted(p.name for p in packed.iterdir()) == originals
        for name in originals:
            assert (packed / name).read_bytes() == (arc / name).read_bytes()

    def test_ls_renders_segments(self, traced, capsys):
        _, arc = traced
        assert main(["trace", "ls", str(arc)]) == 0
        captured = capsys.readouterr()
        assert "seg-b" in captured.out
        assert "events" in captured.out
        assert "segments" in captured.err

    def test_cat_windows_the_stream(self, traced, capsys):
        flat, arc = traced
        assert (
            main(
                ["trace", "cat", str(arc), "--t-start", "5", "--t-end", "9"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines
        expected = [
            line
            for line in flat.read_text().splitlines()
            if 5 <= json.loads(line)["t"] < 9
        ]
        assert lines == expected

    def test_verify_fails_on_corruption(self, traced, capsys):
        _, arc = traced
        victim = sorted(arc.glob("seg-*"))[0]
        blob = bytearray(victim.read_bytes())
        blob[16] ^= 0x01  # inside the payload deflate stream
        victim.write_bytes(bytes(blob))
        assert main(["trace", "verify", str(arc)]) == 1
        assert "PROBLEM" in capsys.readouterr().err


REFUSED_CHECKPOINTS = {
    "garbage": (b"garbage\nmore garbage\n", "checkpoint-magic"),
    # A well-formed capture of the previous epoch grid's schema.
    "schema-1": (
        json.dumps(
            {
                "magic": "repro-checkpoint",
                "schema": 1,
                "meta": {"phase": "warmup"},
                "env": {},
                "payload_sha256": hashlib.sha256(b"payload").hexdigest(),
                "payload_bytes": 7,
            }
        ).encode()
        + b"\npayload",
        "checkpoint-schema",
    ),
}


@pytest.mark.parametrize("case", REFUSED_CHECKPOINTS)
def test_replay_resume_of_refused_checkpoint_is_one_error_line(case, tmp_path, capsys):
    content, invariant = REFUSED_CHECKPOINTS[case]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(content)
    argv = ["replay", "--policy", "desiccant", "--scale-factor", "2", "--nodes", "2"]
    argv += ["--warmup", "2", "--duration", "4", "--resume", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: [{invariant}] checkpoint ")


def test_parser_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["characterize", "fft", "--policy", "magic"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_loads_no_subcommand_module():
    """Building the parser loads no subcommand's modules: a
    single-platform ``repro replay`` never compiles the cluster engine,
    the checkpoint format or the characterization harness."""
    from tests.test_imports import run_fresh

    unloaded = [
        "repro.analysis.characterize",
        "repro.faas.cluster",
        "repro.sim.checkpoint",
    ]
    report = run_fresh(
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        f"print(json.dumps([m for m in {unloaded!r} if m in sys.modules]))"
    )
    assert report == []
