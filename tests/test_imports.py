"""What a process imports: a replay loads only the modules it runs.

Package ``__init__``s export their names lazily (``repro._lazy``), a
platform loads the invariant oracle only under ``REPRO_CHECK``, the
cluster engine loads when a cluster replay is configured, and no replay
loads OpenSSL: SHA-256 comes from ``repro.digest``.  Each check runs in a
fresh interpreter without ``REPRO_CHECK``: this suite's own process has
imported everything long ago.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The packages whose exports resolve on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.faas",
    "repro.runtime",
    "repro.trace",
    "repro.check",
)

#: Code a single-platform replay never runs, and so never loads.
NOT_LOADED_BY_A_SINGLE_PLATFORM_REPLAY = (
    "repro.analysis",
    "repro.check",
    "repro.faas.cluster",
    "repro.faas.probe",
    "repro.faas.telemetry",
    "repro.faas.lambda_platform",
    "repro.runtime.golang",
    "repro.runtime.g1",
    "repro.sim.shard",
    "repro.sim.wire",
    "repro.sim.checkpoint",
    "repro.trace.archive",
    "repro.trace.encode",
    "multiprocessing",
    "hashlib",
)

#: The cluster engine, loaded by building a cluster replay config.
CLUSTER_ENGINE = (
    "repro.faas.cluster",
    "repro.sim.shard",
    "repro.sim.wire",
    "repro.sim.checkpoint",
    "repro.trace.archive",
    "repro.trace.encode",
    "repro.check.invariants",
    "multiprocessing",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with no ``REPRO_*`` flag set and
    return the JSON object its last stdout line holds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SINGLE_PLATFORM_REPLAY = """
import json, sys
import repro.core, repro.faas.platform, repro.trace.replay
from repro.core import Desiccant
from repro.faas.platform import PlatformConfig
from repro.trace.replay import ClusterReplayConfig, ReplayConfig, replay

result = replay(
    Desiccant,
    ReplayConfig(
        scale_factor=3.0,
        warmup_seconds=2.0,
        warmup_scale_factor=3.0,
        duration_seconds=4.0,
        platform=PlatformConfig(capacity_bytes=512 << 20),
    ),
)
replayed = sorted(sys.modules)
ClusterReplayConfig(nodes=2, shards=2)
print(json.dumps({
    "completed": result.stats.completed,
    "oracle": result.platform.oracle is not None,
    "replayed": replayed,
    "configured": sorted(sys.modules),
}))
"""


def test_single_platform_replay_loads_no_unused_module():
    report = run_fresh(SINGLE_PLATFORM_REPLAY)
    assert report["completed"] > 0
    assert not report["oracle"]
    loaded = set(report["replayed"])
    assert [m for m in NOT_LOADED_BY_A_SINGLE_PLATFORM_REPLAY if m in loaded] == []
    assert not any(
        m.startswith(("repro.analysis.", "repro.check.")) for m in loaded
    )
    configured = set(report["configured"])
    assert [m for m in CLUSTER_ENGINE if m not in configured] == []
    assert "repro.check.oracle" not in configured


#: Runs with ``WORK``, an empty directory, defined before it.
EVERY_DIGEST_PATH = """
import json, runpy, sys
from pathlib import Path

def openssl():
    return [m for m in ("hashlib", "_hashlib") if m in sys.modules]

from repro.core import Desiccant
from repro.digest import sha256
from repro.faas.platform import PlatformConfig
from repro.trace.replay import (
    ClusterReplayConfig, ReplayConfig, cluster_replay, replay,
)

work = Path(WORK)
window = dict(
    scale_factor=3.0,
    warmup_seconds=2.0,
    warmup_scale_factor=3.0,
    duration_seconds=4.0,
    platform=PlatformConfig(capacity_bytes=512 << 20),
)
report = {"sha256": sha256.__module__}

single = replay(Desiccant, ReplayConfig(archive_dir=work / "single", **window))
report["single-platform archive"] = [single.trace_events > 0, openssl()]

def cluster(**extra):
    config = ClusterReplayConfig(
        nodes=2, shards=1, epoch_seconds=2.0, trace=True, **window, **extra
    )
    return cluster_replay(Desiccant, config)

captured = cluster(checkpoint_dir=work / "ckpt")
report["cluster capture"] = [captured.trace_events > 0, openssl()]
resumed = cluster(resume_from=work / "ckpt" / "measure-start.ckpt")
report["cluster resume"] = [
    resumed.trace_sha256 == captured.trace_sha256, openssl()
]

from repro.trace.archive import ArchiveReader, finalize_archive

root = work / "ckpt" / "archive"
events, digest = finalize_archive(root)
verified = ArchiveReader(root).verify(digest)
report["finalize + verify"] = [
    verified == (events, digest, []) and digest == captured.trace_sha256,
    openssl(),
]

sys.argv = ["repro", "trace", "verify", str(root)]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    report["repro trace verify"] = [exit.code == 0, openssl()]
print(json.dumps(report))
"""


def test_no_digest_path_loads_openssl(tmp_path):
    """Every path that hashes runs without ``hashlib``: a single-platform
    replay writing an archive, an inline traced cluster replay capturing
    a checkpoint and one resuming from it, ``finalize_archive`` with
    ``ArchiveReader.verify``, and ``python -m repro trace verify``.  Each
    step must succeed and leave OpenSSL unloaded."""
    report = run_fresh(f"WORK = {str(tmp_path)!r}\n" + EVERY_DIGEST_PATH)
    assert report.pop("sha256") in ("_sha2", "_sha256")
    assert report == {
        step: [True, []]
        for step in (
            "single-platform archive",
            "cluster capture",
            "cluster resume",
            "finalize + verify",
            "repro trace verify",
        )
    }


def test_only_the_digest_module_imports_openssl():
    """The static half of the check above, over code no step runs."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["repro/digest.py"]


def test_importing_the_packages_runs_none_of_their_modules():
    report = run_fresh(
        "import json, sys\n"
        f"import {', '.join(LAZY_PACKAGES)}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert set(report) == {*LAZY_PACKAGES, "repro._lazy"}


def test_every_exported_name_resolves():
    report = run_fresh(
        "import importlib, json\n"
        f"packages = {LAZY_PACKAGES!r}\n"
        "missing = []\n"
        "for package in packages:\n"
        "    module = importlib.import_module(package)\n"
        "    missing += [f'{package}.{name}' for name in module.__all__\n"
        "                if getattr(module, name, None) is None]\n"
        "print(json.dumps(missing))"
    )
    assert report == []


def test_trace_replay_names_the_function_whichever_import_comes_first():
    """``repro.trace`` exports the function ``replay`` from its submodule
    of the same name; importing the submodule first must not shadow it."""
    report = run_fresh(
        "import json\n"
        "import repro.trace.replay\n"
        "from repro.trace import replay\n"
        "from repro import replay as top\n"
        "import repro.trace\n"
        "print(json.dumps([callable(replay), top is replay,\n"
        "                  repro.trace.replay is replay]))"
    )
    assert report == [True, True, True]
