"""Determinism lint: the simulation must be replayable bit-for-bit.

AST-scans every module under ``src/repro`` and bans the ambient
nondeterminism sources:

* the global ``random`` module functions (``random.random()``,
  ``from random import ...``) -- all randomness flows through seeded
  ``random.Random`` instances (:class:`repro.sim.rng.RngStream`);
* wall-clock reads (``time.time()`` and friends) -- simulated time comes
  from the kernel clock (``analysis/bench.py`` is exempt: it *measures*
  wall time, which is presentation, not simulation);
* builtin ``hash()`` -- salted per process; stable hashing goes through
  ``zlib.crc32`` (``hash_stable``);
* iterating directly over set displays/constructors -- set order is
  insertion-history dependent; sort first.
* bare ``gzip.open`` / ``gzip.GzipFile`` writes -- the default gzip
  header embeds the wall-clock mtime, so compressed output differs
  between runs; archive code goes through the pinned helpers in
  ``repro.trace.archive`` (``mtime=0``, no filename, fixed level),
  which is the one file exempt from this rule.
* ad-hoc ``pickle`` calls -- simulation state serialized outside
  ``repro.sim.checkpoint`` would bypass the schema version, content
  digest and environment fingerprint that make a restore trustworthy
  (``sim/wire.py`` is the other sanctioned site: it frames the shard
  IPC protocol, whose blobs never touch disk).
* hidden memoization state -- ``functools.lru_cache``/``functools.cache``
  on an instance method keeps the bound instances alive *and* makes a
  computation's cost depend on invisible call history; module-level
  mutable cache containers carry state across legs that a replayed run
  cannot see.  No module is exempt: every cache lives on an object,
  keyed on version counters.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Reading the wall clock (never allowed in simulation code).
WALL_CLOCK = {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
              "perf_counter_ns", "process_time"}

#: Modules allowed to read the wall clock: the benchmark harness reports
#: wall/CPU timings *about* the (still deterministic) simulation, and
#: ``procenv`` owns the sanctioned :func:`repro.procenv.wall_clock`
#: helper that shard workers and the replay coordinator use for
#: process-level busy/overhead accounting (no simulation decision may
#: depend on it).
WALL_CLOCK_EXEMPT = {"analysis/bench.py", "procenv.py"}

#: The one module allowed to touch gzip directly: it owns the pinned
#: deterministic writers everything else must use.
GZIP_EXEMPT = {"trace/archive.py"}

#: Modules allowed to call pickle directly: ``sim/checkpoint.py`` wraps
#: every durable dump in the versioned, digest-guarded checkpoint
#: format, and ``sim/wire.py`` frames the in-memory shard IPC protocol.
#: Everything else must go through them.
PICKLE_EXEMPT = {"sim/checkpoint.py", "sim/wire.py"}

#: Modules on the per-event emission path, where ``json.dumps`` is
#: banned outright: line encoding must flow through
#: ``repro.trace.encode``, the one serializer whose byte contract
#: ``tests/trace/test_encode.py`` pins.  An ad-hoc ``json.dumps`` here
#: would emit lines outside that contract silently.
JSON_EVENT_HOT_PATH = {"sim/trace.py", "sim/bus.py", "sim/shard.py"}

#: Decorator names that memoize on the function object itself.
_MEMO_DECORATORS = {"lru_cache", "cache"}

#: Value shapes that make a module-level ``*cache*`` binding a mutable
#: container: displays/comprehensions, or constructor calls.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}


def _iter_sources():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(), filename=rel)


def _is_memo_decorator(node: ast.expr) -> bool:
    """``@lru_cache``/``@cache``, bare or called, plain or dotted."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in _MEMO_DECORATORS
    return isinstance(node, ast.Name) and node.id in _MEMO_DECORATORS


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _lint_caches(rel: str, tree: ast.Module):
    """The memoization rules, which exempt no module."""
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        for member in klass.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = member.args.posonlyargs + member.args.args
            if not args or args[0].arg != "self":
                continue
            for decorator in member.decorator_list:
                if _is_memo_decorator(decorator):
                    yield (
                        f"{rel}:{member.lineno}: lru_cache on instance method "
                        f"{klass.name}.{member.name} (keeps instances alive; "
                        "hidden call-history state -- use a version-keyed "
                        "per-object cache)"
                    )
    for statement in tree.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and "cache" in target.id.lower()
                and _is_mutable_container(value)
            ):
                yield (
                    f"{rel}:{statement.lineno}: module-level mutable cache "
                    f"{target.id} (hidden replay state; cache per object)"
                )


def _lint(rel: str, tree: ast.AST):
    yield from _lint_caches(rel, tree)
    for node in ast.walk(tree):
        where = f"{rel}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield f"{where}: 'from random import ...' (use random.Random/RngStream)"
            if node.module == "time":
                yield f"{where}: 'from time import ...' (use the simulated clock)"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base, attr = node.value.id, node.attr
            if base == "random" and attr != "Random":
                yield (
                    f"{where}: random.{attr} (module-global RNG; "
                    "use a seeded random.Random / RngStream)"
                )
            if base == "time" and attr in WALL_CLOCK:
                if rel not in WALL_CLOCK_EXEMPT:
                    yield f"{where}: time.{attr} (use the simulated clock)"
            if base == "gzip" and attr in ("open", "GzipFile"):
                if rel not in GZIP_EXEMPT:
                    yield (
                        f"{where}: gzip.{attr} (header embeds wall-clock "
                        "mtime; use repro.trace.archive helpers)"
                    )
            if base == "json" and attr in ("dump", "dumps"):
                if rel in JSON_EVENT_HOT_PATH:
                    yield (
                        f"{where}: json.{attr} on the event hot path "
                        "(line encoding belongs in repro.trace.encode)"
                    )
            if base == "pickle" and attr in ("dump", "dumps", "load", "loads",
                                             "Pickler", "Unpickler"):
                if rel not in PICKLE_EXEMPT:
                    yield (
                        f"{where}: pickle.{attr} (unversioned, undigested "
                        "state; use repro.sim.checkpoint)"
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "hash":
                yield f"{where}: builtin hash() is per-process salted; use hash_stable"
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            ):
                yield f"{where}: iterating a set directly (order is unstable; sort it)"


def test_src_tree_is_deterministic():
    problems = []
    for rel, tree in _iter_sources():
        problems.extend(_lint(rel, tree))
    assert not problems, "nondeterminism in src/repro:\n" + "\n".join(problems)


def test_wall_clock_exemptions_still_exist():
    # Keep the exemption lists honest: every exempted file must exist.
    for rel in WALL_CLOCK_EXEMPT | GZIP_EXEMPT:
        assert (SRC / rel).is_file(), f"stale exemption {rel}"


def test_lint_catches_planted_violations(tmp_path):
    planted = (
        "import functools, gzip, pickle, random, time\n"
        "x = random.random()\n"
        "t = time.time()\n"
        "h = hash('key')\n"
        "z = gzip.open('out.gz', 'wt')\n"
        "p = pickle.dumps(x)\n"
        "_RESULT_CACHE = {}\n"
        "class Widget:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def footprint(self):\n"
        "        pass\n"
        "for item in {1, 2}:\n"
        "    pass\n"
    )
    hits = list(_lint("planted.py", ast.parse(planted)))
    assert len(hits) == 8
    assert any("random.random" in h for h in hits)
    assert any("time.time" in h for h in hits)
    assert any("hash()" in h for h in hits)
    assert any("gzip.open" in h for h in hits)
    assert any("pickle.dumps" in h for h in hits)
    assert any("iterating a set" in h for h in hits)
    assert any("lru_cache on instance method Widget.footprint" in h for h in hits)
    assert any("module-level mutable cache _RESULT_CACHE" in h for h in hits)


def test_cache_rules_exempt_no_module():
    planted = (
        "import functools\n"
        "_CACHE: dict = {}\n"
        "class ParseCache:\n"
        "    @functools.cache\n"
        "    def shape(self):\n"
        "        pass\n"
    )
    # The Azure loader parses each CSV where it is asked to, and the
    # module that once held a parse cache is linted like any other.
    for rel in ("trace/statcache.py", "trace/azure_loader.py", "faas/platform.py"):
        assert len(list(_lint(rel, ast.parse(planted)))) == 2, rel


def test_cache_rules_spare_legitimate_shapes():
    # Free functions may lru_cache (no instance captured); non-cache
    # module containers and immutable cache bindings are fine.
    planted = (
        "import functools\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def parse(text):\n"
        "    pass\n"
        "REGISTRY = {}\n"
        "_CACHE_LIMIT = 64\n"
        "class Table:\n"
        "    @property\n"
        "    def rows(self):\n"
        "        pass\n"
    )
    assert list(_lint("analysis/report.py", ast.parse(planted))) == []


def test_gzip_rule_exempts_the_archive_module():
    planted = "import gzip\nz = gzip.GzipFile(fileobj=None)\n"
    assert list(_lint("trace/archive.py", ast.parse(planted))) == []
    assert len(list(_lint("sim/trace.py", ast.parse(planted)))) == 1


def test_json_rule_bans_the_event_hot_path_only():
    planted = "import json\nline = json.dumps({})\njson.dump({}, None)\n"
    for rel in JSON_EVENT_HOT_PATH:
        hits = list(_lint(rel, ast.parse(planted)))
        assert len(hits) == 2, rel
        assert all("repro.trace.encode" in h for h in hits)
        assert (SRC / rel).is_file(), f"stale hot-path entry {rel}"
    # The encoder module itself and ordinary reporting code are free to
    # call json -- the ban is about event emission, not serialization.
    assert list(_lint("trace/encode.py", ast.parse(planted))) == []
    assert list(_lint("analysis/bench.py", ast.parse(planted))) == []


def test_pickle_rule_exempts_only_the_sanctioned_modules():
    planted = "import pickle\nblob = pickle.dumps({})\nback = pickle.loads(blob)\n"
    assert list(_lint("sim/checkpoint.py", ast.parse(planted))) == []
    assert list(_lint("sim/wire.py", ast.parse(planted))) == []
    assert len(list(_lint("check/fuzz.py", ast.parse(planted)))) == 2
    for rel in PICKLE_EXEMPT:
        assert (SRC / rel).is_file(), f"stale exemption {rel}"
