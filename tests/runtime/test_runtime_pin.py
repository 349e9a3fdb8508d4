"""Every runtime's observable behaviour, pinned by digest.

No replay digest covers CPython, Go, G1 or V8's large-object space: the
Azure trace runs only Java and JavaScript functions, and none of them
places a V8 object of 128 KiB or more.  So this test runs one fixed
boot / invoke / freeze / reclaim schedule on each runtime at three object
sizes and hashes what the platform and Desiccant read from it:

* every invocation's ``uss()``, GC seconds and fault seconds;
* every ``ReclaimOutcome``, aggressive and not, with the thaw that
  follows it (``touch_live_data`` seconds, USS, heap-resident bytes);
* the final ``heap_stats()``, live bytes and ideal USS.

At 20 KiB every runtime places cohorts and bump segments; at 200 KiB
CPython and V8 go to their large-object space while Go stays in its
arenas; at 600 KiB Go joins them and G1 places humongous regions.  A
refactor of the runtimes must leave every digest as it is.
"""

from dataclasses import astuple

import pytest

from repro.digest import sha256
from repro.mem.layout import KIB, MIB
from repro.runtime.cpython import CPythonRuntime
from repro.runtime.g1 import G1Runtime
from repro.runtime.golang import GoRuntime
from repro.runtime.hotspot import HotSpotRuntime
from repro.runtime.v8 import V8Config, V8Runtime


def _v8_compacting(name):
    return V8Runtime(name, V8Config(compact_on_reclaim=True))


FACTORIES = {
    "hotspot": HotSpotRuntime,
    "g1": G1Runtime,
    "v8": V8Runtime,
    "v8-compact": _v8_compacting,
    "cpython": CPythonRuntime,
    "go": GoRuntime,
}

INVOCATIONS = 12


def run_schedule(factory, size: int) -> list:
    """The observations of one runtime over the fixed schedule."""
    rt = factory("pin")
    seen: list = [("boot", rt.boot())]
    kept = []
    for step in range(INVOCATIONS):
        rt.begin_invocation()
        rt.alloc_cohort(max(6, 2 * MIB // size), size, scope="frame")
        rt.alloc_stream(
            (("ephemeral", size, 8), ("frame", size, 2), ("persistent", size, 1))
        )
        for _ in range(3):
            rt.alloc(size, scope="ephemeral")
        kept.append(rt.alloc(size, scope="persistent"))
        if step % 3 == 2:
            rt.free_persistent(kept.pop(0))
        rt.end_invocation()
        seen.append(
            (
                "invocation",
                rt.uss(),
                rt.invocation_gc_seconds,
                rt.invocation_fault_seconds,
                rt.total_gc_seconds,
            )
        )
        if step == 5:
            seen.append(("full-gc", rt.full_gc(aggressive=False), rt.uss()))
        if step % 4 == 3:
            # Freeze, reclaim, thaw.
            outcome = rt.reclaim(aggressive=step % 8 == 7)
            seen.append(("reclaim",) + astuple(outcome))
            seen.append(
                ("thaw", rt.touch_live_data(), rt.uss(), rt.heap_resident_bytes())
            )
    scavenge = getattr(rt, "scavenge", None)
    if scavenge is not None:
        seen.append(("scavenge", scavenge(0.0), scavenge(600.0), rt.uss()))
    seen.append(("reclaim",) + astuple(rt.reclaim()))
    seen.append(("final",) + astuple(rt.heap_stats()) + (rt.live_bytes(), rt.ideal_uss()))
    rt.destroy()
    return seen


def schedule_digest(factory, size: int) -> str:
    return sha256(repr(run_schedule(factory, size)).encode()).hexdigest()


#: Recorded before the runtimes shared one reclaim skeleton, one arena
#: runtime and one large-object space.
EXPECTED = {
    ("cpython", 20): "e52f87a009e4d047de05aacf0c7ea8188f8ce390a864819d69c8a61920e11f8f",
    ("cpython", 200): "22a34ed0c4f7ccf6e7011af856d0191025f809812981afd0c78dc78a3e94d02b",
    ("cpython", 600): "b5cc1c20222c7063be2d65903b57e904aab6c5ab8cd07451d91a6f3d7fe4296e",
    ("g1", 20): "2bbe806e747fb0ca4617d668b20c586d5a611e69cfadcaa28af0f364a5507999",
    ("g1", 200): "461cdca22f33c512abefc0e11bcb2fefc9af243314d8af71fe828c490ba30969",
    ("g1", 600): "87f98708ab10b977287c9c37a7c925b48c233dc77940de30f2e4d9f518a85c5f",
    ("go", 20): "874a6719b984887174b68db87979a4f954392dfdeeeeea244867b93cb869f1ad",
    ("go", 200): "4c66d9377bae32e21968672f1dda43ee052606f90918b1bd727fb6a2d3c2d655",
    ("go", 600): "b1149d689f0345830beadbedd44a00f8d1a33a7f7b2b90dacc1c46011f1ed162",
    ("hotspot", 20): "8f57e02ef37f5f4eedf48f88a6e4aa57a59225ff5bea9c992a56713e60f10f18",
    ("hotspot", 200): "809687454b7a786831df30c2edc82cfe0921ae4fccaec8c285180ad933aa9dff",
    ("hotspot", 600): "b9aa0eb3ec610e3f397d027f5aab8d8105f523de143a7bcd792ccb8be790bd46",
    ("v8", 20): "360ea94000263e0c8b7e56c993722a9d25ce5eebb6abef7f6df7ce0716eb7959",
    ("v8", 200): "ba76606e99c9fa83f0eb8113526ddd3b810a44c2425dc06970df29d40070bdfd",
    ("v8", 600): "fdc8f69e2557a628565d178736d8e28f024a536b202d7cd3a06ae09608a6abd7",
    ("v8-compact", 20): "af726a849456dec37409c9f1fbc74fe0d4202e91861a1d0568f4fb0fe36eb07c",
    ("v8-compact", 200): "ba76606e99c9fa83f0eb8113526ddd3b810a44c2425dc06970df29d40070bdfd",
    ("v8-compact", 600): "fdc8f69e2557a628565d178736d8e28f024a536b202d7cd3a06ae09608a6abd7",
}


@pytest.mark.parametrize("size", (20 * KIB, 200 * KIB, 600 * KIB), ids=("20k", "200k", "600k"))
@pytest.mark.parametrize("runtime", sorted(FACTORIES))
def test_schedule_digest_is_pinned(runtime, size):
    assert schedule_digest(FACTORIES[runtime], size) == EXPECTED[(runtime, size // KIB)]


def test_schedule_reclaims_and_collects_on_every_runtime():
    """The schedule is not vacuous: at 20 KiB every runtime collects
    while it runs invocations, and each reclaim between invocations
    releases memory (the last one, right after another, has none left)."""
    for factory in FACTORIES.values():
        seen = run_schedule(factory, 20 * KIB)
        assert any(row[0] == "invocation" and row[2] > 0 for row in seen)
        released = [row[2] for row in seen if row[0] == "reclaim"]
        assert len(released) == 4
        assert all(released[:3]) and released[3] == 0
