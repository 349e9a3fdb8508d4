"""Self-time arithmetic and patch removal of perfbench.spans.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.spans import Tracer, defining_class  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_split_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def touch():
        clock.now += 1.0

    def alloc():
        clock.now += 2.0
        touch()

    def alloc_cohort():
        clock.now += 3.0
        alloc()
        alloc()

    touch = tracer.span("mem.touch", touch)
    alloc = tracer.span("runtime.alloc", alloc)
    alloc_cohort = tracer.span("runtime.alloc_cohort", alloc_cohort)
    alloc_cohort()

    assert tracer.calls == {"mem.touch": 2, "runtime.alloc": 2, "runtime.alloc_cohort": 1}
    assert tracer.self_time == {
        "mem.touch": 2.0,
        "runtime.alloc": 4.0,
        "runtime.alloc_cohort": 3.0,
    }
    assert tracer.inclusive == {
        "mem.touch": 2.0,
        "runtime.alloc": 6.0,
        "runtime.alloc_cohort": 9.0,
    }
    assert tracer.covered_seconds() == 9.0
    assert tracer.edges == {
        (None, "runtime.alloc_cohort"): 1,
        ("runtime.alloc_cohort", "runtime.alloc"): 2,
        ("runtime.alloc", "mem.touch"): 2,
    }


def test_recursive_span_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock)

    def collect(depth):
        clock.now += 1.0
        if depth:
            collect(depth - 1)

    collect = tracer.span("runtime.collect", collect)
    collect(2)

    assert tracer.calls["runtime.collect"] == 3
    # Three levels of one second each: the outermost call's wall time,
    # once, and self times that add up to the same wall time.
    assert tracer.inclusive["runtime.collect"] == 3.0
    assert tracer.self_time["runtime.collect"] == 3.0
    assert tracer.edges[("runtime.collect", "runtime.collect")] == 2


def test_span_records_a_call_that_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.5
        raise ValueError("boom")

    boom = tracer.span("faas.invoke", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.calls["faas.invoke"] == 1
    assert tracer.inclusive["faas.invoke"] == 1.5
    assert tracer.covered_seconds() == 1.5


class Base:
    def work(self):
        return "base"


class Child(Base):
    pass


def test_wrappers_are_removed_on_exit():
    original = vars(Base)["work"]
    tracer = Tracer()
    with tracer.installed():
        tracer.wrap(defining_class(Child, "work"), "work", "layer.work")
        tracer.wrap(Base, "work", "layer.work")  # a second request is a no-op
        assert vars(Base)["work"] is not original
        assert "work" not in vars(Child)
        assert Child().work() == "base"
    assert vars(Base)["work"] is original
    assert tracer.calls == {"layer.work": 1}


def test_wrappers_are_removed_when_the_block_raises():
    original = vars(Base)["work"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            tracer.wrap(Base, "work", "layer.work")
            raise RuntimeError("replay failed")
    assert vars(Base)["work"] is original


def test_module_functions_are_wrapped_and_restored():
    import json

    original = json.dumps
    tracer = Tracer()
    with tracer.installed():
        tracer.wrap(json, "dumps", "wire.send")
        assert json.dumps([1]) == "[1]"
    assert json.dumps is original
    assert tracer.calls == {"wire.send": 1}


def test_static_methods_are_refused():
    class Holder:
        @staticmethod
        def helper():
            return 1

    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(TypeError):
            tracer.wrap(Holder, "helper", "x.helper")
    assert Holder.helper() == 1
