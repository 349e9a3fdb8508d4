"""Compiled trace-line encoders: the event-emission fast path.

Every digest gate in the repo rests on one byte format --
``json.dumps(record, sort_keys=False, separators=(",", ":"))`` over the
record dict :class:`~repro.sim.trace.EventTraceSink` builds per event.
That generic path pays, per event, a dict construction, a ``sorted()``
over the payload keys, an ``isinstance`` sweep, and the full generic
``json`` encoder machinery -- even though a simulation emits events from
a tiny, fixed set of shapes: the ``(kind, payload key-set)`` pairs are
decided by the emitting call sites and never change mid-run.

This module compiles one :class:`LineEncoder` per ``(kind, key-tuple)``
shape, resolving everything shape-dependent exactly once:

* the canonical key order (``seq``, ``t``, ``node``, ``kind``, then the
  payload keys sorted), baked into a per-key plan;
* the literal JSON fragments between values (``,"cpu_seconds":`` ...),
  interned as ready-to-concatenate strings;
* which keys are normalization slots (``request_id`` / ``instance_id``
  dense first-appearance remap, shared with the sink's id maps).

Steady-state emission is then a dict lookup, one string append per slot,
and one ``"".join`` -- no dict building, no sorting, no generic encoder.

Byte-identity contract
----------------------
The compiled output must be *byte-identical* to the generic encoder's,
which pins three sub-contracts:

* **strings** are escaped by ``json.encoder.encode_basestring_ascii`` --
  literally the same (C-accelerated) function ``json.dumps`` uses with
  the default ``ensure_ascii=True``;
* **floats** go through :func:`format_float`: CPython's encoder emits
  ``repr(value)`` for every finite float and the spellings ``NaN`` /
  ``Infinity`` / ``-Infinity`` for the non-finite ones, so a guarded
  ``repr`` reproduces it exactly (property-pinned in
  ``tests/trace/test_encode.py``, including ``-0.0``);
* **ints / bools / None** map to ``repr`` / ``true`` / ``false`` /
  ``null``; scalar *subclasses* (the generic path serializes them too)
  fall back to ``json.dumps`` on the single value, which byte-matches
  what the value would produce embedded in a record.

The generic encoder itself lives here as :func:`encode_line_generic` --
the differential reference twin, same pattern as ``LinearEventBus`` and
``mem/reference.py``.  It is the only sanctioned ``json.dumps`` on the
event hot path: the determinism lint bans the call in ``sim/trace.py``
so emission cannot silently bypass the compiled/reference pairing.

The active mode is read from ``REPRO_TRACE_ENCODER`` (unset/``fast`` =
compiled, ``generic`` = reference) the first time :func:`mode` is
called; :func:`set_mode` and :func:`override` change it afterwards.
Sinks snapshot the mode at construction, so toggling mid-simulation
never mixes encoders within one run -- and :mod:`repro.procenv` ships
the live value to shard workers.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "ID_KEYS",
    "SCALARS",
    "EncoderTable",
    "LineEncoder",
    "compile_shape",
    "encode_line_generic",
    "format_float",
    "mode",
    "set_mode",
    "override",
    "resolve",
]

#: data keys holding process-global ids that must be normalized to dense
#: first-appearance indexes (the sink owns the actual maps).
ID_KEYS = ("request_id", "instance_id")

#: The only ``Event.data`` value types that are serialized; anything else
#: (live object references a handler might need) is dropped.
SCALARS = (str, int, float, bool, type(None))

#: Keys every record opens with.  A payload key repeating one overwrites
#: that value in place (plain dict semantics in the generic encoder),
#: which no baked fragment plan expresses, so such shapes run the
#: reference encoder itself.
_ENVELOPE_KEYS = frozenset(("seq", "t", "node", "kind"))

#: The exact string-escaping function ``json.dumps`` uses with the
#: default ``ensure_ascii=True`` (C-accelerated when available).
_escape = json.encoder.encode_basestring_ascii

_INF = math.inf


def _fsrc(segment: str) -> str:
    """Escape a literal fragment for embedding in generated f-string source.

    Backslashes first (JSON escapes like ``\\n`` must survive the source
    round-trip), then the ``'`` delimiter, then brace doubling so JSON's
    own braces are not read as interpolation fields.
    """
    return (
        segment.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("{", "{{")
        .replace("}", "}}")
    )


def format_float(value: float) -> str:
    """``json.dumps`` output for one float, without the encoder machinery.

    CPython's encoder formats every finite float with ``repr`` and spells
    the non-finite values ``NaN`` / ``Infinity`` / ``-Infinity`` (the
    default ``allow_nan=True``).  Guarding the three specials first makes
    a bare ``repr`` byte-exact for everything else, ``-0.0`` included.
    """
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return repr(value)


# ------------------------------------------------------------------- mode

_MODES = ("fast", "generic")

_mode: Optional[str] = None


def mode() -> str:
    """The active encoder mode (defaults to ``fast``)."""
    global _mode
    if _mode is None:
        value = os.environ.get("REPRO_TRACE_ENCODER", "fast") or "fast"
        _mode = value if value in _MODES else "fast"
    return _mode


def set_mode(value: str) -> None:
    """Force the mode, overriding the environment."""
    if value not in _MODES:
        raise ValueError(f"unknown encoder mode {value!r} (pick from {_MODES})")
    global _mode
    _mode = value


@contextmanager
def override(value: str) -> Iterator[None]:
    """Temporarily force the mode (bench legs pin one per spec)."""
    previous = mode()
    set_mode(value)
    try:
        yield
    finally:
        set_mode(previous)


def resolve(value: Optional[str]) -> str:
    """A constructor-argument mode (``None`` = the process default)."""
    if value is None:
        return mode()
    if value not in _MODES:
        raise ValueError(f"unknown encoder mode {value!r} (pick from {_MODES})")
    return value


# --------------------------------------------------------------- encoders

#: Sentinel a generated encoder assigns when a slot's value turns out to
#: be non-scalar (``None`` is a real value, so it cannot mark dropping).
_DROP = object()


def _make_cache_escape(cache: Dict[str, str]):
    """Miss path of a fused encoder's per-kind string-escape cache.

    Trace strings repeat heavily (function names, reasons), so fused
    encoders remember ``value -> escaped`` per kind; the cap keeps a
    pathological stream of distinct strings from growing it unboundedly
    (past it, every miss just escapes directly).
    """

    def cache_escape(value, _e=_escape, _cache=cache):
        escaped = _e(value)
        if len(_cache) < 1024:
            _cache[value] = escaped
        return escaped

    return cache_escape


def _encode_fallback(value: object) -> str:
    """Emit one scalar *subclass* exactly like the generic path.

    The generic encoder serializes scalar subclasses through
    ``json.dumps`` (rounding float subclasses first); a standalone dump
    of the single value byte-matches what it produces embedded in a
    record, so the compiled path funnels the rare case here.
    """
    if isinstance(value, float):
        value = round(value, 9)
    return json.dumps(value)


def _compile_reference(kind: str):
    """An encoder for ``kind`` that delegates to the generic reference.

    Correct for every payload, so it needs no key-set guard; the sink's
    id-map hook is rebuilt over ``id_maps`` per call.
    """

    def encode(seq, t, node, data, id_maps):
        def normalize(key, value):
            mapping = id_maps.get(key)
            if mapping is None:
                return value
            return mapping.setdefault(value, len(mapping) + 1)

        return encode_line_generic(seq, t, node, kind, data, normalize)

    return encode


def _compile_polymorphic(kind: str, keys: Tuple[str, ...]):
    """The per-value type-dispatching encoder for one shape.

    Handles every scalar type, scalar subclasses, non-scalar drops, and
    non-finite floats.  :func:`compile_shape` layers the type-specialized
    fused encoder on top and falls back here on any guard miss.
    """
    # ``%`` in baked literals must not read as a format directive; the
    # header keeps its intentional %d/%r/%s placeholders.
    kind_lit = _escape(kind).replace("%", "%%")
    head_finite = '{"seq":%d,"t":%r,"node":%d,"kind":' + kind_lit
    head_any = '{"seq":%d,"t":%s,"node":%d,"kind":' + kind_lit
    src = [
        "def encode(seq, t, node, data, id_maps,",
        "           _e=_e, _ff=_ff, _fb=_fb, _sc=_sc, _drop=_drop,",
        "           _round=round, _isinst=isinstance, _inf=_inf,",
        "           _float=float, _str=str, _int=int, _bool=bool):",
        "    if -_inf < t < _inf:",
        f"        line = {head_finite!r} % (seq, t, node)",
        "    else:",
        f"        line = {head_any!r} % (seq, _ff(t), node)",
    ]
    for key in sorted(keys):
        frag = "," + _escape(key) + ":"
        frag_int = frag.replace("%", "%%") + "%d"
        frag_repr = frag.replace("%", "%%") + "%r"
        src.append(f"    v = data[{key!r}]")
        src.append("    c = v.__class__")
        if key in ID_KEYS:
            # Normalization slot: scalar filter + float rounding first
            # (the map is keyed by the *serialized* value, matching the
            # generic path), then the dense first-appearance remap.
            src += [
                "    if c is _str or c is _int or c is _bool or v is None:",
                "        pass",
                "    elif c is _float:",
                "        v = _round(v, 9)",
                "    elif _isinst(v, _sc):",
                "        if _isinst(v, _float):",
                "            v = _round(v, 9)",
                "    else:",
                "        v = _drop",
                "    if v is not _drop:",
                f"        m = id_maps[{key!r}]",
                f"        line += {frag_int!r} % m.setdefault(v, len(m) + 1)",
            ]
        else:
            src += [
                "    if c is _float:",
                "        v = _round(v, 9)",
                "        if -_inf < v < _inf:",
                f"            line += {frag_repr!r} % v",
                "        else:",
                f"            line += {frag!r} + _ff(v)",
                "    elif c is _str:",
                f"        line += {frag!r} + _e(v)",
                "    elif c is _int:",
                f"        line += {frag_int!r} % v",
                "    elif c is _bool:",
                f"        line += {frag + 'true'!r} if v else {frag + 'false'!r}",
                "    elif v is None:",
                f"        line += {frag + 'null'!r}",
                "    elif _isinst(v, _sc):",
                f"        line += {frag!r} + _fb(v)",
            ]
    src.append("    return line + '}'")
    namespace = {
        "_e": _escape,
        "_ff": format_float,
        "_fb": _encode_fallback,
        "_sc": SCALARS,
        "_drop": _DROP,
        "_inf": _INF,
    }
    exec("\n".join(src), namespace)  # noqa: S102 -- shape-literal codegen
    return namespace["encode"]


def compile_shape(
    kind: str,
    keys: Tuple[str, ...],
    sample: Optional[Mapping[str, object]] = None,
    fallback=None,
):
    """Generate the encode function for one ``(kind, key-tuple)`` shape.

    ``exec``-based codegen (the ``namedtuple`` technique): every literal
    JSON fragment is baked into the function's constants, every payload
    key becomes straight-line code with no per-key loop, no plan tuple,
    and no method dispatch left at emission time.

    With a ``sample`` payload whose values are all *exact* scalar
    classes (the overwhelmingly common case: each emitting call site
    builds its dict with fixed types), the generated function is
    additionally **type-specialized**: one guard expression re-checks
    every value's class (plus finiteness for floats), and on a hit the
    whole line is one fused C-level ``%`` format -- finite floats as
    ``%r`` (exactly the ``json.dumps`` spelling), ints as ``%d``,
    strings through the shared escaper.  Any guard miss (a type changed
    mid-run, a non-finite float, a subclass) falls back to the
    polymorphic twin, which handles everything; so specialization is
    purely a speed bet, never a semantics bet.

    With a ``fallback`` the generated function *also* pins the payload
    key-set: the prelude's ``data[key]`` lookups catch missing keys and
    a ``len(data)`` guard catches extra ones, and either miss routes the
    event to ``fallback(seq, t, node, data, id_maps)`` -- same-shape
    value oddities still take the shape's own polymorphic twin.  That
    key-set guard is what lets a sink key its hot dispatch by ``kind``
    alone (no per-event shape tuple): the fallback re-dispatches by the
    full shape, so a kind re-emitted with a different key-set stays
    byte-correct, just slower.

    A key-set that repeats an envelope key (``seq``, ``t``, ``node``,
    ``kind``) gets the reference encoder instead of generated code.
    """
    if not _ENVELOPE_KEYS.isdisjoint(keys):
        return _compile_reference(kind)
    poly = _compile_polymorphic(kind, keys)
    ordered = sorted(keys)
    if sample is None or any(
        value.__class__ not in (str, int, float, bool, type(None))
        for value in sample.values()
    ):
        if fallback is None:
            return poly
        # Shape-guarded polymorphic wrapper: membership checks pin the
        # key-set, the poly twin handles the (unspecializable) values.
        checks = [f"len(data) == {len(ordered)}"]
        checks += [f"{key!r} in data" for key in ordered]
        src = [
            "def encode(seq, t, node, data, id_maps, _poly=_poly, _fb=_fb):",
            "    if (" + "\n            and ".join(checks) + "):",
            "        return _poly(seq, t, node, data, id_maps)",
            "    return _fb(seq, t, node, data, id_maps)",
        ]
        namespace = {"_poly": poly, "_fb": fallback}
        exec("\n".join(src), namespace)  # noqa: S102 -- shape-literal codegen
        return namespace["encode"]
    guards = ["-_inf < t < _inf"]
    # The hit line is a generated *f-string*: unlike ``%`` formatting,
    # which re-parses its format string on every call, the interpolation
    # plan is compiled once into the encoder's bytecode.  Literal JSON
    # fragments are source-escaped (braces doubled, quotes/backslashes
    # escaped); interpolation slots only ever reference local variables,
    # trusted helper bindings, and the fixed ID_KEYS literals.
    pieces = ['{{"seq":{seq},"t":{t!r},"node":{node},"kind":', _fsrc(_escape(kind))]
    prelude = []
    for index, key in enumerate(sorted(keys)):
        var = f"v{index}"
        prelude.append(f"    {var} = data[{key!r}]")
        cls = sample[key].__class__
        frag = _fsrc("," + _escape(key) + ":")
        if key in ID_KEYS:
            # The id map is keyed by the serialized value (floats
            # rounded first), so the fused remap matches the generic
            # path's normalize() exactly.
            if cls is float:
                guards.append(f"{var}.__class__ is _float")
                guards.append(f"-_inf < {var} < _inf")
                slot = f"_round({var}, 9)"
            elif cls is type(None):
                guards.append(f"{var} is None")
                slot = var
            else:
                guards.append(
                    f"{var}.__class__ is _{cls.__name__}"
                )
                slot = var
            # Dense indexes start at 1, so ``get() or setdefault()`` is
            # sound and skips the len() on the (dominant) hit path.
            mvar = f"m{index}"
            pieces.append(
                frag + "{" + f'({mvar} := id_maps["{key}"]).get({slot})'
                f" or {mvar}.setdefault({slot}, len({mvar}) + 1)" + "}"
            )
        elif cls is float:
            guards.append(f"{var}.__class__ is _float")
            guards.append(f"-_inf < {var} < _inf")
            pieces.append(frag + "{_round(" + var + ", 9)!r}")
        elif cls is str:
            guards.append(f"{var}.__class__ is _str")
            pieces.append(frag + "{_eg(" + var + ") or _ce(" + var + ")}")
        elif cls is bool:
            guards.append(f"{var}.__class__ is _bool")
            pieces.append(frag + '{"true" if ' + var + ' else "false"}')
        elif cls is int:
            guards.append(f"{var}.__class__ is _int")
            pieces.append(frag + "{" + var + "}")
        else:  # NoneType: bake the literal, no interpolation slot
            guards.append(f"{var} is None")
            pieces.append(frag + "null")
    pieces.append("}}")
    hit = "        return f'" + "".join(pieces) + "'"
    if fallback is None:
        body = [
            *prelude,
            "    if (" + "\n            and ".join(guards) + "):",
            hit,
            "    return _poly(seq, t, node, data, id_maps)",
        ]
    else:
        # The try/except is free on the hot path (zero-cost in 3.11+);
        # it catches *missing* keys, the len() pin catches *extra* ones.
        probe = (
            [
                "    try:",
                *("    " + line for line in prelude),
                "    except KeyError:",
                "        return _fb(seq, t, node, data, id_maps)",
            ]
            if prelude
            else []
        )
        body = [
            *probe,
            "    if ("
            + "\n            and ".join(
                [f"len(data) == {len(ordered)}", *guards]
            )
            + "):",
            hit,
            f"    if len(data) == {len(ordered)}:",
            "        return _poly(seq, t, node, data, id_maps)",
            "    return _fb(seq, t, node, data, id_maps)",
        ]
    escape_cache: Dict[str, str] = {}
    bindings = {
        "_eg": escape_cache.get,
        "_ce": _make_cache_escape(escape_cache),
        "_poly": poly,
        "_fb": fallback,
        "_round": round,
        "_inf": _INF,
        "_float": float,
        "_str": str,
        "_int": int,
        "_bool": bool,
    }
    # Bind only the helpers this shape's code actually names: per-call
    # default filling is proportional to the parameter count.
    text = "\n".join(body)
    needed = [name for name in bindings if name in text]
    src = [
        "def encode(seq, t, node, data, id_maps,",
        "           " + ", ".join(f"{n}={n}" for n in needed) + "):",
        *body,
    ]
    namespace = dict(bindings)
    exec("\n".join(src), namespace)  # noqa: S102 -- shape-literal codegen
    return namespace["encode"]


class LineEncoder:
    """One compiled ``(kind, data key-tuple)`` shape.

    Thin handle around the generated function: ``encode`` *is* the
    compiled function (an instance attribute, so calls skip descriptor
    dispatch).  Signature:
    ``encode(seq, t, node, data, id_maps) -> str``; ``t`` must already
    be rounded to 9 places.
    """

    __slots__ = ("encode", "kind", "keys")

    def __init__(
        self,
        kind: str,
        keys: Tuple[str, ...],
        sample: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.kind = kind
        self.keys = tuple(sorted(keys))
        self.encode = compile_shape(kind, keys, sample)


class EncoderTable:
    """Per-sink registry of compiled encoders, keyed by event shape.

    Two levels.  The hot one, :attr:`by_kind`, maps the event ``kind``
    alone to a type-specialized encoder compiled from the kind's first
    payload -- probing it costs one dict get per event, no shape tuple.
    Each of those encoders guards its own key-set and falls back to the
    full :attr:`encoders` shape table (compiling per-shape twins on
    demand) if the kind is ever re-emitted with different keys, so the
    cheap probe never changes bytes.

    Shapes are keyed by the payload dict's *insertion-order* key tuple
    (cheapest per-event fingerprint); two call sites emitting the same
    keys in different orders simply compile two identical plans.  The
    table is per sink -- no module-level state to leak across legs --
    and rebuilding it after a checkpoint restore is free of semantics:
    compilation is a pure function of the shapes seen.
    """

    __slots__ = ("encoders", "by_kind")

    def __init__(self) -> None:
        #: ``(kind, key-tuple) -> generated function``.  Public so the
        #: sink's record hook can probe it without a call layer.
        self.encoders: Dict[Tuple[str, Tuple[str, ...]], object] = {}
        #: ``kind -> key-set-guarded generated function`` (hot dispatch).
        self.by_kind: Dict[str, object] = {}

    def kind_encoder(self, kind: str, data: Mapping[str, object]):
        """Compile (and register) ``kind``'s hot encoder from ``data``.

        The returned function is type-specialized on ``data``'s values
        and pins its key-set; its fallback re-dispatches through the
        shape table, so it is safe to call for *any* later payload of
        the same kind.
        """
        encoders = self.encoders

        def dispatch(seq, t, node, payload, id_maps):
            shape = (kind, tuple(payload))
            encode = encoders.get(shape)
            if encode is None:
                encode = encoders[shape] = compile_shape(kind, shape[1])
            return encode(seq, t, node, payload, id_maps)

        encoder = compile_shape(kind, tuple(data), data, fallback=dispatch)
        self.by_kind[kind] = encoder
        return encoder

    def line(
        self,
        seq: int,
        t: float,
        node: int,
        kind: str,
        data: Mapping[str, object],
        id_maps: Mapping[str, Dict[object, int]],
    ) -> str:
        shape = (kind, tuple(data))
        encode = self.encoders.get(shape)
        if encode is None:
            encode = self.encoders[shape] = compile_shape(kind, shape[1], data)
        return encode(seq, t, node, data, id_maps)


# -------------------------------------------------------------- reference


def encode_line_generic(
    seq: int,
    t: float,
    node: int,
    kind: str,
    data: Mapping[str, object],
    normalize,
) -> str:
    """The original generic encoder -- the differential reference twin.

    Byte-for-byte the line :class:`~repro.sim.trace.EventTraceSink`
    emitted before the compiled path existed; ``normalize`` is the
    sink's id-map hook.  Kept deliberately naive: every byte-identity
    gate (tests, bench ``:enc`` twins) compares the compiled output
    against exactly this.
    """
    record: Dict[str, object] = {"seq": seq, "t": t, "node": node, "kind": kind}
    for key in sorted(data):
        value = data[key]
        if isinstance(value, SCALARS):
            if isinstance(value, float):
                value = round(value, 9)
            record[key] = normalize(key, value)
    return json.dumps(record, sort_keys=False, separators=(",", ":"))
