"""``repro.digest.sha256`` is SHA-256: ``hashlib``'s, the oracle here.

Every digest the simulator writes goes through the built-in module, so
it must give ``hashlib``'s bytes for any input, fed in any chunking.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.digest import sha256


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=4096), cuts=st.lists(st.integers(0, 4096)))
def test_matches_hashlib_in_any_chunking(data, cuts):
    ours, oracle = sha256(), hashlib.sha256()
    bounds = [0, *sorted(cut % (len(data) + 1) for cut in cuts), len(data)]
    for start, end in zip(bounds, bounds[1:]):
        ours.update(data[start:end])
        oracle.update(data[start:end])
    assert ours.digest() == oracle.digest()
    assert ours.hexdigest() == oracle.hexdigest()
    assert sha256(data).hexdigest() == oracle.hexdigest()
