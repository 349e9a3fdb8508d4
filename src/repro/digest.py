"""SHA-256 from CPython's built-in module, not from OpenSSL.

Every digest the simulator writes -- archive segment footers, the
composed trace witness, checkpoint payloads, arrival logs, the session
fingerprint -- is SHA-256 and goes through :func:`sha256`.  ``import
hashlib`` maps OpenSSL's ``libcrypto`` into the process (about 3.5 MiB of
RSS) before a cluster coordinator forks its shard workers, and every
worker inherits it.  CPython builds SHA-256 in (``_sha2`` from 3.12,
``_sha256`` before), so it is taken from there, as ``random`` takes
``_sha512``; ``hashlib`` loads only on an interpreter built without it.
The bytes are SHA-256's either way.
"""

from __future__ import annotations

try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.10-3.11
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - an interpreter without either
        from hashlib import sha256

__all__ = ["sha256"]
