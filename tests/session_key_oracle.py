"""The session-key derivation as it stood before it took one inverse.

``derive_session_key`` below is the former ``onionkep.nikep`` code, copied
unchanged: ``strip`` inverts the own k mod n, then ``reduce_key`` divides
by p*q and inverts the result mod r. Both stay public in ``nikep``, where
acceptance criteria 1 and 2 call them. It is kept only as the oracle for
the differential tests in ``test_nikep.py``.
"""

from __future__ import annotations

from onionkep.nikep import SessionKey, SystemParams, reduce_key, strip


def derive_session_key(params: SystemParams, v: int, own_k: int) -> SessionKey:
    """strip followed by reduce_key; the receive side of the handshake."""
    return reduce_key(params, strip(params, v, own_k))
