"""Non-invertible key exchange: parameters, keys, handshake and block cipher.

The modulus is n = p*q*r with p, q small primes (2 by default) and r a
large prime with 2 a primitive root. A user's public constructor is
(P, Q) = (p**(2x) * k, q**y * k) mod n with x + y = phi(n) + 1 and k
invertible mod n. Mixing a peer's constructor with one's own exponents
yields the shared secret still masked by the peer's k; stripping the mask
with k**-1 gives k_s = p**(2 x_a x_b) * q**(y_a y_b) mod n, which shares
factors with n and is therefore non-invertible. Dividing by p*q and
reducing mod r produces the invertible working key k_r used by the
multiplicative cipher c = m * k_r mod r.

Keypairs and mix are computed by the Chinese remainder theorem (CRT) on
n = p*q * r, and return the same integers as the direct formulas. Since
r - 1 divides phi and x + y == 1 (mod r - 1), P**x * Q**y == Q * (P/Q)**x
(mod r), and with p = q a constructor is (t**2 * k, p * k / t) mod r for
t = p**x. A keypair makes no exponentiation mod r: it reads t from a
table of powers of the fixed base p, one multiply per 6 bits of x mod
(r - 1) (Brickell, Gordon, McCurley and Wilson, 1992). A client's mix
reads such a table too, of the base P/Q mod r of a relay's published
constructor: the client host builds one the second time it resolves that
constructor from the directory, and keeps it on the SystemParams
(``note_resolved``). A relay's mix, whose constructors arrive in cells,
makes one exponentiation and one inverse mod r. The residue mod p*q takes
two small pows, and the CRT joins the two residues into the value mod n.
The direct two-pow formula is used for inputs the identity does not
cover: r equal to p or q, p != q for keypairs, Q == 0 (mod r), or a
hand-made PrivateKey whose x + y - 1 is not a multiple of r - 1.

A session key takes one inverse mod r and none mod n (Montgomery's
simultaneous inversion, 1987): w = (v * k * p*q)**-1 mod r gives both
k_r = v**2 * w and k_r**-1 = (k * p*q)**2 * w mod r, and k_s = p*q * k_r.
strip and reduce_key, with their two inverses and their errors, serve the
inputs this does not cover: r equal to p or q, v == 0 (mod r), v not a
multiple of p*q, or an own k that shares a factor with n.

The cipher is deterministic and malleable by construction; it offers no
semantic security and is implemented here exactly as the exchange defines
it.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import tlv
from .errors import InvalidValue, MalformedKeyFile
from .modmath import gen_prime_with_two_primitive, is_probable_prime, mod_inv, totient


# Relay constructors a SystemParams keeps for mix, with or without a table;
# the one resolved least recently is dropped first. A table holds 64
# residues mod r per 6 bits of r, about 180 KB at 256 bits.
MIX_TABLES_MAX = 1024
_MIX_TABLES_LOCK = threading.Lock()


@dataclass(frozen=True)
class SystemParams:
    """Public modulus structure shared by every party.

    The handshake assumes what make_params and gen_params ensure: p, q and
    r are prime and n = p*q*r.
    """

    p: int
    q: int
    r: int
    n: int
    phi: int

    @property
    def residue_width(self) -> int:
        """Bytes needed for one residue mod n; the wire width W."""
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt(self) -> tuple[int, int, int] | None:
        """(p*q, phi(p*q), (p*q)**-1 mod r), or None when r is p or q."""
        p, q, r = self.p, self.q, self.r
        if r in (p, q):
            return None
        pq = p * q
        return pq, (p * (p - 1) if p == q else (p - 1) * (q - 1)), pow(pq, -1, r)

    @cached_property
    def _p_table(self) -> tuple[tuple[int, ...], ...]:
        """The fixed-base table of p mod r. Only for r not p or q: p**x is
        read at x mod (r - 1)."""
        return _fixed_base_table(self.p % self.r, self.r)

    # PublicConstructor -> the fixed-base table of its P * Q**-1 mod r, or
    # None while it has been resolved only once; see note_resolved.
    _mix_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def note_resolved(self, pub: PublicConstructor) -> None:
        """Record that a client resolved the relay constructor ``pub`` from
        the directory. The second time, ``pub`` gets a fixed-base table of
        P * Q**-1 mod r, which ``mix`` then reads in place of an
        exponentiation and an inverse mod r.

        A relay never calls this: the constructors it mixes arrive in
        cells, and a table costs about nine exponentiations to build. Two
        threads may both build one table; they store equal values. At
        most MIX_TABLES_MAX constructors are kept; the one resolved least
        recently is dropped first, and is tabulated again from its second
        resolution on.
        """
        tables, r = self._mix_tables, self.r
        table = tables.get(pub)
        if table is None and pub in tables and self._crt is not None and pub.P % r and pub.Q % r:
            table = _fixed_base_table(pub.P * pow(pub.Q, -1, r) % r, r)
        with _MIX_TABLES_LOCK:
            tables[pub] = tables.pop(pub, None) or table
            while len(tables) > MIX_TABLES_MAX:
                del tables[next(iter(tables))]


def _fixed_base_table(base: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds base**(d * 64**i) mod r for d < 64, one row per 6 bits
    of r - 2 (Brickell, Gordon, McCurley and Wilson, 1992)."""
    rows = []
    for _ in range(0, (r - 2).bit_length(), 6):
        row = [1]
        for _ in range(63):
            row.append(row[-1] * base % r)
        rows.append(tuple(row))
        base = row[-1] * base % r
    return tuple(rows)


def _table_pow(rows: tuple[tuple[int, ...], ...], x: int, r: int) -> int:
    """base**x mod r from ``_fixed_base_table(base, r)``, for r prime and
    base not 0 mod r: one multiply per 6 bits of x mod (r - 1)."""
    e, t = x % (r - 1), 1
    for row in rows:
        t = t * row[e & 63] % r
        e >>= 6
    return t


class PublicConstructor(NamedTuple):
    P: int
    Q: int


class PrivateKey(NamedTuple):
    x: int
    y: int
    k: int


class KeyPair(NamedTuple):
    public: PublicConstructor
    private: PrivateKey


class SessionKey(NamedTuple):
    """Shared secret: raw k_s mod n plus its invertible reduction mod r."""

    raw: int
    reduced: int
    reduced_inv: int


def gen_params(r_bits: int, rng: random.Random, max_attempts: int = 500_000) -> SystemParams:
    """Default-profile parameters: p = q = 2, r safe prime with 2 primitive."""
    p = q = 2
    r = gen_prime_with_two_primitive(r_bits, rng, max_attempts=max_attempts)
    n = p * q * r
    return SystemParams(p=p, q=q, r=r, n=n, phi=totient(p, q, r))


def make_params(p: int, q: int, r: int) -> SystemParams:
    """Build params from explicit primes (toy instances, loaded key files);
    raises InvalidValue unless all three are prime."""
    for v in (p, q, r):
        if not is_probable_prime(v):
            raise InvalidValue(f"{v} is not prime")
    return SystemParams(p=p, q=q, r=r, n=p * q * r, phi=totient(p, q, r))


def keypair_from_secrets(params: SystemParams, x: int, k: int) -> KeyPair:
    """Deterministic keypair from chosen secrets; used by tests and loaders."""
    if math.gcd(k, params.n) != 1:
        raise InvalidValue(f"k = {k} shares a factor with n")
    y = params.phi - x + 1
    p = params.p
    if p != params.q or not _crt_applies(params, x, y):
        P = pow(p, 2 * x, params.n) * k % params.n
        Q = pow(params.q, y, params.n) * k % params.n
    else:
        t = _table_pow(params._p_table, x, params.r)
        P = _by_crt(params, _pow_pq(params, p, 2 * x) * k, t * t * k)
        Q = _by_crt(params, _pow_pq(params, p, y) * k, p * pow(t, -1, params.r) * k)
    return KeyPair(PublicConstructor(P, Q), PrivateKey(x, y, k))


def gen_keypair(params: SystemParams, rng: random.Random,
                prefix_safe: bool = True) -> KeyPair:
    """Random keypair: x uniform in [2, phi-2], k uniform invertible.

    Under the default prefix-safe policy k is drawn from (r, n) so that a
    prefix attack on captured products can recover at most k mod r, never
    k itself. Pass prefix_safe=False only for demonstrations.
    """
    x = rng.randrange(2, params.phi - 1)
    low = params.r + 1 if prefix_safe else 1
    while True:
        k = rng.randrange(low, params.n)
        if math.gcd(k, params.n) == 1:
            break
    return keypair_from_secrets(params, x, k)


def mix(params: SystemParams, peer_pub: PublicConstructor, own_priv: PrivateKey) -> int:
    """Raise the peer's constructor to the own exponents: the handshake value.

    Returns P**x * Q**y mod n = p**(2 x_a x_b) * q**(y_a y_b) * k_peer; the
    peer's k survives because k**(phi+1) == k mod n by Euler's theorem.
    Mod r that is Q * (P/Q)**x. For a constructor a client has tabulated
    (``SystemParams.note_resolved``), (P/Q)**x is read from its table with
    one multiply per 6 bits of x mod (r - 1). Otherwise, and always on a
    relay, which never tabulates, it takes one exponentiation and one
    inverse mod r.
    """
    P, Q = peer_pub.P, peer_pub.Q
    x, y = own_priv.x, own_priv.y
    r = params.r
    if Q % r == 0 or not _crt_applies(params, x, y):
        return (pow(P, x, params.n) * pow(Q, y, params.n)) % params.n
    pq_part = _pow_pq(params, P, x) * _pow_pq(params, Q, y)
    table = params._mix_tables.get(peer_pub)
    # A table exists only for P != 0 (mod r), as it reads x mod r - 1. The
    # pow keeps x as it is: P == 0 (mod r) must give 0**x, not 0**0.
    t = _table_pow(table, x, r) if table else pow(P * pow(Q, -1, r), x, r)
    return _by_crt(params, pq_part, Q * t)


def _crt_applies(params: SystemParams, x: int, y: int) -> bool:
    """True when r is not p or q and x + y == 1 (mod r - 1).

    A negative exponent needs no case of its own: pow raises the same
    ValueError mod p*q or mod r as it does mod n.
    """
    return params._crt is not None and (x + y - 1) % (params.r - 1) == 0


def _pow_pq(params: SystemParams, a: int, e: int) -> int:
    """a**e mod p*q, a positive exponent cut to below 2 + phi(p*q).

    No prime divides p*q more than twice, so a**e == a**(2 + (e-2) %
    phi(p*q)) mod p*q for every a once e >= 2.
    """
    pq, phi_pq, _ = params._crt
    return pow(a, e if e < 2 else 2 + (e - 2) % phi_pq, pq)


def _by_crt(params: SystemParams, a: int, b: int) -> int:
    """The residue mod n that is a mod p*q and b mod r."""
    pq, _, pq_inv = params._crt
    a %= pq
    return a + pq * ((b - a) * pq_inv % params.r)


def strip(params: SystemParams, v: int, own_k: int) -> int:
    """Remove the own-k mask from a received handshake value: v * k**-1 mod n."""
    return v * mod_inv(own_k, params.n) % params.n


def reduce_key(params: SystemParams, raw: int) -> SessionKey:
    """Divide the non-invertible raw key by p*q and reduce mod r.

    Raises InvalidValue when raw is not a positive multiple of p*q, or is
    0 mod r once divided, which signals a corrupted or adversarial handshake.
    """
    pq = params.p * params.q
    if raw <= 0 or raw % pq != 0:
        raise InvalidValue(f"raw session key {raw} not divisible by {pq}")
    reduced = (raw // pq) % params.r
    if reduced == 0:
        raise InvalidValue("reduced session key is 0 mod r")
    return SessionKey(raw=raw, reduced=reduced, reduced_inv=mod_inv(reduced, params.r))


def derive_session_key(params: SystemParams, v: int, own_k: int) -> SessionKey:
    """reduce_key(params, strip(params, v, own_k)), the receive side of the
    handshake, from one inverse mod r; see the module docstring."""
    if params._crt is not None:
        pq, r = params._crt[0], params.r
        vr, kpq = v % r, own_k * pq % r
        if vr and kpq and v % pq == 0 and math.gcd(own_k, pq) == 1:
            w = pow(vr * kpq, -1, r)
            reduced = vr * vr * w % r
            return SessionKey(raw=pq * reduced, reduced=reduced, reduced_inv=kpq * kpq * w % r)
    return reduce_key(params, strip(params, v, own_k))


def encrypt_block(m: int, key: SessionKey, params: SystemParams) -> int:
    """c = m * k_r mod r."""
    if not 0 <= m < params.r:
        raise InvalidValue(f"plaintext block {m} not in [0, r)")
    return m * key.reduced % params.r


def decrypt_block(c: int, key: SessionKey, params: SystemParams) -> int:
    """m = c * k_r**-1 mod r."""
    if not 0 <= c < params.r:
        raise InvalidValue(f"ciphertext block {c} not in [0, r)")
    return c * key.reduced_inv % params.r


def prefix_recover(params: SystemParams, c1: int, c2: int) -> int:
    """Run the prefix attack on two captured products c1 = w*k_m, c2 = w*k_m*k_n.

    Both captures are non-invertible mod n = 4r, but dividing by p*q = 4
    moves them to the field mod r where the prefix can be inverted:
    (c1/4)**-1 * (c2/4) mod r = k_n mod r. When k_n < r this is the full
    key; with the prefix-safe policy (k_n > r) only the residue leaks.
    """
    if params.p != 2 or params.q != 2:
        raise InvalidValue("prefix attack as stated requires p = q = 2")
    if c1 % 4 != 0 or c2 % 4 != 0:
        raise InvalidValue("captured values must be divisible by 4")
    a = (c1 // 4) % params.r
    if a == 0:
        raise InvalidValue("prefix reduces to 0 mod r")
    return mod_inv(a, params.r) * (c2 // 4) % params.r


def key_sizes(params: SystemParams) -> dict[str, int]:
    """Serialized key sizes in bytes for the current modulus width.

    public_bytes counts the two residues P and Q at width W = ceil(|n|/8).
    private_bytes counts the canonical private encoding: x and k at width W
    plus a 32-byte params digest reference (y is derivable and not stored).
    """
    w = params.residue_width
    return {"public_bytes": 2 * w, "private_bytes": 2 * w + 32}


def params_digest(params: SystemParams) -> bytes:
    """SHA-256 of the canonical TLV encoding of (p, q, r)."""
    return hashlib.sha256(_params_records(params)).digest()


def _params_records(params: SystemParams) -> bytes:
    return (tlv.encode_int_record(tlv.TAG_P, params.p)
            + tlv.encode_int_record(tlv.TAG_Q, params.q)
            + tlv.encode_int_record(tlv.TAG_R, params.r))


# -- key files ---------------------------------------------------------------
#
# Public files carry {p, q, r, P, Q}; private files add {x, k}. n and phi
# are recomputed on load, and stored constructors are checked against the
# private key when present.

def encode_public_file(params: SystemParams, pub: PublicConstructor) -> bytes:
    return (_params_records(params)
            + tlv.encode_int_record(tlv.TAG_PUB_P, pub.P)
            + tlv.encode_int_record(tlv.TAG_PUB_Q, pub.Q))


def encode_private_file(params: SystemParams, pair: KeyPair) -> bytes:
    return (encode_public_file(params, pair.public)
            + tlv.encode_int_record(tlv.TAG_X, pair.private.x)
            + tlv.encode_int_record(tlv.TAG_K, pair.private.k))


def decode_public_file(data: bytes) -> tuple[SystemParams, PublicConstructor]:
    return _decode_key_file(data)[:2]


def decode_private_file(data: bytes) -> tuple[SystemParams, KeyPair]:
    params, stored, fields = _decode_key_file(data, tlv.TAG_X, tlv.TAG_K)
    pair = keypair_from_secrets(params, fields[tlv.TAG_X], fields[tlv.TAG_K])
    if stored != pair.public:
        raise MalformedKeyFile("stored constructor does not match private key")
    return params, pair


def _decode_key_file(data: bytes, *more: int) -> tuple[SystemParams, PublicConstructor, dict]:
    """A key file's parameters, constructor and records; those tagged ``more`` must occur."""
    fields = {tag: int.from_bytes(value, "big") for tag, value in tlv.iter_records(data)}
    missing = {tlv.TAG_P, tlv.TAG_Q, tlv.TAG_R, tlv.TAG_PUB_P, tlv.TAG_PUB_Q,
               *more} - fields.keys()
    if missing:
        raise MalformedKeyFile(f"missing records: {sorted(hex(t) for t in missing)}")
    params = make_params(fields[tlv.TAG_P], fields[tlv.TAG_Q], fields[tlv.TAG_R])
    return params, PublicConstructor(P=fields[tlv.TAG_PUB_P], Q=fields[tlv.TAG_PUB_Q]), fields
