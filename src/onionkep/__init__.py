"""Three-hop onion-routing circuits over a non-invertible multiplicative
key exchange: modular arithmetic, the handshake and block cipher, cell
wire formats, client/relay state machines, a directory service, a
deterministic network simulator and a TCP transport.
"""

from .errors import OnionKepError
from .nikep import (
    KeyPair,
    PrivateKey,
    PublicConstructor,
    SessionKey,
    SystemParams,
    decrypt_block,
    derive_session_key,
    encrypt_block,
    gen_keypair,
    gen_params,
    key_sizes,
    keypair_from_secrets,
    make_params,
    mix,
    params_digest,
    prefix_recover,
    reduce_key,
    strip,
)
from .onioncrypt import (
    Cell,
    CellCommand,
    RelayFrame,
    RelaySubcommand,
    chunk_decrypt,
    chunk_encrypt,
    decode_cell,
    decode_relay_frame,
    encode_cell,
    encode_relay_frame,
    key_digest,
    onion_wrap,
)

__all__ = [
    "OnionKepError",
    "SystemParams", "PublicConstructor", "PrivateKey", "KeyPair", "SessionKey",
    "gen_params", "make_params", "gen_keypair", "keypair_from_secrets",
    "mix", "strip", "reduce_key", "derive_session_key",
    "encrypt_block", "decrypt_block", "prefix_recover", "key_sizes", "params_digest",
    "Cell", "CellCommand", "RelayFrame", "RelaySubcommand",
    "encode_cell", "decode_cell", "encode_relay_frame", "decode_relay_frame",
    "chunk_encrypt", "chunk_decrypt", "onion_wrap", "key_digest",
]

__version__ = "0.1.0"
