"""Exception hierarchy shared by all onionkep modules."""


class OnionKepError(Exception):
    """Base class for every error raised by this package."""


# -- modular arithmetic ------------------------------------------------------

class InvalidModulus(OnionKepError):
    """Modulus smaller than 2."""


class NonInvertible(OnionKepError):
    """gcd(a, modulus) != 1, so no multiplicative inverse exists."""


class NotPrime(OnionKepError):
    """An argument required to be prime failed the primality test."""


class GenerationFailed(OnionKepError):
    """Prime generation exhausted its attempt budget."""


class UnsupportedShape(OnionKepError):
    """Parameters the prefix attack is not stated for: it needs p = q = 2."""


# -- key exchange ------------------------------------------------------------

class MalformedSessionKey(OnionKepError):
    """Raw session key is not divisible by p*q; corrupted or adversarial."""


class BlockOutOfRange(OnionKepError):
    """Cipher block value is >= r."""


class MalformedCapture(OnionKepError):
    """Captured ciphertext is not divisible by p*q as the prefix attack requires."""


class DegenerateCapture(OnionKepError):
    """Captured prefix reduces to 0 mod r and cannot be inverted."""


class MalformedKeyFile(OnionKepError):
    """Key file is truncated, missing records, or internally inconsistent."""


# -- wire formats ------------------------------------------------------------

class EncodingOverflow(OnionKepError):
    """A value does not fit its field: an integer its fixed width, a node
    name its one-byte length, a cell payload or frame data its two-byte length."""


class MalformedPayload(OnionKepError):
    """Chunked ciphertext stream fails structural validation."""


class MalformedCell(OnionKepError):
    """Cell, relay frame, CREATE, CREATED or EXTEND bytes do not match
    their layout or vocabulary."""


# -- protocol / network ------------------------------------------------------

class NotReady(OnionKepError):
    """Operation requires a fully confirmed circuit."""


class DuplicateName(OnionKepError):
    """Directory re-registration under the same name with a different key."""


class NotFound(OnionKepError):
    """Directory has no descriptor under the requested name."""


class ParamsMismatch(OnionKepError):
    """Descriptor was produced under different system parameters."""


class StepBudgetExceeded(OnionKepError):
    """Simulator event loop exceeded its step budget."""


class FrameTooLarge(OnionKepError):
    """Stream frame exceeds the transport size cap."""
