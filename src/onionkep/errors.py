"""Exception hierarchy shared by all onionkep modules. No class is a
ValueError, which the command line reports as a usage error."""


class OnionKepError(Exception):
    """Base class for every error raised by this package."""


# -- number layers -----------------------------------------------------------

class InvalidValue(OnionKepError):
    """A number modmath or nikep refuses, such as a modulus below 2, a value
    with no inverse or a composite prime; the message names the check."""


class GenerationFailed(OnionKepError):
    """Prime generation exhausted its attempt budget."""


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
