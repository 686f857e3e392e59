import random

import pytest

from onionkep import Cell, CellCommand, gen_params, keypair_from_secrets, make_params
from onionkep.onioncrypt import (
    RelayFrame,
    RelaySubcommand,
    build_create_payload,
    encode_relay_frame,
    onion_wrap,
)


class ScriptedRng:
    """Feeds predetermined draws to code expecting a random.Random."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        value = self.values.pop(0)
        if stop is None:
            start, stop = 0, start
        assert start <= value < stop, f"scripted draw {value} outside [{start}, {stop})"
        return value


def raw_extend_cell(state, name: bytes) -> Cell:
    """A RELAY cell for ``state``'s circuit carrying an EXTEND whose name is
    the raw bytes ``name`` in a correctly sized layout, layered under every
    confirmed hop's key as ``client_extend`` layers it."""
    data = bytes([len(name)]) + name + build_create_payload(
        1, 1, 1, state.params.residue_width)
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.EXTEND, 0, data))
    keys = [hop.session for hop in state.hops if hop.confirmed]
    return Cell(state.circ_id, CellCommand.RELAY, onion_wrap(frame, keys[::-1], state.params))


def outcome(fn, *args, **kwargs):
    """The return value of ``fn``, or the type and message it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def tabulate(params, pub) -> None:
    """Resolve ``pub`` twice under ``params``, as a client's second build
    does, so that ``mix`` reads a fixed-base table for it."""
    params.note_resolved(pub)
    params.note_resolved(pub)


def built_tables(params) -> dict:
    """The fixed-base tables ``params`` holds for ``mix``, by constructor."""
    return {pub: rows for pub, rows in params._mix_tables.items() if rows is not None}


@pytest.fixture
def toy_params():
    # p = q = 2, r = 11: n = 44, phi = 20. All worked examples live here.
    return make_params(2, 2, 11)


@pytest.fixture
def toy_alice(toy_params):
    return keypair_from_secrets(toy_params, 3, 13)


@pytest.fixture
def toy_bob(toy_params):
    return keypair_from_secrets(toy_params, 5, 15)


@pytest.fixture(scope="session")
def params_64():
    return gen_params(64, random.Random(0xBEEF))


@pytest.fixture(scope="session")
def params_256():
    return gen_params(256, random.Random(0xCAFE))
