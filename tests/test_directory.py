"""Directory registry: registration rules, lookup, snapshot persistence,
and its wire protocol: requests, answers and the TLV record reader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionkep import keypair_from_secrets, make_params, params_digest, tlv
from onionkep.directory import (
    Directory,
    NodeDescriptor,
    decode_descriptor,
    decode_descriptors,
    encode_descriptor,
    read_answer,
)
from onionkep.errors import (
    DuplicateName,
    MalformedKeyFile,
    NotFound,
    OnionKepError,
    ParamsMismatch,
)


@pytest.fixture
def digest(toy_params):
    return params_digest(toy_params)


@pytest.fixture
def desc_b(toy_params, toy_bob, digest):
    return NodeDescriptor(name="B", address="127.0.0.1:9001",
                          public=toy_bob.public, params_digest=digest)


class TestDescriptorCodec:
    def test_round_trip(self, desc_b):
        assert decode_descriptors(encode_descriptor(desc_b)) == [desc_b]

    def test_multiple_concatenated(self, toy_params, toy_alice, desc_b, digest):
        other = NodeDescriptor(name="C", address="127.0.0.1:9002",
                               public=toy_alice.public, params_digest=digest)
        blob = encode_descriptor(desc_b) + encode_descriptor(other)
        assert decode_descriptors(blob) == [desc_b, other]

    def test_missing_field(self, desc_b):
        # Drop the trailing digest record (tag + 4-byte length + 32 bytes).
        blob = encode_descriptor(desc_b)[:-37]
        with pytest.raises(MalformedKeyFile):
            decode_descriptors(blob)

    def test_name_length_cap(self, toy_bob, digest):
        desc = NodeDescriptor(name="x" * 256, address="a", public=toy_bob.public,
                              params_digest=digest)
        with pytest.raises(ValueError):
            encode_descriptor(desc)


class TestDirectory:
    def test_register_and_lookup(self, digest, desc_b):
        directory = Directory(digest)
        directory.register(desc_b)
        assert directory.lookup("B") == desc_b

    def test_lookup_missing(self, digest):
        with pytest.raises(NotFound):
            Directory(digest).lookup("nobody")

    def test_reject_foreign_params(self, digest, desc_b):
        directory = Directory(b"\x00" * 32)
        with pytest.raises(ParamsMismatch):
            directory.register(desc_b)
        assert directory.list() == []

    def test_reject_name_takeover(self, toy_params, toy_alice, digest, desc_b):
        directory = Directory(digest)
        directory.register(desc_b)
        impostor = NodeDescriptor(name="B", address="10.0.0.1:1",
                                  public=toy_alice.public, params_digest=digest)
        with pytest.raises(DuplicateName):
            directory.register(impostor)
        assert directory.lookup("B") == desc_b

    def test_same_key_address_update(self, digest, desc_b):
        directory = Directory(digest)
        directory.register(desc_b)
        moved = NodeDescriptor(name="B", address="127.0.0.1:9100",
                               public=desc_b.public, params_digest=digest)
        directory.register(moved)
        assert directory.lookup("B").address == "127.0.0.1:9100"

    def test_list_sorted(self, toy_alice, toy_bob, digest):
        directory = Directory(digest)
        for name, pair in [("C", toy_alice), ("B", toy_bob)]:
            directory.register(NodeDescriptor(name=name, address="a",
                                              public=pair.public, params_digest=digest))
        assert [d.name for d in directory.list()] == ["B", "C"]


class TestSnapshot:
    def test_survives_restart(self, tmp_path, digest, desc_b):
        path = str(tmp_path / "dir.tlv")
        Directory(digest, snapshot_path=path).register(desc_b)
        reborn = Directory(digest, snapshot_path=path)
        assert reborn.lookup("B") == desc_b

    def test_no_file_until_mutation(self, tmp_path, digest):
        path = tmp_path / "dir.tlv"
        Directory(digest, snapshot_path=str(path))
        assert not path.exists()

    # A snapshot is loaded under the rules of ``register``, and is not
    # rewritten while it loads.
    def test_foreign_params_record_is_refused(self, tmp_path, digest, desc_b):
        path = tmp_path / "dir.tlv"
        path.write_bytes(encode_descriptor(desc_b))
        with pytest.raises(ParamsMismatch):
            Directory(b"\x00" * 32, snapshot_path=str(path))
        assert path.read_bytes() == encode_descriptor(desc_b)

    def test_name_taken_by_another_key_is_refused(self, tmp_path, toy_alice, digest, desc_b):
        impostor = NodeDescriptor(name="B", address="10.0.0.1:1",
                                  public=toy_alice.public, params_digest=digest)
        path = tmp_path / "dir.tlv"
        path.write_bytes(encode_descriptor(desc_b) + encode_descriptor(impostor))
        with pytest.raises(DuplicateName):
            Directory(digest, snapshot_path=str(path))

    def test_load_does_not_rewrite_the_file(self, tmp_path, digest, desc_b):
        moved = NodeDescriptor(name="B", address="127.0.0.1:9100",
                               public=desc_b.public, params_digest=digest)
        path = tmp_path / "dir.tlv"
        blob = encode_descriptor(desc_b) + encode_descriptor(moved)
        path.write_bytes(blob)
        assert Directory(digest, snapshot_path=str(path)).list() == [moved]
        assert path.read_bytes() == blob

    def test_a_registration_writes_only_its_own_record(self, tmp_path, digest, desc_b,
                                                         writes):
        # Rewriting the whole snapshot made n registrations cost O(n**2).
        path = str(tmp_path / "dir.tlv")
        directory = Directory(digest, snapshot_path=path)
        descs = [NodeDescriptor(name=f"N{i:03}", address="127.0.0.1:1",
                                public=desc_b.public, params_digest=digest)
                 for i in range(40)]
        for desc in descs:
            directory.register(desc)
        assert writes.lengths == [len(encode_descriptor(descs[0]))] * 40
        directory.register(descs[7])  # identical: nothing to write
        assert len(writes.lengths) == 40
        assert Directory(digest, snapshot_path=path).list() == descs

    def test_superseded_records_are_compacted(self, tmp_path, digest, desc_b, writes):
        # A node that re-registers from a new port on every restart must not
        # grow the file with its history.
        path = tmp_path / "dir.tlv"
        directory = Directory(digest, snapshot_path=str(path))
        others = [NodeDescriptor(name=f"N{i}", address="127.0.0.1:1",
                                 public=desc_b.public, params_digest=digest)
                  for i in range(3)]
        for desc in others:
            directory.register(desc)
        for port in range(9000, 9100):
            directory.register(NodeDescriptor(name="B", address=f"127.0.0.1:{port}",
                                              public=desc_b.public, params_digest=digest))
            assert len(decode_descriptors(path.read_bytes())) <= 2 * len(directory.list())
        assert sum(writes.lengths) <= 3 * 103 * len(encode_descriptor(others[0]))
        assert Directory(digest, snapshot_path=str(path)).list() == directory.list()

    @pytest.mark.parametrize("name", ["B", "C"])
    def test_failed_write_is_undone_and_rewritten(self, tmp_path, digest, desc_b, writes,
                                                  name):
        path = str(tmp_path / "dir.tlv")
        directory = Directory(digest, snapshot_path=path)
        directory.register(desc_b)
        failed = NodeDescriptor(name=name, address="127.0.0.1:9100",
                                public=desc_b.public, params_digest=digest)
        writes.tear_next = True
        with pytest.raises(OSError):
            directory.register(failed)
        assert directory.list() == [desc_b]
        with pytest.raises(MalformedKeyFile):
            Directory(digest, snapshot_path=path)
        directory.register(failed)  # rewrites the torn file whole
        assert failed in directory.list()
        assert Directory(digest, snapshot_path=path).list() == directory.list()

    def test_later_record_wins_after_restart(self, tmp_path, digest, desc_b):
        moved = NodeDescriptor(name="B", address="127.0.0.1:9100",
                               public=desc_b.public, params_digest=digest)
        path = str(tmp_path / "dir.tlv")
        directory = Directory(digest, snapshot_path=path)
        for desc in (desc_b, moved):
            directory.register(desc)
        assert Directory(digest, snapshot_path=path).list() == [moved]

    def test_torn_tail_fails_the_load(self, tmp_path, digest, desc_b):
        path = tmp_path / "dir.tlv"
        Directory(digest, snapshot_path=str(path)).register(desc_b)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(MalformedKeyFile):
            Directory(digest, snapshot_path=str(path))


class TestRecordReader:
    def test_wire_values(self):
        tags = {name: tag for name, tag in vars(tlv).items() if name.startswith("TAG_")}
        assert tags == {"TAG_P": 0x01, "TAG_Q": 0x02, "TAG_R": 0x03, "TAG_X": 0x05,
                        "TAG_K": 0x06, "TAG_PUB_P": 0x07, "TAG_PUB_Q": 0x08,
                        "TAG_DIR_REGISTER": 0x10, "TAG_DIR_LOOKUP": 0x11, "TAG_NAME": 0x20,
                        "TAG_ADDRESS": 0x21, "TAG_PARAMS_DIGEST": 0x22, "TAG_STATUS": 0x7F}

    def test_split_first(self):
        data = tlv.encode_record(0x20, b"ab") + b"rest"
        assert tlv.split_first(data) == (0x20, b"ab", b"rest")

    @pytest.mark.parametrize("data", [b"", b"\x20\x00\x00\x00", b"\x20\x00\x00\x00\x02a"])
    def test_split_first_needs_a_whole_record(self, data):
        with pytest.raises(MalformedKeyFile):
            tlv.split_first(data)

    def test_length_reads_all_four_bytes(self):
        # The top length byte alone announces 2^24 bytes.
        with pytest.raises(MalformedKeyFile, match="truncated value for tag 0x20"):
            tlv.split_first(b"\x20\x01\x00\x00\x00" + bytes(255))

    def test_records_are_read_without_copying_the_rest(self, monkeypatch):
        # Each record read slices a memoryview of the input, so reading n
        # records costs O(n) and not the O(n^2) of slicing bytes.
        data = tlv.encode_record(0x20, b"ab") * 3
        _, value, rest = tlv.split_first(memoryview(data))
        assert type(value) is bytes
        assert isinstance(rest, memoryview) and rest.obj is data
        read = []
        split_first = tlv.split_first
        monkeypatch.setattr(tlv, "split_first", lambda rest: read.append(rest) or split_first(rest))
        assert list(tlv.iter_records(data)) == [(0x20, b"ab")] * 3
        assert len(read) == 3 and all(rest.obj is data for rest in read)

    def test_text_must_be_utf8(self):
        assert tlv.decode_text("é".encode()) == "é"
        with pytest.raises(MalformedKeyFile):
            tlv.decode_text(b"\xff")


class TestWireProtocol:
    def _directory(self, digest, desc_b):
        directory = Directory(digest)
        directory.register(desc_b)
        return directory

    def test_answers_round_trip(self, toy_alice, digest, desc_b):
        directory = self._directory(digest, desc_b)
        lookup = directory.answer(tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"B"))
        assert decode_descriptor(read_answer(lookup)) == desc_b
        register = directory.answer(tlv.encode_record(tlv.TAG_DIR_REGISTER,
                                                      encode_descriptor(desc_b)))
        assert read_answer(register) == b""
        # A descriptor registered over the wire is looked up over the wire.
        desc_c = NodeDescriptor(name="C", address="c", public=toy_alice.public,
                                params_digest=digest)
        directory.answer(tlv.encode_record(tlv.TAG_DIR_REGISTER, encode_descriptor(desc_c)))
        lookup = directory.answer(tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"C"))
        assert decode_descriptor(read_answer(lookup)) == desc_c

    @pytest.mark.parametrize("request_, status, error", [
        (tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"ghost"), 1, NotFound),
        (tlv.encode_record(0x55, b""), 1, NotFound),
        (tlv.encode_record(0x12, b""), 1, NotFound),
        (b"", 255, OnionKepError),
        (tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"\xff"), 255, OnionKepError),
    ])
    def test_failures_are_statuses(self, digest, desc_b, request_, status, error):
        answer = self._directory(digest, desc_b).answer(request_)
        assert answer == tlv.encode_record(tlv.TAG_STATUS, bytes([status]))
        with pytest.raises(error) as raised:
            read_answer(answer)
        assert f"status {status}" in str(raised.value)

    def test_register_statuses(self, toy_alice, digest, desc_b):
        directory = self._directory(digest, desc_b)
        impostor = NodeDescriptor(name="B", address="a", public=toy_alice.public,
                                  params_digest=digest)
        foreign = NodeDescriptor(name="C", address="a", public=toy_alice.public,
                                 params_digest=bytes(32))
        for desc, status in ((impostor, 2), (foreign, 3)):
            request = tlv.encode_record(tlv.TAG_DIR_REGISTER, encode_descriptor(desc))
            assert directory.answer(request) == tlv.encode_record(tlv.TAG_STATUS,
                                                                  bytes([status]))

    def test_one_descriptor_decoder(self, desc_b):
        blob = encode_descriptor(desc_b)
        assert decode_descriptor(blob) == desc_b
        for count in (0, 2):
            with pytest.raises(MalformedKeyFile):
                decode_descriptor(blob * count)

    def test_name_longer_than_255_bytes_is_refused(self, digest, desc_b):
        # It could be registered, but not encoded again: every later lookup
        # of it, and the snapshot, would fail. The decoder refuses it as the encoder does.
        blob = encode_descriptor(desc_b).replace(
            tlv.encode_record(tlv.TAG_NAME, b"B"), tlv.encode_record(tlv.TAG_NAME, b"x" * 256))
        with pytest.raises(MalformedKeyFile):
            decode_descriptors(blob)
        directory = Directory(digest)
        answer = directory.answer(tlv.encode_record(tlv.TAG_DIR_REGISTER, blob))
        assert answer == tlv.encode_record(tlv.TAG_STATUS, bytes([255]))
        assert directory.list() == []

    @pytest.mark.parametrize("answer", [
        b"",
        tlv.encode_record(tlv.TAG_STATUS, b""),
        tlv.encode_record(tlv.TAG_STATUS, b"\x00\x00"),
        tlv.encode_record(tlv.TAG_NAME, b"\x00"),
    ])
    def test_malformed_answers(self, answer):
        with pytest.raises(MalformedKeyFile):
            read_answer(answer)


# -- generated wire bytes ----------------------------------------------------

TOY_PARAMS = make_params(2, 2, 11)
TOY_DIGEST = params_digest(TOY_PARAMS)
NAMES = st.sampled_from([b"B", b"C", "é".encode(), b"\xff", b"x" * 255, b"x" * 256])


def descriptor_bytes(name, address, p, q, digest):
    return (tlv.encode_record(tlv.TAG_NAME, name) + tlv.encode_record(tlv.TAG_ADDRESS, address)
            + tlv.encode_int_record(tlv.TAG_PUB_P, p) + tlv.encode_int_record(tlv.TAG_PUB_Q, q)
            + tlv.encode_record(tlv.TAG_PARAMS_DIGEST, digest))


# Descriptors under the toy parameters, and ones with any field malformed.
TOY_DESCRIPTORS = st.builds(descriptor_bytes, NAMES, st.just(b"127.0.0.1:1"),
                            st.integers(0, 3), st.integers(0, 3), st.just(TOY_DIGEST))
DESCRIPTORS = TOY_DESCRIPTORS | st.builds(
    descriptor_bytes, NAMES | st.binary(max_size=4), st.binary(max_size=8),
    st.integers(0, 100), st.integers(0, 100),
    st.sampled_from([TOY_DIGEST, bytes(32)]) | st.binary(max_size=33))
RECORDS = st.builds(
    tlv.encode_record,
    st.sampled_from([tlv.TAG_NAME, tlv.TAG_ADDRESS, tlv.TAG_PUB_P, tlv.TAG_PUB_Q,
                     tlv.TAG_PARAMS_DIGEST, tlv.TAG_STATUS]) | st.integers(0, 255),
    st.binary(max_size=12))
# Whole records and descriptors, or random bytes, cut short by up to 8 bytes.
WIRE = st.tuples(
    st.binary(max_size=64) | st.lists(RECORDS | DESCRIPTORS, max_size=6).map(b"".join),
    st.integers(0, 8)).map(lambda cut: cut[0][:max(0, len(cut[0]) - cut[1])])
UNSERVED_TAG = 0x12  # the tag after REGISTER's and LOOKUP's, which serves no request
REQUESTS = st.one_of(
    WIRE,
    st.builds(tlv.encode_record,
              st.sampled_from([tlv.TAG_DIR_REGISTER, tlv.TAG_DIR_LOOKUP, UNSERVED_TAG]),
              WIRE | DESCRIPTORS | NAMES),
    st.builds(tlv.encode_record, st.just(tlv.TAG_DIR_REGISTER), TOY_DESCRIPTORS),
    st.builds(tlv.encode_record, st.just(tlv.TAG_DIR_LOOKUP), NAMES),
    st.just(tlv.encode_record(UNSERVED_TAG, b"")))


class TestMalformedWireBytes:
    @settings(max_examples=4 * settings.default.max_examples, deadline=None)  # 400, or 4000 under ``thorough``
    @given(st.lists(REQUESTS, min_size=1, max_size=6))
    def test_answer_is_exactly_one_status_record(self, requests):
        directory = Directory(TOY_DIGEST)
        for request in requests:
            answer = directory.answer(request)
            tag, status, rest = tlv.split_first(answer)
            assert tag == tlv.TAG_STATUS and status in (b"\0", b"\1", b"\2", b"\3", b"\xff")
            assert all(tag != tlv.TAG_STATUS for tag, _ in tlv.iter_records(rest))
            if status != b"\0":
                assert rest == b""
                with pytest.raises(OnionKepError):
                    read_answer(answer)
            else:
                assert read_answer(answer) == rest
                decode_descriptors(rest)

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)  # 400, or 4000 under ``thorough``
    @given(WIRE | st.builds(lambda status, rest: tlv.encode_record(tlv.TAG_STATUS, status) + rest,
                            st.binary(max_size=2), WIRE))
    def test_read_answer_raises_only_onionkep_errors(self, answer):
        try:
            read_answer(answer)
        except OnionKepError:
            pass

    @settings(max_examples=4 * settings.default.max_examples, deadline=None)  # 400, or 4000 under ``thorough``
    @given(WIRE)
    def test_decode_descriptors_raises_only_onionkep_errors(self, data):
        try:
            decode_descriptors(data)
        except OnionKepError:
            pass
