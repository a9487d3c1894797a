"""Bit I/O, Huffman and exp-Golomb coding tests (heavily property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bitstream import (
    BitReader,
    BitWriter,
    HuffmanCode,
    ZIGZAG,
    decode_magnitude,
    decode_se,
    decode_ue,
    encode_magnitude,
    encode_se,
    encode_ue,
    magnitude_category,
)


class TestBitIO:
    def test_simple_round_trip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b1, 1)
        r = BitReader(w.to_bytes())
        assert r.read(3) == 0b101
        assert r.read(1) == 1

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_padding_to_bytes(self):
        w = BitWriter()
        w.write(1, 1)
        data = w.to_bytes()
        assert len(data) == 1
        assert data[0] == 0b10000000

    @given(
        fields=st.lists(
            st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_many_fields(self, fields):
        w = BitWriter()
        for value, nbits in fields:
            w.write(value & ((1 << nbits) - 1), nbits)
        r = BitReader(w.to_bytes())
        for value, nbits in fields:
            assert r.read(nbits) == value & ((1 << nbits) - 1)

    def test_bits_left(self):
        r = BitReader(b"\xff")
        r.read(3)
        assert r.bits_left == 5


class TestHuffman:
    def test_prefix_free(self):
        code = HuffmanCode({i: 2.0 ** (-i) for i in range(10)})
        codes = sorted(code.encode_table.values(), key=lambda cl: cl[1])
        for i, (ci, li) in enumerate(codes):
            for cj, lj in codes[i + 1 :]:
                assert (cj >> (lj - li)) != ci, "prefix violation"

    def test_frequent_symbols_get_short_codes(self):
        code = HuffmanCode({"common": 100.0, "rare": 0.001, "mid": 1.0})
        assert code.encode_table["common"][1] <= code.encode_table["rare"][1]

    def test_single_symbol(self):
        code = HuffmanCode({"only": 1.0})
        w = BitWriter()
        code.write(w, "only")
        assert code.read(BitReader(w.to_bytes())) == "only"

    @given(
        seq=st.lists(st.integers(0, 19), min_size=1, max_size=200)
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_sequences(self, seq):
        code = HuffmanCode({i: 1.0 + (i % 7) for i in range(20)})
        w = BitWriter()
        for s in seq:
            code.write(w, s)
        r = BitReader(w.to_bytes())
        assert [code.read(r) for _ in seq] == seq

    def test_deterministic_construction(self):
        freqs = {i: float(i + 1) for i in range(12)}
        a = HuffmanCode(freqs).encode_table
        b = HuffmanCode(freqs).encode_table
        assert a == b

    def test_invalid_code_raises(self):
        code = HuffmanCode({0: 1.0, 1: 1.0})
        long_zeros = BitReader(bytes(8))
        code.read(long_zeros)  # one of the two symbols decodes
        bad = HuffmanCode({i: 2.0 ** (-i) for i in range(6)})
        # exhaust max length with an impossible pattern by reading from
        # all-ones if that pattern is unassigned; tolerate either outcome
        try:
            bad.read(BitReader(b"\xff" * 4))
        except ValueError:
            pass


class TestMagnitude:
    @given(value=st.integers(-2047, 2047))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, value):
        w = BitWriter()
        size = encode_magnitude(w, value)
        assert size == magnitude_category(value)
        r = BitReader(w.to_bytes()) if size else None
        got = decode_magnitude(r, size) if size else 0
        assert got == value

    def test_category_boundaries(self):
        assert magnitude_category(0) == 0
        assert magnitude_category(1) == 1
        assert magnitude_category(-1) == 1
        assert magnitude_category(255) == 8
        assert magnitude_category(-256) == 9


class TestExpGolomb:
    @given(value=st.integers(0, 100000))
    @settings(max_examples=60, deadline=None)
    def test_ue_round_trip(self, value):
        w = BitWriter()
        encode_ue(w, value)
        assert decode_ue(BitReader(w.to_bytes())) == value

    @given(value=st.integers(-5000, 5000))
    @settings(max_examples=60, deadline=None)
    def test_se_round_trip(self, value):
        w = BitWriter()
        encode_se(w, value)
        assert decode_se(BitReader(w.to_bytes())) == value

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_ue(BitWriter(), -1)

    def test_small_values_are_short(self):
        w = BitWriter()
        encode_ue(w, 0)
        assert len(w) == 1


class TestZigzag:
    def test_is_permutation(self):
        assert sorted(ZIGZAG) == list(range(64))

    def test_starts_at_dc_and_first_ac(self):
        assert ZIGZAG[0] == 0
        assert ZIGZAG[1] == 1      # (0,1)
        assert ZIGZAG[2] == 8      # (1,0)

    def test_ends_at_highest_frequency(self):
        assert ZIGZAG[-1] == 63


class OracleWriter:
    """The bit-at-a-time writer the field-wise one replaced: one list
    item per bit."""

    def __init__(self):
        self.bits = []

    def write(self, value, nbits):
        if nbits < 0 or (nbits and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for i in range(nbits - 1, -1, -1):
            self.bits.append((value >> i) & 1)

    def to_bytes(self):
        out = bytearray()
        for i in range(0, len(self.bits), 8):
            chunk = self.bits[i : i + 8]
            chunk += [0] * (8 - len(chunk))
            byte = 0
            for b in chunk:
                byte = (byte << 1) | b
            out.append(byte)
        return bytes(out)


class OracleReader:
    """The bit-at-a-time reader the field-wise one replaced."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self, nbits):
        value = 0
        for _ in range(nbits):
            byte = self.data[self.pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
            self.pos += 1
        return value

    def read_bit(self):
        return self.read(1)


def oracle_huffman_read(code, reader):
    """The canonical prefix walk, one ``read_bit`` at a time."""
    decode = {(length, bits): symbol for symbol, (bits, length) in code.encode_table.items()}
    bits = 0
    for length in range(1, code.max_length + 1):
        bits = (bits << 1) | reader.read_bit()
        if (length, bits) in decode:
            return decode[(length, bits)]
    raise ValueError("invalid Huffman code in bitstream")


def outcome(call):
    """A call's value, or the type of what it raised."""
    try:
        return call()
    except (IndexError, ValueError) as exc:
        return type(exc)


#: A field width to read, or ``None`` for one ``read_bit``.
READS = st.lists(st.one_of(st.none(), st.integers(0, 30)), max_size=40)


class TestFieldwiseAgainstBitAtATime:
    """The field-wise writer, reader and Huffman decoder produce and
    consume what the bit-at-a-time ones did, reads past the end and
    invalid codes included."""

    @given(
        fields=st.lists(
            st.tuples(st.integers(-4, 2**30), st.integers(-1, 30)), max_size=60
        ),
        reads=READS,
    )
    @settings(max_examples=200, deadline=None)
    def test_writer_then_reader(self, fields, reads):
        new, old = BitWriter(), OracleWriter()
        for value, nbits in fields:
            assert outcome(lambda: new.write(value, nbits)) == outcome(
                lambda: old.write(value, nbits)
            )
            assert len(new) == len(old.bits)
        data = new.to_bytes()
        assert data == old.to_bytes()
        fast, slow = BitReader(data), OracleReader(data)
        for nbits in reads:
            if nbits is None:
                assert outcome(fast.read_bit) == outcome(slow.read_bit)
            else:
                assert outcome(lambda: fast.read(nbits)) == outcome(lambda: slow.read(nbits))
            assert fast.pos == slow.pos
            assert fast.bits_left == 8 * len(data) - slow.pos

    @given(
        weights=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
        data=st.binary(max_size=24),
        start=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_huffman_reads(self, weights, data, start):
        code = HuffmanCode({i: float(w) for i, w in enumerate(weights)})
        fast, slow = BitReader(data), OracleReader(data)
        if 8 * len(data) >= start:
            fast.pos = slow.pos = start
        while True:
            got = outcome(lambda: code.read(fast))
            assert got == outcome(lambda: oracle_huffman_read(code, slow))
            assert fast.pos == slow.pos
            if got in (IndexError, ValueError):
                break

    def test_an_unassigned_code_raises_after_max_length_bits(self):
        code = HuffmanCode({"only": 1.0})
        reader = BitReader(b"\x80")
        with pytest.raises(ValueError):
            code.read(reader)
        assert reader.pos == 1
        assert code.read(reader) == "only"

    def test_a_code_past_the_end_raises_index_error(self):
        # Lengths 1..11 (two of 11): all ones is the longest code, and
        # the five ones after it begin a 6-bit code.
        code = HuffmanCode({i: 2.0 ** (-i) for i in range(12)})
        reader = BitReader(b"\xff\xff")
        assert code.read(reader) == 11 and reader.pos == 11
        with pytest.raises(IndexError):
            code.read(reader)
        assert reader.pos == 16
