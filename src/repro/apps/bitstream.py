"""Bit-level I/O and Huffman coding shared by the JPEG and MPEG-2 codecs."""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Tuple


class BitWriter:
    """MSB-first bit accumulator: whole bytes in a buffer, and the
    fewer than eight bits after them in an int."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._pending = 0  # the last ``_npending`` bits written
        self._npending = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        bits = (self._pending << nbits) | (value & ((1 << nbits) - 1))
        npending = self._npending + nbits
        if npending >= 8:
            spill = npending & 7
            self._bytes += (bits >> spill).to_bytes(npending >> 3, "big")
            bits &= (1 << spill) - 1
            npending = spill
        self._pending, self._npending = bits, npending

    def __len__(self) -> int:
        return 8 * len(self._bytes) + self._npending

    def to_bytes(self) -> bytes:
        """The bits written, the last byte zero-padded."""
        if not self._npending:
            return bytes(self._bytes)
        return bytes(self._bytes) + bytes((self._pending << (8 - self._npending),))


class BitReader:
    """MSB-first bit consumer over a bytes object.

    A read past the end raises :class:`IndexError` having consumed the
    bits that remained.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read(self, nbits: int) -> int:
        """The next ``nbits`` bits as an unsigned int."""
        pos = self.pos
        end = pos + nbits
        if end > 8 * len(self.data):
            self.pos = 8 * len(self.data)
            raise IndexError("read past the end of the bitstream")
        self.pos = end
        chunk = int.from_bytes(self.data[pos >> 3 : (end + 7) >> 3], "big")
        return (chunk >> (-end & 7)) & ((1 << nbits) - 1)

    def read_bit(self) -> int:
        pos = self.pos
        bit = (self.data[pos >> 3] >> (~pos & 7)) & 1
        self.pos = pos + 1
        return bit

    def peek(self, nbits: int) -> Tuple[int, int]:
        """``(bits, available)``: the next ``nbits`` bits, zero-filled past
        the end, and how many of them the stream holds; consumes none."""
        pos = self.pos
        end = pos + nbits
        chunk = int.from_bytes(self.data[pos >> 3 : (end + 7) >> 3], "big")
        have = 8 * len(self.data) - pos
        if have < nbits:
            chunk <<= (((end + 7) >> 3) - len(self.data)) * 8
        return (chunk >> (-end & 7)) & ((1 << nbits) - 1), have

    @property
    def bits_left(self) -> int:
        return 8 * len(self.data) - self.pos


class HuffmanCode:
    """A deterministic canonical Huffman code over hashable symbols."""

    def __init__(self, frequencies: Dict[Hashable, float]) -> None:
        self.lengths = _huffman_lengths(frequencies)
        self.encode_table: Dict[Hashable, Tuple[int, int]] = {}
        #: Per code length, ascending: ``(length, first code, symbols)``;
        #: a canonical code's codes of one length are consecutive ints.
        self._by_length: List[Tuple[int, int, List[Hashable]]] = []
        code = 0
        last_len = 0
        ordered = sorted(self.lengths.items(), key=lambda kv: (kv[1], repr(kv[0])))
        for symbol, length in ordered:
            code <<= length - last_len
            if length != last_len:
                self._by_length.append((length, code, []))
            last_len = length
            self.encode_table[symbol] = (code, length)
            self._by_length[-1][2].append(symbol)
            code += 1
        self.max_length = last_len

    def write(self, writer: BitWriter, symbol: Hashable) -> int:
        """Emit one symbol; returns the number of bits written."""
        code, length = self.encode_table[symbol]
        writer.write(code, length)
        return length

    def read(self, reader: BitReader) -> Hashable:
        """Decode one symbol by canonical-code lookup.

        The next ``max_length`` bits hold exactly one code as a prefix:
        the shortest length whose code range holds the bits' prefix of
        that length.  A code running past the end raises
        :class:`IndexError`, bits that match no code :class:`ValueError`,
        each having consumed what a bit-by-bit walk would have.
        """
        longest = self.max_length
        window, available = reader.peek(longest)
        for length, first, symbols in self._by_length:
            index = (window >> (longest - length)) - first
            if 0 <= index < len(symbols):
                if length > available:
                    break
                reader.pos += length
                return symbols[index]
        else:
            if longest <= available:
                reader.pos += longest
                raise ValueError("invalid Huffman code in bitstream")
        reader.pos += available
        raise IndexError("read past the end of the bitstream")


def _huffman_lengths(frequencies: Dict[Hashable, float]) -> Dict[Hashable, int]:
    """Code lengths via the standard heap construction, deterministic."""
    if len(frequencies) == 1:
        return {next(iter(frequencies)): 1}
    heap = [
        (freq, repr(symbol), [symbol])
        for symbol, freq in frequencies.items()
    ]
    heapq.heapify(heap)
    lengths = {symbol: 0 for symbol in frequencies}
    while len(heap) > 1:
        f1, r1, s1 = heapq.heappop(heap)
        f2, r2, s2 = heapq.heappop(heap)
        for symbol in s1 + s2:
            lengths[symbol] += 1
        heapq.heappush(heap, (f1 + f2, min(r1, r2), s1 + s2))
    return lengths


def magnitude_category(value: int) -> int:
    """JPEG-style size category: bits needed for |value|."""
    return int(value).bit_length() if value >= 0 else int(-value).bit_length()


def encode_magnitude(writer: BitWriter, value: int) -> int:
    """JPEG-style amplitude bits (one's-complement for negatives)."""
    size = magnitude_category(value)
    if size:
        bits = value if value > 0 else value + (1 << size) - 1
        writer.write(bits, size)
    return size


def decode_magnitude(reader: BitReader, size: int) -> int:
    """Inverse of :func:`encode_magnitude`."""
    if size == 0:
        return 0
    bits = reader.read(size)
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


def encode_ue(writer: BitWriter, value: int) -> None:
    """Unsigned exp-Golomb code (as used for our motion vectors)."""
    if value < 0:
        raise ValueError("ue value must be non-negative")
    code = value + 1
    nbits = code.bit_length()
    writer.write(0, nbits - 1)
    writer.write(code, nbits)


def decode_ue(reader: BitReader) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
    code = 1
    for _ in range(zeros):
        code = (code << 1) | reader.read_bit()
    return code - 1


def encode_se(writer: BitWriter, value: int) -> None:
    """Signed exp-Golomb code."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    encode_ue(writer, mapped)


def decode_se(reader: BitReader) -> int:
    mapped = decode_ue(reader)
    if mapped % 2:
        return (mapped + 1) // 2
    return -(mapped // 2)


def iter_zigzag() -> Iterable[Tuple[int, int]]:
    """The 8x8 zig-zag scan order as (row, col) pairs."""
    order = []
    for s in range(15):
        coords = [(s - c, c) for c in range(max(0, s - 7), min(s, 7) + 1)]
        if s % 2 == 1:
            coords.reverse()
        order.extend(coords)
    return order


#: Flattened zig-zag indices into a row-major 8x8 block.
ZIGZAG = [r * 8 + c for r, c in iter_zigzag()]
