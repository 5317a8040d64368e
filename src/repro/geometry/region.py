"""Region keys of the recursive binary partition.

A :class:`RegionKey` identifies one block of the recursive binary
partitioning of the data space.  The partition halves the space cyclically
by dimension: the first bit halves dimension 0, the second bit dimension 1,
and so on, wrapping around.  A key is simply the sequence of halving
choices (0 = lower half, 1 = upper half), stored MSB-first in an integer.

The representation gives the BV-tree's geometric guarantees for free:

- ``a.encloses(b)`` iff ``a`` is a *proper prefix* of ``b`` — region blocks
  are either nested or disjoint, never partially overlapping, so partition
  boundaries never intersect (the paper's core topological requirement).
- Point location is longest-prefix matching on the point's interleaved bit
  path, which implements the BANG file's "holey region" semantics
  automatically: a point belongs to the *most specific* region that
  contains it.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import GeometryError


class RegionKey:
    """An immutable bit string of halving choices, MSB-first.

    ``nbits`` is the number of halvings; ``value`` holds the choices in its
    low ``nbits`` bits, with the *first* halving in the most significant of
    those bits.  The empty key (``nbits == 0``) is the whole data space and
    is available as :data:`ROOT_KEY`.
    """

    __slots__ = ("nbits", "value")

    def __init__(self, nbits: int, value: int):
        if nbits < 0:
            raise GeometryError(f"negative key length {nbits}")
        if value < 0 or value >> nbits:
            raise GeometryError(
                f"key value {value:#x} does not fit in {nbits} bits"
            )
        object.__setattr__(self, "nbits", nbits)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RegionKey is immutable")

    @classmethod
    def from_bits(cls, bits: str) -> "RegionKey":
        """Build a key from a string like ``"0110"`` (empty string = root)."""
        if bits and set(bits) - {"0", "1"}:
            raise GeometryError(f"invalid bit string {bits!r}")
        return cls(len(bits), int(bits, 2) if bits else 0)

    # ------------------------------------------------------------------
    # Prefix algebra
    # ------------------------------------------------------------------

    def is_prefix_of(self, other: "RegionKey") -> bool:
        """True if this key is a (not necessarily proper) prefix of other."""
        return (
            self.nbits <= other.nbits
            and (other.value >> (other.nbits - self.nbits)) == self.value
        )

    def encloses(self, other: "RegionKey") -> bool:
        """True if this block strictly contains ``other``'s block.

        Equivalent to being a *proper* prefix.
        """
        return self.nbits < other.nbits and self.is_prefix_of(other)

    def disjoint(self, other: "RegionKey") -> bool:
        """True if the two blocks share no point."""
        return not (self.is_prefix_of(other) or other.is_prefix_of(self))

    def contains_path(self, path: int, path_len: int) -> bool:
        """True if a point with the given bit path lies in this block."""
        if path_len < self.nbits:
            raise GeometryError(
                f"path of {path_len} bits is shorter than key of {self.nbits}"
            )
        return (path >> (path_len - self.nbits)) == self.value

    def common_prefix(self, other: "RegionKey") -> "RegionKey":
        """The longest key that is a prefix of both."""
        n = min(self.nbits, other.nbits)
        a = self.value >> (self.nbits - n)
        b = other.value >> (other.nbits - n)
        x = a ^ b
        # The common prefix ends at the highest differing bit.
        length = n if not x else n - x.bit_length()
        return RegionKey(length, a >> (n - length))

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def child(self, bit: int) -> "RegionKey":
        """The half selected by ``bit`` (0 = lower, 1 = upper)."""
        if bit not in (0, 1):
            raise GeometryError(f"halving bit must be 0 or 1, got {bit}")
        return RegionKey(self.nbits + 1, (self.value << 1) | bit)

    def parent(self) -> "RegionKey":
        """The block this one was split from."""
        if self.nbits == 0:
            raise GeometryError("the root region has no parent")
        return RegionKey(self.nbits - 1, self.value >> 1)

    def sibling(self) -> "RegionKey":
        """The other half of this block's parent."""
        if self.nbits == 0:
            raise GeometryError("the root region has no sibling")
        return RegionKey(self.nbits, self.value ^ 1)

    def bit(self, i: int) -> int:
        """The i-th halving choice (0-based from the first halving)."""
        if not 0 <= i < self.nbits:
            raise GeometryError(f"bit index {i} out of range for {self}")
        return (self.value >> (self.nbits - 1 - i)) & 1

    def bits(self) -> Iterator[int]:
        """Yield the halving choices in order."""
        for i in range(self.nbits):
            yield (self.value >> (self.nbits - 1 - i)) & 1

    def prefix(self, length: int) -> "RegionKey":
        """The first ``length`` halvings of this key."""
        if not 0 <= length <= self.nbits:
            raise GeometryError(
                f"prefix length {length} out of range for {self}"
            )
        return RegionKey(length, self.value >> (self.nbits - length))

    def extended_by(self, path: int, path_len: int, extra: int) -> "RegionKey":
        """Extend this key with the next ``extra`` bits of a point path.

        The path must lie inside this block; the result is the depth
        ``nbits + extra`` block of the partition containing the path.
        """
        new_len = self.nbits + extra
        if new_len > path_len:
            raise GeometryError(
                f"cannot extend key of {self.nbits} bits by {extra} within a "
                f"{path_len}-bit path"
            )
        return RegionKey(new_len, path >> (path_len - new_len))

    def split_dimension(self, ndim: int) -> int:
        """The dimension the *next* halving of this block would cut."""
        return self.nbits % ndim

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def bit_string(self) -> str:
        """The key as a literal bit string (empty for the root)."""
        return format(self.value, f"0{self.nbits}b") if self.nbits else ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionKey):
            return NotImplemented
        return self.nbits == other.nbits and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.nbits, self.value))

    def __lt__(self, other: "RegionKey") -> bool:
        """Lexicographic bit-string order; a prefix sorts before extensions."""
        if not isinstance(other, RegionKey):
            return NotImplemented
        n = min(self.nbits, other.nbits)
        a = self.value >> (self.nbits - n)
        b = other.value >> (other.nbits - n)
        if a != b:
            return a < b
        return self.nbits < other.nbits

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        return f"RegionKey({self.bit_string()!r})" if self.nbits else "RegionKey(ε)"


#: The whole data space (the empty halving sequence).
ROOT_KEY = RegionKey(0, 0)


def key_origins(
    value: int, nbits: int, ndim: int, resolution: int
) -> tuple[list[int], list[int]]:
    """Decode a key's block to per-dimension (cell origins, halving counts).

    Bit ``t`` of the key (MSB-first) halves dimension ``t % ndim``; a set
    bit selects the upper half.  So dimension ``d``'s choices are the
    bits ``d, d + ndim, ...``: read MSB-first they are the block's index
    along ``d`` at ``h`` halvings, and its cell origin is that index
    scaled by the block width ``2**(resolution - h)``.  The one place a
    key's bits become grid cells: the float decode
    (:meth:`~repro.geometry.space.DataSpace.key_rect`), the integer
    pruning tests (:mod:`~repro.geometry.bitgrid`) and the columnar
    origin columns all start here.
    """
    bits = format(value, f"0{nbits}b") if nbits else ""
    origins = []
    halvings = []
    for dim in range(ndim):
        column = bits[dim::ndim]  # string slicing: no per-bit Python loop
        h = len(column)
        origins.append(int(column, 2) << (resolution - h) if h else 0)
        halvings.append(h)
    return origins, halvings
