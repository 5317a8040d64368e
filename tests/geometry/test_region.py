"""Unit tests for binary-partition region keys."""

import random

import pytest

from repro.errors import GeometryError
from repro.geometry.region import ROOT_KEY, RegionKey, key_origins


def key(bits: str) -> RegionKey:
    return RegionKey.from_bits(bits)


class TestConstruction:
    def test_root(self):
        assert ROOT_KEY.nbits == 0
        assert ROOT_KEY.value == 0
        assert ROOT_KEY.bit_string() == ""

    def test_from_bits(self):
        k = key("0110")
        assert k.nbits == 4
        assert k.value == 0b0110
        assert k.bit_string() == "0110"

    def test_leading_zeros_preserved(self):
        assert key("0001").bit_string() == "0001"

    def test_rejects_bad_bits(self):
        with pytest.raises(GeometryError):
            RegionKey.from_bits("012")

    def test_rejects_negative_length(self):
        with pytest.raises(GeometryError):
            RegionKey(-1, 0)

    def test_rejects_overflowing_value(self):
        with pytest.raises(GeometryError):
            RegionKey(2, 0b111)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            key("01").nbits = 5


class TestPrefixAlgebra:
    def test_root_is_prefix_of_everything(self):
        assert ROOT_KEY.is_prefix_of(key("0"))
        assert ROOT_KEY.is_prefix_of(key("101010"))
        assert ROOT_KEY.is_prefix_of(ROOT_KEY)

    def test_proper_prefix(self):
        assert key("01").is_prefix_of(key("0110"))
        assert not key("01").is_prefix_of(key("0010"))

    def test_self_prefix(self):
        assert key("0110").is_prefix_of(key("0110"))

    def test_longer_never_prefix_of_shorter(self):
        assert not key("0110").is_prefix_of(key("011"))

    def test_encloses_is_strict(self):
        assert key("01").encloses(key("011"))
        assert not key("01").encloses(key("01"))
        assert not key("01").encloses(key("1"))

    def test_disjoint(self):
        assert key("00").disjoint(key("01"))
        assert not key("0").disjoint(key("01"))
        assert not key("01").disjoint(key("0"))
        assert not ROOT_KEY.disjoint(key("1"))

    def test_nested_or_disjoint_trichotomy(self):
        # Any two keys are prefix-related or disjoint — the property that
        # guarantees partition boundaries never intersect.
        keys = [key(b) for b in ("", "0", "1", "00", "01", "0101", "11")]
        for a in keys:
            for b in keys:
                relations = [
                    a.is_prefix_of(b),
                    b.is_prefix_of(a),
                    a.disjoint(b),
                ]
                assert any(relations)

    def test_common_prefix(self):
        assert key("0110").common_prefix(key("0101")) == key("01")
        assert key("0110").common_prefix(key("0110")) == key("0110")
        assert key("0110").common_prefix(key("1")) == ROOT_KEY
        assert key("01").common_prefix(key("0110")) == key("01")


class TestPathContainment:
    def test_contains_matching_path(self):
        # path 0b0110... of 8 bits
        assert key("011").contains_path(0b01101111, 8)

    def test_rejects_non_matching_path(self):
        assert not key("111").contains_path(0b01101111, 8)

    def test_root_contains_all(self):
        assert ROOT_KEY.contains_path(0b1010, 4)

    def test_path_shorter_than_key_raises(self):
        with pytest.raises(GeometryError):
            key("0101").contains_path(0b01, 2)


class TestNavigation:
    def test_children(self):
        assert key("01").child(0) == key("010")
        assert key("01").child(1) == key("011")

    def test_child_rejects_bad_bit(self):
        with pytest.raises(GeometryError):
            key("01").child(2)

    def test_parent(self):
        assert key("010").parent() == key("01")
        with pytest.raises(GeometryError):
            ROOT_KEY.parent()

    def test_sibling(self):
        assert key("010").sibling() == key("011")
        assert key("011").sibling() == key("010")
        with pytest.raises(GeometryError):
            ROOT_KEY.sibling()

    def test_bit_access(self):
        k = key("0110")
        assert [k.bit(i) for i in range(4)] == [0, 1, 1, 0]
        assert list(k.bits()) == [0, 1, 1, 0]
        with pytest.raises(GeometryError):
            k.bit(4)

    def test_prefix(self):
        assert key("0110").prefix(2) == key("01")
        assert key("0110").prefix(0) == ROOT_KEY
        assert key("0110").prefix(4) == key("0110")
        with pytest.raises(GeometryError):
            key("01").prefix(3)

    def test_extended_by_path(self):
        base = key("01")
        path, bits = 0b0110, 4
        assert base.extended_by(path, bits, 1) == key("011")
        assert base.extended_by(path, bits, 2) == key("0110")
        with pytest.raises(GeometryError):
            base.extended_by(path, bits, 3)

    def test_split_dimension_cycles(self):
        assert key("").split_dimension(2) == 0
        assert key("0").split_dimension(2) == 1
        assert key("00").split_dimension(2) == 0
        assert key("000").split_dimension(3) == 0


class TestOrderingAndDunder:
    def test_equality_and_hash(self):
        assert key("01") == key("01")
        assert key("01") != key("010")
        assert hash(key("01")) == hash(key("01"))
        assert key("01") != "01"

    def test_lexicographic_order(self):
        assert key("0") < key("1")
        assert key("01") < key("0110")  # prefix sorts first
        assert key("00") < key("01")
        assert not key("1") < key("0")

    def test_sorting_groups_prefixes(self):
        keys = [key(b) for b in ("1", "0", "01", "00", "011")]
        ordered = [k.bit_string() for k in sorted(keys)]
        assert ordered == ["0", "00", "01", "011", "1"]

    def test_len(self):
        assert len(key("0110")) == 4
        assert len(ROOT_KEY) == 0

    def test_repr(self):
        assert "0110" in repr(key("0110"))
        assert "ε" in repr(ROOT_KEY)


class TestKeyOrigins:
    """key_origins against a halving-by-halving walk of the key's bits."""

    @staticmethod
    def walk(value, nbits, ndim, resolution):
        origins = [0] * ndim
        halvings = [0] * ndim
        for t in range(nbits):
            dim = t % ndim
            halvings[dim] += 1
            if (value >> (nbits - 1 - t)) & 1:
                origins[dim] += 1 << (resolution - halvings[dim])
        return origins, halvings

    @pytest.mark.parametrize("ndim", [1, 2, 3, 5])
    @pytest.mark.parametrize("resolution", [1, 7, 18, 64])
    def test_matches_bit_walk(self, ndim, resolution):
        rng = random.Random(ndim * 100 + resolution)
        depth = ndim * resolution
        cases = [(0, 0), (0, depth), ((1 << depth) - 1, depth)]
        for _ in range(200):
            nbits = rng.randrange(0, depth + 1)
            cases.append((rng.getrandbits(nbits) if nbits else 0, nbits))
        for value, nbits in cases:
            assert key_origins(value, nbits, ndim, resolution) == self.walk(
                value, nbits, ndim, resolution
            )

    def test_first_bits_pick_upper_halves(self):
        # "10" in 2-d: upper half of dim 0, lower half of dim 1.
        assert key_origins(0b10, 2, 2, 4) == ([8, 0], [1, 1])
        # "011": dim 0 lower then upper (origin 4 of 16), dim 1 upper.
        assert key_origins(0b011, 3, 2, 4) == ([4, 8], [2, 1])
