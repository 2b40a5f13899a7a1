"""Unit tests for the bitmask basis encoding (Birkhoff representation)."""

import pytest

from repro.attributes import (
    BasisEncoding,
    bottom,
    complement as struct_complement,
    double_complement as struct_double_complement,
    is_possessed_by,
    is_subattribute,
    iter_bits,
    join as struct_join,
    meet as struct_meet,
    parse_attribute as p,
    parse_subattribute,
    pseudo_difference as struct_diff,
    subattributes,
)
from repro.exceptions import NotAnElementError


class TestIterBits:
    def test_empty(self):
        assert list(iter_bits(0)) == []

    def test_ascending(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]


class TestConstruction:
    def test_size_and_full(self):
        enc = BasisEncoding(p("R(A, L[B])"))
        assert enc.size == 3
        assert enc.full == 0b111

    def test_below_above_include_self(self):
        enc = BasisEncoding(p("L[A]"))
        for i in range(enc.size):
            assert enc.below[i] & (1 << i)
            assert enc.above[i] & (1 << i)

    def test_maximal_mask(self):
        enc = BasisEncoding(p("L[A]"))
        # basis = (L[λ], L[A]); only L[A] is maximal.
        index = enc.index_of(p("L[A]"))
        assert enc.maximal == 1 << index


class TestConversions:
    def test_encode_decode_roundtrip(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            for element in subattributes(root):
                mask = enc.encode(element)
                assert enc.decode(mask) == element

    def test_bottom_is_zero(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            assert enc.encode(bottom(root)) == 0
            assert enc.decode(0) == bottom(root)

    def test_root_is_full(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            assert enc.encode(root) == enc.full

    def test_encode_rejects_foreign(self):
        enc = BasisEncoding(p("R(A, B)"))
        with pytest.raises(NotAnElementError):
            enc.encode(p("A"))

    @pytest.mark.parametrize("foreign", [
        "λ",                     # λ ≤ a record does not hold
        "S(A, B, M[K(C, D)])",   # record label
        "R(A, B)",               # record arity
        "R(A, E, M[K(C, D)])",   # flat name
        "R(A, B, N[K(C, D)])",   # list label
        "R(A, B, M[J(C, D)])",   # record label inside a list
        "R(A, B, M[C])",         # list element kind
        "R(A, B, M[K(C, D, D)])",  # record arity inside a list
    ])
    def test_encode_rejects_each_mismatch(self, foreign):
        root = p("R(A, B, M[K(C, D)])")
        element = p(foreign)
        assert not is_subattribute(element, root)
        with pytest.raises(NotAnElementError):
            BasisEncoding(root).encode(element)

    def test_decode_rejects_non_downclosed(self):
        enc = BasisEncoding(p("L[A]"))
        top_only = enc.encode(p("L[A]")) & ~enc.encode(parse_subattribute("L[λ]", p("L[A]")))
        with pytest.raises(NotAnElementError):
            enc.decode(top_only)

    def test_index_of_rejects_non_basis(self):
        enc = BasisEncoding(p("R(A, B)"))
        with pytest.raises(NotAnElementError):
            enc.index_of(p("R(A, B)"))  # an element, but not join-irreducible


class TestMaskStructure:
    def test_down_close_idempotent(self):
        enc = BasisEncoding(p("R(A, L[D(B, C)])"))
        for generators in range(enc.full + 1):
            closed = enc.down_close(generators)
            assert enc.down_close(closed) == closed
            assert enc.is_downclosed(closed)

    def test_generators_regenerate(self):
        enc = BasisEncoding(p("R(A, L[D(B, C)])"))
        for generators in range(enc.full + 1):
            closed = enc.down_close(generators)
            assert enc.down_close(enc.generators(closed)) == closed

    def test_is_downclosed_rejects_out_of_range(self):
        enc = BasisEncoding(p("A"))
        assert not enc.is_downclosed(0b10)


class TestOperationsAgreeWithStructural:
    """Every mask operation equals its Definition 3.8 counterpart."""

    def test_join_meet_le(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            elements = list(subattributes(root))
            for x in elements:
                for y in elements:
                    mx, my = enc.encode(x), enc.encode(y)
                    assert enc.decode(enc.join(mx, my)) == struct_join(root, x, y)
                    assert enc.decode(enc.meet(mx, my)) == struct_meet(root, x, y)

    def test_pseudo_difference(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            elements = list(subattributes(root))
            for x in elements:
                for y in elements:
                    mx, my = enc.encode(x), enc.encode(y)
                    assert enc.decode(enc.pseudo_difference(mx, my)) == struct_diff(
                        root, x, y
                    )

    def test_complement_and_double_complement(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            for x in subattributes(root):
                mx = enc.encode(x)
                assert enc.decode(enc.complement(mx)) == struct_complement(root, x)
                assert enc.decode(enc.double_complement(mx)) == (
                    struct_double_complement(root, x)
                )

    def test_possessed(self, small_roots):
        for root in small_roots:
            enc = BasisEncoding(root)
            for x in subattributes(root):
                mx = enc.encode(x)
                expected = 0
                for i, b in enumerate(enc.basis):
                    if is_possessed_by(root, b, x):
                        expected |= 1 << i
                assert enc.possessed(mx) == expected


class TestDescribe:
    def test_describe_uses_paper_notation(self):
        root = p("R(A, L[B])")
        enc = BasisEncoding(root)
        mask = enc.encode(parse_subattribute("R(A, L[λ])", root))
        assert enc.describe(mask) == "R(A, L[λ])"

    def test_repr(self):
        assert "size=2" in repr(BasisEncoding(p("L[A]")))
