"""Property tests: bitmask encoding ⇔ structural Definition 3.8 operations.

Two independent implementations of the same algebra — the Birkhoff
bitmask encoding and the structural recursion — must agree everywhere.
"""

from hypothesis import given, settings

from repro.attributes import (
    complement,
    double_complement,
    is_subattribute,
    join,
    meet,
    pseudo_difference,
)
from repro.attributes import BasisEncoding
from repro.attributes.basis import basis_of_element, is_possessed_by
from tests.strategies import roots_with_element_pairs, roots_with_elements

SETTINGS = settings(max_examples=120, deadline=None)


@SETTINGS
@given(roots_with_element_pairs())
def test_le_agrees(case):
    root, enc, (x, y) = case
    assert enc.le(x, y) == is_subattribute(enc.decode(x), enc.decode(y))


@SETTINGS
@given(roots_with_element_pairs())
def test_join_agrees(case):
    root, enc, (x, y) = case
    structural = join(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.join(x, y)) == structural


@SETTINGS
@given(roots_with_element_pairs())
def test_meet_agrees(case):
    root, enc, (x, y) = case
    structural = meet(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.meet(x, y)) == structural


@SETTINGS
@given(roots_with_element_pairs())
def test_pseudo_difference_agrees(case):
    root, enc, (x, y) = case
    structural = pseudo_difference(root, enc.decode(x), enc.decode(y))
    assert enc.decode(enc.pseudo_difference(x, y)) == structural


@SETTINGS
@given(roots_with_elements())
def test_complement_agrees(case):
    root, enc, (x,) = case
    assert enc.decode(enc.complement(x)) == complement(root, enc.decode(x))


@SETTINGS
@given(roots_with_elements())
def test_double_complement_agrees(case):
    root, enc, (x,) = case
    assert enc.decode(enc.double_complement(x)) == double_complement(
        root, enc.decode(x)
    )


@SETTINGS
@given(roots_with_elements())
def test_possessed_agrees(case):
    root, enc, (x,) = case
    element = enc.decode(x)
    for i, b in enumerate(enc.basis):
        assert bool(enc.possessed(x) >> i & 1) == is_possessed_by(root, b, element)


@SETTINGS
@given(roots_with_elements())
def test_encode_decode_roundtrip(case):
    root, enc, (x,) = case
    element = enc.decode(x)
    assert enc.encode(element) == x
    # A fresh encoding has no decode-side memo, so encode computes the
    # mask; it must be SubB(element), tested member by member.
    reference = sum(1 << enc.index_of(b) for b in basis_of_element(root, element))
    assert BasisEncoding(root).encode(element) == reference == x
