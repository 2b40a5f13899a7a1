"""Property: the encoding's mask renderer equals the structural printer.

``BasisEncoding.describe(mask)`` skips the printer's ``≤ root`` check and
memoises its text; it must still be byte-identical to
``unparse_abbreviated(decode(mask), root)`` — on the benchmark's
``mixed_family`` roots and on a root with ambiguous record heads, where
the printer suppresses λ-omission (the paper's ``L(A, λ) ≤ L(A, A)``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import BasisEncoding
from repro.attributes.parser import parse_attribute, parse_subattribute
from repro.attributes.printer import unparse_abbreviated
from repro.workloads import mixed_family, random_element_mask

SETTINGS = settings(max_examples=150, deadline=None)

#: Ambiguous heads at the top (A, A) and inside a list (K(B, C, B)),
#: beside unambiguous records whose bottoms are omitted.
AMBIGUOUS = "R(A, A, L[K(B, C, B)], M[P(D, E)], F)"

ENCODINGS = {scale: BasisEncoding(mixed_family(scale)) for scale in (1, 2, 4)}
ENCODINGS["ambiguous"] = BasisEncoding(parse_attribute(AMBIGUOUS))


@st.composite
def element_masks(draw):
    encoding = ENCODINGS[draw(st.sampled_from(sorted(ENCODINGS, key=str)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.2, 0.5, 0.9)))
    return encoding, random_element_mask(rng, encoding, density)


@SETTINGS
@given(element_masks())
def test_describe_equals_unparse_abbreviated(case):
    encoding, mask = case
    expected = unparse_abbreviated(encoding.decode(mask), encoding.root)
    assert encoding.describe(mask) == expected
    # a second call answers from the table with the same text
    assert encoding.describe(mask) == expected


def test_ambiguous_root_keeps_explicit_lambdas():
    encoding = ENCODINGS["ambiguous"]
    root = encoding.root
    first_a = encoding.encode(parse_subattribute("R(A, λ, L[λ], M[λ], λ)",
                                                 root))
    assert encoding.describe(first_a) == unparse_abbreviated(
        encoding.decode(first_a), root) == "R(A, λ, L[λ], M[λ], λ)"
