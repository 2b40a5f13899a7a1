"""The encoding's query-resolution and rendering tables.

``resolve_dependency``/``resolve_attribute`` parse a query text once and
keep the validated value with its masks; ``describe`` renders a mask
once.  Both are FIFO-bounded by ``UNARY_CACHE_MAXSIZE``, reported in
``cache_info`` and never cache an error.
"""

import pytest

from repro.attributes import parser as parser_module
from repro.attributes.encoding import (
    UNARY_CACHE_MAXSIZE,
    BasisEncoding,
    ResolvedQuery,
)
from repro.attributes.parser import parse_attribute, parse_subattribute
from repro.attributes.printer import unparse_abbreviated
from repro.dependencies import dependency as dependency_module
from repro.dependencies.dependency import parse_dependency
from repro.exceptions import (
    AttributeSyntaxError,
    DependencySyntaxError,
    NotAnElementError,
)

ROOT = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
FD = "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)"


@pytest.fixture
def encoding():
    return BasisEncoding(parse_attribute(ROOT))


@pytest.fixture
def parse_counts(monkeypatch):
    """Count calls of the two parsers the tables sit in front of."""
    counts = {"dependency": 0, "attribute": 0}

    def counting(name, parse):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return parse(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dependency_module, "parse_dependency",
                        counting("dependency", parse_dependency))
    monkeypatch.setattr(parser_module, "parse_subattribute",
                        counting("attribute", parse_subattribute))
    return counts


class TestResolve:
    def test_dependency_text_resolves_to_value_and_masks(self, encoding):
        query = encoding.resolve_dependency(MVD)
        expected = parse_dependency(MVD, encoding.root)
        assert isinstance(query, ResolvedQuery)
        assert query.value == expected
        assert query.lhs_mask == encoding.encode(expected.lhs)
        assert query.rhs_mask == encoding.encode(expected.rhs)

    def test_attribute_text_resolves_to_value_and_mask(self, encoding):
        query = encoding.resolve_attribute("Pubcrawl(Visit[λ])")
        expected = parse_subattribute("Pubcrawl(Visit[λ])", encoding.root)
        assert query == (expected, encoding.encode(expected), 0)

    def test_objects_pass_through_unrecorded(self, encoding):
        dependency = parse_dependency(FD, encoding.root)
        assert encoding.resolve_dependency(dependency).value is dependency
        attribute = dependency.lhs
        assert encoding.resolve_attribute(attribute).value is attribute
        assert encoding.cache_info()["resolve"][:3] == (0, 0, 0)

    def test_each_text_parses_once(self, encoding, parse_counts):
        for _ in range(5):
            encoding.resolve_dependency(MVD)
            encoding.resolve_attribute("Pubcrawl(Person)")
        assert parse_counts == {"dependency": 1, "attribute": 1}
        assert encoding.cache_info()["resolve"] == (
            8, 2, 2, UNARY_CACHE_MAXSIZE)

    def test_same_text_as_dependency_and_attribute_is_two_entries(
            self, encoding):
        encoding.resolve_attribute("Pubcrawl(Person)")
        with pytest.raises(DependencySyntaxError):
            encoding.resolve_dependency("Pubcrawl(Person)")
        with pytest.raises(AttributeSyntaxError):
            encoding.resolve_attribute(FD)
        encoding.resolve_dependency(FD)
        with pytest.raises(AttributeSyntaxError):
            encoding.resolve_attribute(FD)

    @pytest.mark.parametrize("resolve, text, error", [
        ("resolve_dependency", "Pubcrawl(Person) Pubcrawl(Visit[λ])",
         DependencySyntaxError),
        ("resolve_dependency", "Pubcrawl(Nope) -> λ", AttributeSyntaxError),
        ("resolve_attribute", "Pubcrawl(((", AttributeSyntaxError),
    ])
    def test_errors_are_never_cached(self, encoding, parse_counts, resolve,
                                     text, error):
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as info:
                getattr(encoding, resolve)(text)
            messages.add((type(info.value), str(info.value)))
        assert len(messages) == 1
        assert sum(parse_counts.values()) == 3
        assert encoding.cache_info()["resolve"][:3] == (0, 0, 0)

    def test_invalid_object_raises_every_time(self, encoding):
        foreign = parse_dependency("R(A) -> R(B)", parse_attribute("R(A, B)"))
        for _ in range(2):
            with pytest.raises(NotAnElementError):
                encoding.resolve_dependency(foreign)


class TestDescribe:
    def test_matches_the_structural_printer(self, encoding):
        for mask in encoding.all_elements():
            assert encoding.describe(mask) == unparse_abbreviated(
                encoding.decode(mask), encoding.root)

    def test_memoised(self, encoding):
        mask = encoding.encode(parse_subattribute("Pubcrawl(Person)",
                                                  encoding.root))
        first = encoding.describe(mask)
        assert encoding.describe(mask) is first
        assert encoding.cache_info()["describe"] == (
            1, 1, 1, UNARY_CACHE_MAXSIZE)

    def test_non_element_mask_is_rejected(self, encoding):
        not_down_closed = next(
            1 << i for i in range(encoding.size)
            if encoding.below[i] != 1 << i)
        for _ in range(2):
            with pytest.raises(NotAnElementError):
                encoding.describe(not_down_closed)
        assert encoding.cache_info()["describe"][2] == 0


class TestBounds:
    def test_resolve_table_stays_within_its_bound(self, encoding):
        encoding._unary_maxsize = 3
        texts = [f"Pubcrawl(Person) {arrow} {rhs}"
                 for arrow in ("->", "->>")
                 for rhs in ("Pubcrawl(Visit[λ])", "Pubcrawl(Visit[Drink(Pub)])",
                             "Pubcrawl(Visit[Drink(Beer)])")]
        fresh = BasisEncoding(encoding.root)
        for _ in range(2):
            for text in texts:
                assert encoding.resolve_dependency(text) == \
                    fresh.resolve_dependency(text)
                assert len(encoding._resolve_cache) <= 3
        assert encoding.cache_info()["resolve"][2:] == (3, 3)

    def test_describe_table_stays_within_its_bound(self, encoding):
        encoding._unary_maxsize = 4
        masks = list(encoding.all_elements())
        assert len(masks) > 4
        for _ in range(2):
            for mask in masks:
                assert encoding.describe(mask) == unparse_abbreviated(
                    encoding.decode(mask), encoding.root)
                assert len(encoding._describe_cache) <= 4


class TestCacheContract:
    def test_cache_clear_drops_both_tables(self, encoding):
        encoding.resolve_dependency(MVD)
        encoding.describe(encoding.full)
        encoding.cache_clear()
        info = encoding.cache_info()
        assert info["resolve"][:3] == (0, 0, 0)
        assert info["describe"][:3] == (0, 0, 0)
        assert encoding.cache_totals() == (0, 0)

    def test_totals_include_both_tables(self, encoding):
        encoding.resolve_dependency(MVD)
        encoding.resolve_dependency(MVD)
        encoding.describe(0)
        assert encoding.cache_totals() == (1, 2)
