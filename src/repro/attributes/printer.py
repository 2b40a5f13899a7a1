"""Rendering of nested attributes in the paper's notation (Section 3.3).

Two renderers are provided:

* :func:`unparse` — the exact structural form, every ``λ`` explicit
  (``L₁(A, λ, L₂[L₃(λ, λ)])``).  Round-trips through
  :func:`repro.attributes.parser.parse_attribute`.
* :func:`unparse_abbreviated` — the paper's display convention: ``λ``
  components of records are omitted (``L₁(A, L₂[λ])``), and a record of
  bottoms collapses to ``λ``.  Abbreviation is *suppressed* (falling back
  to explicit ``λ`` placeholders) whenever omitting components would be
  ambiguous, e.g. for ``L(A, λ) ≤ L(A, A)`` which the paper notes cannot
  be shortened to ``L(A)``.
"""

from __future__ import annotations

from .nested import Flat, ListAttr, NestedAttribute, Null, Record
from .subattribute import bottom, is_subattribute
from ..exceptions import NotASubattributeError

__all__ = ["unparse", "unparse_abbreviated", "abbreviate", "LAMBDA"]

#: The glyph used for the null attribute; the parser also accepts "lambda".
LAMBDA = "λ"


def unparse(attribute: NestedAttribute) -> str:
    """Render the exact structural form of a nested attribute."""
    if isinstance(attribute, Null):
        return LAMBDA
    if isinstance(attribute, Flat):
        return attribute.name
    if isinstance(attribute, ListAttr):
        return f"{attribute.label}[{unparse(attribute.element)}]"
    if isinstance(attribute, Record):
        inner = ", ".join(unparse(component) for component in attribute.components)
        return f"{attribute.label}({inner})"
    raise TypeError(f"not a nested attribute: {attribute!r}")  # pragma: no cover


def _heads_unambiguous(root: Record) -> bool:
    """Record components can be identified by head symbol alone."""
    heads = [component.head() for component in root.components]
    return len(set(heads)) == len(heads)


def unparse_abbreviated(element: NestedAttribute, root: NestedAttribute) -> str:
    """Render ``element ∈ Sub(root)`` with the paper's λ-omission rules.

    Parameters
    ----------
    element:
        The subattribute to display.
    root:
        The ambient attribute; needed because which components count as
        "bottom" (and whether omission is ambiguous) depends on it.

    Raises
    ------
    NotASubattributeError
        If ``element ≰ root``.

    Example
    -------
    >>> from repro.attributes.parser import parse_attribute as p
    >>> root = p("L1(A, B, L2[L3(C, D)])")
    >>> unparse_abbreviated(p("L1(A, λ, L2[L3(λ, λ)])"), root)
    'L1(A, L2[λ])'
    """
    if not is_subattribute(element, root):
        raise NotASubattributeError(f"{unparse(element)} is not a subattribute of {unparse(root)}")
    return abbreviate(element, root)


def abbreviate(element: NestedAttribute, root: NestedAttribute) -> str:
    """:func:`unparse_abbreviated` for an ``element`` already known to be
    in ``Sub(root)`` (the check is the caller's)."""
    if isinstance(element, Null):
        return LAMBDA
    if isinstance(element, Flat):
        return element.name
    if isinstance(element, ListAttr):
        assert isinstance(root, ListAttr)
        return f"{element.label}[{abbreviate(element.element, root.element)}]"
    if isinstance(element, Record):
        assert isinstance(root, Record)
        if element == bottom(root):
            return LAMBDA
        pairs = list(zip(element.components, root.components))
        if _heads_unambiguous(root):
            shown = [
                abbreviate(component, component_root)
                for component, component_root in pairs
                if component != bottom(component_root)
            ]
        else:
            shown = [abbreviate(component, component_root) for component, component_root in pairs]
        return f"{element.label}({', '.join(shown)})"
    raise TypeError(f"not a nested attribute: {element!r}")  # pragma: no cover
