"""Model traversal helpers: iteration, lookup, filtering."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Type, TypeVar

from repro.uml.element import Element, NamedElement

ElementT = TypeVar("ElementT", bound=Element)


def iter_tree(root: Element, include_root: bool = True) -> Iterator[Element]:
    """Depth-first pre-order iteration over the ownership tree."""
    if include_root:
        yield root
    yield from root.all_owned_elements()


def iter_instances(root: Element, metatype: Type[ElementT]) -> Iterator[ElementT]:
    """All elements in the tree that are instances of ``metatype``."""
    for element in iter_tree(root):
        if isinstance(element, metatype):
            yield element


def find_by_name(
    root: Element, name: str, metatype: Type[ElementT] = NamedElement
) -> Optional[ElementT]:
    """First element of ``metatype`` named ``name`` (pre-order)."""
    for element in iter_instances(root, metatype):
        if element.name == name:
            return element
    return None


def find_all_by_name(
    root: Element, name: str, metatype: Type[ElementT] = NamedElement
) -> List[ElementT]:
    """Every ``metatype`` instance named ``name`` under ``root``."""
    return [e for e in iter_instances(root, metatype) if e.name == name]


def find_stereotyped(root: Element, stereotype_name: str) -> List[Element]:
    """All elements carrying the given stereotype (or a specialisation)."""
    return [e for e in iter_tree(root) if e.has_stereotype(stereotype_name)]


def select(root: Element, predicate: Callable[[Element], bool]) -> List[Element]:
    """Every element under ``root`` (``root`` included) satisfying ``predicate``."""
    return [e for e in iter_tree(root) if predicate(e)]


def count_elements(root: Element) -> int:
    """The number of elements under ``root``, ``root`` included."""
    return sum(1 for _ in iter_tree(root))
