"""Packages and models: the namespaces that own everything else."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import ModelError
from repro.uml.classifier import Classifier, PrimitiveType
from repro.uml.element import NamedElement


class Package(NamedElement):
    """A namespace grouping packageable elements."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.packaged_elements: List[NamedElement] = []

    def add(self, element: NamedElement) -> NamedElement:
        """Add a packageable element, enforcing per-metaclass name uniqueness."""
        for existing in self.packaged_elements:
            if (
                existing.name
                and existing.name == element.name
                and type(existing) is type(element)
            ):
                raise ModelError(
                    f"package {self.name!r} already contains a "
                    f"{type(element).__name__} named {element.name!r}"
                )
        self.own(element)
        self.packaged_elements.append(element)
        return element

    def member(self, name: str) -> Optional[NamedElement]:
        """Direct member called ``name`` (first match)."""
        for element in self.packaged_elements:
            if element.name == name:
                return element
        return None

    def members_of_type(self, metatype) -> List[NamedElement]:
        """Packaged elements that are instances of ``metatype``."""
        return [e for e in self.packaged_elements if isinstance(e, metatype)]

    def subpackages(self) -> List["Package"]:
        """Directly nested packages."""
        return [e for e in self.packaged_elements if isinstance(e, Package)]

    def classifiers(self, recursive: bool = False) -> Iterator[Classifier]:
        """Packaged classifiers; with ``recursive``, those of nested packages too."""
        for element in self.packaged_elements:
            if isinstance(element, Classifier):
                yield element
            if recursive and isinstance(element, Package):
                yield from element.classifiers(recursive=True)

    def find(self, qualified_name: str) -> Optional[NamedElement]:
        """Resolve a ``::``-separated path relative to this package."""
        head, _, rest = qualified_name.partition(NamedElement.SEPARATOR)
        member = self.member(head)
        if member is None or not rest:
            return member
        if isinstance(member, Package):
            return member.find(rest)
        if isinstance(member, Classifier):
            return _find_in_classifier(member, rest)
        return None


def _find_in_classifier(classifier: Classifier, path: str) -> Optional[NamedElement]:
    head, _, rest = path.partition(NamedElement.SEPARATOR)
    for child in classifier.owned_elements:
        if isinstance(child, NamedElement) and child.name == head:
            if not rest:
                return child
            if isinstance(child, Classifier):
                return _find_in_classifier(child, rest)
    return None


class Model(Package):
    """The root package of a UML model.

    A model carries a small library of predefined primitive types so signal
    parameters can be typed without boilerplate.
    """

    PREDEFINED_PRIMITIVES = (
        ("Bit", 1),
        ("Byte", 8),
        ("Int16", 16),
        ("Int32", 32),
        ("Int64", 64),
        ("Boolean", 1),
        ("Address", 32),
    )

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._primitives = {}
        types_package = Package("PrimitiveTypes")
        self.add(types_package)
        for type_name, bits in self.PREDEFINED_PRIMITIVES:
            primitive = PrimitiveType(type_name, bits)
            types_package.add(primitive)
            self._primitives[type_name] = primitive

    def primitive(self, name: str) -> PrimitiveType:
        """The primitive type named ``name``; unknown names are a ``ModelError``."""
        try:
            return self._primitives[name]
        except KeyError:
            raise ModelError(f"unknown primitive type {name!r}") from None
