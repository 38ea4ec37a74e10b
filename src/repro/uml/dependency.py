"""Dependencies between named elements.

TUT-Profile stereotypes two dependency kinds: ``«ProcessGrouping»`` (an
application process depends on its process group) and ``«PlatformMapping»``
(a process group depends on the platform component instance it runs on).
"""

from __future__ import annotations

from typing import List

from repro.errors import ModelError
from repro.uml.element import NamedElement


class Dependency(NamedElement):
    """A client/supplier relationship between named elements."""

    def __init__(self, name: str = "", client=None, supplier=None) -> None:
        super().__init__(name)
        self.clients: List[NamedElement] = []
        self.suppliers: List[NamedElement] = []
        if client is not None:
            self.add_client(client)
        if supplier is not None:
            self.add_supplier(supplier)

    def add_client(self, element: NamedElement) -> None:
        """Add a client (the dependent element)."""
        if not isinstance(element, NamedElement):
            raise ModelError("dependency client must be a NamedElement")
        self.clients.append(element)

    def add_supplier(self, element: NamedElement) -> None:
        """Add a supplier (the element depended on)."""
        if not isinstance(element, NamedElement):
            raise ModelError("dependency supplier must be a NamedElement")
        self.suppliers.append(element)

    @property
    def client(self) -> NamedElement:
        """The single client, for the binary dependencies the profile uses."""
        if len(self.clients) != 1:
            raise ModelError(f"dependency {self.name!r} has {len(self.clients)} clients")
        return self.clients[0]

    @property
    def supplier(self) -> NamedElement:
        """The single supplier, for the binary dependencies the profile uses."""
        if len(self.suppliers) != 1:
            raise ModelError(
                f"dependency {self.name!r} has {len(self.suppliers)} suppliers"
            )
        return self.suppliers[0]

    def describe(self) -> str:
        """``clients --> suppliers`` by name."""
        client_names = ", ".join(c.name for c in self.clients) or "<none>"
        supplier_names = ", ".join(s.name for s in self.suppliers) or "<none>"
        return f"{client_names} --> {supplier_names}"

    def __repr__(self) -> str:
        return f"Dependency({self.describe()})"


class Usage(Dependency):
    """A dependency in which the client requires the supplier."""


class Abstraction(Dependency):
    """A dependency relating two representations of the same concept."""


class Realization(Abstraction):
    """A specification/implementation relationship."""
