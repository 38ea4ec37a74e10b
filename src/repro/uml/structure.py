"""Composite structure: properties (parts), ports, connectors.

Composite structure diagrams are the backbone of TUT-Profile models: parts
(class instances) communicate with signals via ports, and connectors carry
the signals between ports (paper Section 4.1, Figure 5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ModelError
from repro.uml.classifier import Classifier
from repro.uml.element import NamedElement


class Property(NamedElement):
    """A typed structural feature: attribute of a classifier or part of a class."""

    AGGREGATIONS = ("none", "shared", "composite")

    def __init__(
        self,
        name: str = "",
        type: Optional[Classifier] = None,
        aggregation: str = "none",
        lower: int = 1,
        upper: int = 1,
        default=None,
    ) -> None:
        super().__init__(name)
        if aggregation not in self.AGGREGATIONS:
            raise ModelError(f"unknown aggregation kind {aggregation!r}")
        if lower < 0 or (upper != -1 and upper < lower):
            raise ModelError(f"bad multiplicity [{lower}..{upper}] on {name!r}")
        self.type = type
        self.aggregation = aggregation
        self.lower = lower
        self.upper = upper  # -1 encodes '*'
        self.default = default

    @property
    def is_part(self) -> bool:
        """Is this a composite part?"""
        return self.aggregation == "composite"

    def multiplicity(self) -> str:
        """``[lower..upper]`` with ``*`` for unbounded."""
        upper = "*" if self.upper == -1 else str(self.upper)
        return f"[{self.lower}..{upper}]"

    def __repr__(self) -> str:
        type_name = self.type.name if self.type is not None else "<untyped>"
        return f"Property({self.name!r}: {type_name})"


class Port(Property):
    """An interaction point on a class through which signals flow.

    ``provided`` lists the signal names the owner *receives* through this
    port, ``required`` the names it *sends*.  A port declaring either list
    is *constrained*: it accepts exactly its provided signals and emits
    exactly its required ones.  A port declaring neither is a relay port
    (typical for structural-class boundaries) and passes any signal.
    """

    def __init__(
        self,
        name: str = "",
        provided=(),
        required=(),
        is_behavior: bool = True,
    ) -> None:
        super().__init__(name)
        self.provided: List[str] = list(provided)
        self.required: List[str] = list(required)
        self.is_behavior = is_behavior

    @property
    def is_constrained(self) -> bool:
        """Does the port declare provided or required signals?"""
        return bool(self.provided or self.required)

    def accepts(self, signal_name: str) -> bool:
        """Can the owner receive ``signal_name`` through this port?"""
        if self.is_constrained:
            return signal_name in self.provided
        return True

    def emits(self, signal_name: str) -> bool:
        """Can the owner send ``signal_name`` through this port?"""
        if self.is_constrained:
            return signal_name in self.required
        return True

    def __repr__(self) -> str:
        return f"Port({self.name!r})"


class ConnectorEnd:
    """One end of a connector: a port, optionally on a specific part.

    ``part`` is ``None`` when the end attaches to a port of the containing
    class itself (a delegation connector end).
    """

    def __init__(self, port: Port, part: Optional[Property] = None) -> None:
        if not isinstance(port, Port):
            raise ModelError("connector end must reference a Port")
        self.port = port
        self.part = part

    def describe(self) -> str:
        """``part.port``, or just the port name on the boundary."""
        if self.part is not None:
            return f"{self.part.name}.{self.port.name}"
        return self.port.name

    def __repr__(self) -> str:
        return f"ConnectorEnd({self.describe()})"


class Connector(NamedElement):
    """A link between exactly two connector ends, carrying signals."""

    def __init__(
        self,
        name: str = "",
        end1: Optional[ConnectorEnd] = None,
        end2: Optional[ConnectorEnd] = None,
    ) -> None:
        super().__init__(name)
        self.ends: List[ConnectorEnd] = []
        if end1 is not None:
            self.ends.append(end1)
        if end2 is not None:
            self.ends.append(end2)

    def set_ends(self, end1: ConnectorEnd, end2: ConnectorEnd) -> None:
        """Set the two ends of a binary connector."""
        self.ends = [end1, end2]

    @property
    def is_delegation(self) -> bool:
        """True when one end sits on the containing class boundary."""
        return len(self.ends) == 2 and any(end.part is None for end in self.ends)

    @property
    def is_assembly(self) -> bool:
        """True when both ends sit on parts."""
        return len(self.ends) == 2 and all(end.part is not None for end in self.ends)

    def other_end(self, end: ConnectorEnd) -> ConnectorEnd:
        """The end of this binary connector that is not ``end``."""
        if len(self.ends) != 2:
            raise ModelError(f"connector {self.name!r} is not binary")
        if end is self.ends[0]:
            return self.ends[1]
        if end is self.ends[1]:
            return self.ends[0]
        raise ModelError(f"end {end!r} does not belong to connector {self.name!r}")

    def describe(self) -> str:
        """``end -- end``, or the connector's name when unwired."""
        if len(self.ends) == 2:
            return f"{self.ends[0].describe()} -- {self.ends[1].describe()}"
        return self.name or "<unwired>"

    def __repr__(self) -> str:
        return f"Connector({self.describe()})"
