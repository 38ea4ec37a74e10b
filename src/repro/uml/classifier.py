"""Classifiers of the UML 2.0 subset: classes, data types, signals, interfaces.

The profile distinguishes *functional* components (active classes owning a
state-machine behaviour) from *structural* components (passive classes whose
composite structure wires parts together).  Both are :class:`Class` here; the
``is_active`` flag and ``classifier_behavior`` make the difference.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import ModelError
from repro.uml.element import NamedElement


class Classifier(NamedElement):
    """Abstract classifier: named, generalisable, with attributes."""

    def __init__(self, name: str = "", is_abstract: bool = False) -> None:
        super().__init__(name)
        self.is_abstract = is_abstract
        self.generals: List[Classifier] = []
        self.attributes: List["Property"] = []  # noqa: F821

    # -- generalisation ------------------------------------------------------

    def add_generalization(self, general: "Classifier") -> None:
        """Make this classifier a specialisation of ``general``."""
        if general is self or self in general.all_generals():
            raise ModelError(
                f"generalization cycle between {self.name!r} and {general.name!r}"
            )
        if general not in self.generals:
            self.generals.append(general)

    def all_generals(self) -> Iterator["Classifier"]:
        """Transitive generalisations, nearest first (pre-order)."""
        for general in self.generals:
            yield general
            yield from general.all_generals()

    def conforms_to(self, other: "Classifier") -> bool:
        """True if ``self`` is ``other`` or (transitively) specialises it."""
        return other is self or other in self.all_generals()

    # -- attributes ----------------------------------------------------------

    def add_attribute(self, prop: "Property") -> "Property":  # noqa: F821
        """Own ``prop`` as an attribute; returns it."""
        self.own(prop)
        self.attributes.append(prop)
        return prop

    def attribute(self, name: str) -> Optional["Property"]:  # noqa: F821
        """Own or inherited attribute called ``name``."""
        for prop in self.all_attributes():
            if prop.name == name:
                return prop
        return None

    def all_attributes(self) -> Iterator["Property"]:  # noqa: F821
        """Own attributes, then inherited ones (nearest general first)."""
        yield from self.attributes
        for general in self.all_generals():
            yield from general.attributes


class DataType(Classifier):
    """A classifier whose instances are identified only by their value."""


class PrimitiveType(DataType):
    """A predefined atomic type with a bit width (used for signal sizing)."""

    def __init__(self, name: str, bits: int) -> None:
        super().__init__(name)
        if bits <= 0:
            raise ModelError(f"primitive type {name!r} needs a positive bit width")
        self.bits = bits

    def __repr__(self) -> str:
        return f"PrimitiveType({self.name!r}, bits={self.bits})"


class Enumeration(DataType):
    """A data type whose values are a fixed set of literals."""

    def __init__(self, name: str, literals=()) -> None:
        super().__init__(name)
        self.literals: List[str] = list(literals)

    def add_literal(self, literal: str) -> None:
        """Append a literal; duplicates are a ``ModelError``."""
        if literal in self.literals:
            raise ModelError(f"duplicate literal {literal!r} in {self.name!r}")
        self.literals.append(literal)


class Interface(Classifier):
    """A declared contract: the set of signal names an end may receive."""

    def __init__(self, name: str = "", signal_names=()) -> None:
        super().__init__(name)
        self.signal_names: List[str] = list(signal_names)


class Signal(Classifier):
    """An asynchronous message type exchanged between parts via ports.

    A signal's attributes are its parameters; each must be typed by a
    :class:`PrimitiveType` so the total transfer size is computable.  An
    optional ``payload_bits`` models an opaque data payload (an SDU body)
    on top of the typed parameters.
    """

    HEADER_BITS = 32  # fixed per-signal identification/bookkeeping overhead

    def __init__(self, name: str = "", payload_bits: int = 0) -> None:
        super().__init__(name)
        if payload_bits < 0:
            raise ModelError("payload_bits must be >= 0")
        self.payload_bits = payload_bits

    def parameter_names(self) -> List[str]:
        """Attribute names in declaration order, inherited ones included."""
        return [prop.name for prop in self.all_attributes()]

    def size_bits(self) -> int:
        """Total size of one instance on the wire."""
        bits = self.HEADER_BITS + self.payload_bits
        for prop in self.all_attributes():
            prop_type = prop.type
            if isinstance(prop_type, PrimitiveType):
                bits += prop_type.bits
            else:
                raise ModelError(
                    f"signal {self.name!r} parameter {prop.name!r} has no "
                    "primitive type; its wire size is undefined"
                )
        return bits

    def size_bytes(self) -> int:
        """Wire size rounded up to whole bytes."""
        return (self.size_bits() + 7) // 8


class Class(Classifier):
    """A UML class, optionally active with a classifier behaviour.

    Composite structure (parts, ports, connectors) lives directly on the
    class, matching the UML 2.0 ``StructuredClassifier`` and
    ``EncapsulatedClassifier`` merge.
    """

    def __init__(self, name: str = "", is_active: bool = False) -> None:
        super().__init__(name)
        self.is_active = is_active
        self.parts: List["Property"] = []  # noqa: F821
        self.ports: List["Port"] = []  # noqa: F821
        self.connectors: List["Connector"] = []  # noqa: F821
        self.nested_classifiers: List[Classifier] = []
        self.classifier_behavior = None  # StateMachine, set via set_behavior()

    # -- composite structure -------------------------------------------------

    def add_part(self, part: "Property") -> "Property":  # noqa: F821
        """Own ``part`` as a composite part; returns it."""
        part.aggregation = "composite"
        self.own(part)
        self.parts.append(part)
        return part

    def part(self, name: str) -> Optional["Property"]:  # noqa: F821
        """The part named ``name``, or ``None``."""
        for part in self.parts:
            if part.name == name:
                return part
        return None

    def add_port(self, port: "Port") -> "Port":  # noqa: F821
        """Own ``port``; returns it."""
        self.own(port)
        self.ports.append(port)
        return port

    def port(self, name: str) -> Optional["Port"]:  # noqa: F821
        """The port named ``name`` (inherited ones included), or ``None``."""
        for port in self.all_ports():
            if port.name == name:
                return port
        return None

    def all_ports(self) -> Iterator["Port"]:  # noqa: F821
        """Own ports, then those of every general class."""
        yield from self.ports
        for general in self.all_generals():
            if isinstance(general, Class):
                yield from general.ports

    def add_connector(self, connector: "Connector") -> "Connector":  # noqa: F821
        """Own ``connector``; returns it."""
        self.own(connector)
        self.connectors.append(connector)
        return connector

    def add_nested(self, classifier: Classifier) -> Classifier:
        """Own a nested classifier; returns it."""
        self.own(classifier)
        self.nested_classifiers.append(classifier)
        return classifier

    # -- behaviour -----------------------------------------------------------

    def set_behavior(self, machine) -> None:
        """Install ``machine`` as the classifier behaviour of this class."""
        if not self.is_active:
            raise ModelError(
                f"class {self.name!r} is passive; only active classes own a "
                "classifier behaviour"
            )
        self.own(machine)
        machine.context = self
        self.classifier_behavior = machine

    @property
    def is_functional(self) -> bool:
        """Paper terminology: active class with behaviour."""
        return self.is_active and self.classifier_behavior is not None

    @property
    def is_structural(self) -> bool:
        """Paper terminology: passive class defining composite structure."""
        return not self.is_active
