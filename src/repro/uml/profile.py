"""UML 2.0 second-class extensibility: profiles, stereotypes, tagged values.

The paper deliberately restricts itself to second-class extensibility
(Section 2): stereotypes extend existing metaclasses, grouped in a profile,
with tag definitions supplying typed parameters.  This module implements
that mechanism generically; :mod:`repro.tutprofile` instantiates it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ProfileError
from repro.uml.element import Element, NamedElement
from repro.uml.packages import Package


class TagType:
    """Value kinds a tag definition may declare."""

    STRING = "string"
    INT = "int"
    REAL = "real"
    BOOL = "bool"
    ENUM = "enum"

    ALL = (STRING, INT, REAL, BOOL, ENUM)


class TagDefinition:
    """One typed, optionally required, optionally defaulted tagged value."""

    def __init__(
        self,
        name: str,
        tag_type: str,
        description: str = "",
        enum_values: Sequence[str] = (),
        default=None,
        required: bool = False,
    ) -> None:
        if tag_type not in TagType.ALL:
            raise ProfileError(f"unknown tag type {tag_type!r} for tag {name!r}")
        if tag_type == TagType.ENUM and not enum_values:
            raise ProfileError(f"enum tag {name!r} needs enum_values")
        if tag_type != TagType.ENUM and enum_values:
            raise ProfileError(f"non-enum tag {name!r} must not list enum_values")
        self.name = name
        self.tag_type = tag_type
        self.description = description
        self.enum_values = list(enum_values)
        self.required = required
        self.default = self.validate(default) if default is not None else None

    def validate(self, value):
        """Coerce and check ``value`` against this definition; return it."""
        if self.tag_type == TagType.STRING:
            if not isinstance(value, str):
                raise ProfileError(f"tag {self.name!r} expects a string, got {value!r}")
            return value
        if self.tag_type == TagType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProfileError(f"tag {self.name!r} expects an int, got {value!r}")
            return value
        if self.tag_type == TagType.REAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProfileError(f"tag {self.name!r} expects a number, got {value!r}")
            return float(value)
        if self.tag_type == TagType.BOOL:
            if not isinstance(value, bool):
                raise ProfileError(f"tag {self.name!r} expects a bool, got {value!r}")
            return value
        if self.tag_type == TagType.ENUM:
            if value not in self.enum_values:
                raise ProfileError(
                    f"tag {self.name!r} expects one of {self.enum_values}, "
                    f"got {value!r}"
                )
            return value
        raise ProfileError(f"unknown tag type {self.tag_type!r}")

    def __repr__(self) -> str:
        return f"TagDefinition({self.name}: {self.tag_type})"


class Stereotype(NamedElement):
    """An extension of a UML metaclass, with tag definitions.

    ``metaclasses`` names the metaclasses the stereotype may be applied to
    (e.g. ``("Class",)`` or ``("Dependency",)``).  A stereotype may
    specialise another, inheriting its metaclasses and tag definitions
    (used by the HIBI specialisations in the paper, Section 4.2).
    """

    def __init__(
        self,
        name: str,
        metaclasses: Optional[Sequence[str]] = None,
        description: str = "",
        specializes: Optional["Stereotype"] = None,
        is_abstract: bool = False,
    ) -> None:
        super().__init__(name)
        if metaclasses is None:
            # Default: extend Class, unless specialising (then inherit).
            metaclasses = () if specializes is not None else ("Class",)
        self.metaclasses = tuple(metaclasses)
        self.description = description
        self.specializes = specializes
        self.is_abstract = is_abstract
        self.tag_definitions: List[TagDefinition] = []

    # -- tags -------------------------------------------------------------------

    def define_tag(self, *args, **kwargs) -> TagDefinition:
        """Add a tag definition (arguments as for :class:`TagDefinition`)."""
        definition = TagDefinition(*args, **kwargs)
        if any(d.name == definition.name for d in self.tag_definitions):
            raise ProfileError(
                f"stereotype {self.name!r} already defines tag {definition.name!r}"
            )
        # Shadowing an *inherited* tag is allowed: a specialisation may
        # refine the default of a base tag (all_tag_definitions puts own
        # definitions first, so the refinement wins).
        self.tag_definitions.append(definition)
        return definition

    def all_tag_definitions(self) -> List[TagDefinition]:
        """Own tag definitions plus inherited ones (own first)."""
        definitions = list(self.tag_definitions)
        seen = {d.name for d in definitions}
        ancestor = self.specializes
        while ancestor is not None:
            for definition in ancestor.tag_definitions:
                if definition.name not in seen:
                    definitions.append(definition)
                    seen.add(definition.name)
            ancestor = ancestor.specializes
        return definitions

    def find_tag(self, name: str) -> Optional[TagDefinition]:
        """The tag definition named ``name`` (inherited ones included), or ``None``."""
        for definition in self.all_tag_definitions():
            if definition.name == name:
                return definition
        return None

    # -- classification -----------------------------------------------------------

    def effective_metaclasses(self) -> Sequence[str]:
        """The metaclasses this stereotype extends, following specialisation."""
        if self.metaclasses:
            return self.metaclasses
        if self.specializes is not None:
            return self.specializes.effective_metaclasses()
        return ()

    def is_kind_of(self, name: str) -> bool:
        """True if this stereotype is named ``name`` or specialises it."""
        stereotype: Optional[Stereotype] = self
        while stereotype is not None:
            if stereotype.name == name:
                return True
            stereotype = stereotype.specializes
        return False

    def extends(self, element: Element) -> bool:
        """Can this stereotype be applied to ``element``?

        An empty metaclass list (after following specialisation) extends
        nothing; metaclass matching accepts subclasses, so a stereotype on
        ``Property`` also applies to ``Port``.
        """
        for metaclass_name in self.effective_metaclasses():
            for klass in type(element).__mro__:
                if klass.__name__ == metaclass_name:
                    return True
        return False


class StereotypeApplication:
    """A stereotype applied to a model element, with validated tagged values."""

    def __init__(self, element: Element, stereotype: Stereotype, values: Dict) -> None:
        self.element = element
        self.stereotype = stereotype
        self.values: Dict[str, object] = {}
        for name, value in values.items():
            self.set(name, value)

    def set(self, tag_name: str, value) -> None:
        """Set a tagged value; the stereotype must define the tag."""
        definition = self.stereotype.find_tag(tag_name)
        if definition is None:
            raise ProfileError(
                f"stereotype {self.stereotype.name!r} has no tag {tag_name!r}"
            )
        self.values[tag_name] = definition.validate(value)

    def get(self, tag_name: str, default=None):
        """A tagged value, else the tag's default, else ``default``."""
        if tag_name in self.values:
            return self.values[tag_name]
        definition = self.stereotype.find_tag(tag_name)
        if definition is not None and definition.default is not None:
            return definition.default
        return default

    def missing_required_tags(self) -> List[str]:
        """Names of required tags that have no value."""
        return [
            definition.name
            for definition in self.stereotype.all_tag_definitions()
            if definition.required
            and definition.name not in self.values
            and definition.default is None
        ]

    def __repr__(self) -> str:
        return f"StereotypeApplication(«{self.stereotype.name}», {self.values})"


class Profile(Package):
    """A named collection of stereotypes."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.stereotypes: List[Stereotype] = []

    def add_stereotype(self, stereotype: Stereotype) -> Stereotype:
        """Add a stereotype; a duplicate name is a ``ProfileError``."""
        if self.stereotype(stereotype.name) is not None:
            raise ProfileError(
                f"profile {self.name!r} already has stereotype {stereotype.name!r}"
            )
        self.add(stereotype)
        self.stereotypes.append(stereotype)
        return stereotype

    def stereotype(self, name: str) -> Optional[Stereotype]:
        """The stereotype named ``name``, or ``None``."""
        for stereotype in self.stereotypes:
            if stereotype.name == name:
                return stereotype
        return None

    def iter_stereotypes(self) -> Iterator[Stereotype]:
        """The profile's stereotypes in definition order."""
        return iter(self.stereotypes)

    def apply(self, element: Element, stereotype_name: str, **tag_values) -> StereotypeApplication:
        """Apply a stereotype of this profile to ``element``.

        Checks metaclass compatibility, abstractness, double application,
        and validates tagged values (required tags may be filled in later
        and are checked by the design-rule checker).
        """
        stereotype = self.stereotype(stereotype_name)
        if stereotype is None:
            raise ProfileError(
                f"profile {self.name!r} has no stereotype {stereotype_name!r}"
            )
        if stereotype.is_abstract:
            raise ProfileError(
                f"stereotype {stereotype_name!r} is abstract and cannot be applied"
            )
        if not stereotype.extends(element):
            raise ProfileError(
                f"stereotype «{stereotype_name}» extends "
                f"{'/'.join(stereotype.effective_metaclasses())}, not "
                f"{element.metaclass_name()}"
            )
        if element.has_stereotype(stereotype_name):
            raise ProfileError(
                f"«{stereotype_name}» is already applied to this element"
            )
        application = StereotypeApplication(element, stereotype, tag_values)
        element.stereotype_applications.append(application)
        return application

    def unapply(self, element: Element, stereotype_name: str) -> None:
        """Remove an applied stereotype; raises if it is not applied."""
        application = element.stereotype_application(stereotype_name)
        if application is None:
            raise ProfileError(f"«{stereotype_name}» is not applied to this element")
        element.stereotype_applications.remove(application)
