"""Root of the UML 2.0 metamodel subset: elements, named elements, comments.

The subset implemented here covers exactly what a second-class-extensibility
profile (stereotypes + tagged values) needs: ownership, names, qualified
names, and stereotype application hooks.  Everything else in the metamodel
derives from :class:`Element` / :class:`NamedElement`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

_serial = itertools.count(1)


class Element:
    """Abstract root of the metamodel.

    Every element has an owner (or ``None`` for roots), a list of owned
    elements, and may carry stereotype applications.  A monotonically
    increasing ``serial`` gives a stable, deterministic creation order used
    for XMI ids and diagram layout.
    """

    def __init__(self) -> None:
        self.owner: Optional[Element] = None
        self.owned_elements: List[Element] = []
        self.stereotype_applications: List["StereotypeApplication"] = []  # noqa: F821
        self.comments: List[Comment] = []
        self.serial: int = next(_serial)
        self.xmi_id: Optional[str] = None

    # -- ownership ---------------------------------------------------------

    def own(self, element: "Element") -> "Element":
        """Attach ``element`` to this element's ownership tree and return it."""
        if element.owner is not None:
            element.owner.owned_elements.remove(element)
        element.owner = self
        self.owned_elements.append(element)
        return element

    def disown(self, element: "Element") -> None:
        """Detach a directly owned element."""
        self.owned_elements.remove(element)
        element.owner = None

    def all_owned_elements(self) -> Iterator["Element"]:
        """Depth-first iteration over the transitive ownership tree."""
        for child in self.owned_elements:
            yield child
            yield from child.all_owned_elements()

    def root(self) -> "Element":
        """The top of this element's ownership chain (usually the Model)."""
        node: Element = self
        while node.owner is not None:
            node = node.owner
        return node

    def owner_chain(self) -> Iterator["Element"]:
        """Owners from the immediate owner up to the root."""
        node = self.owner
        while node is not None:
            yield node
            node = node.owner

    # -- stereotypes ---------------------------------------------------------

    @property
    def applied_stereotypes(self):
        """Stereotypes applied to this element (in application order)."""
        return [app.stereotype for app in self.stereotype_applications]

    def stereotype_application(self, name: str):
        """The application of the stereotype called ``name``, or ``None``.

        Matches the stereotype's own name or any of its generalisations, so
        querying for a base stereotype finds specialised applications too.
        """
        for app in self.stereotype_applications:
            if app.stereotype.is_kind_of(name):
                return app
        return None

    def has_stereotype(self, name: str) -> bool:
        """True if a stereotype named ``name`` (or specialising it) is applied."""
        return self.stereotype_application(name) is not None

    def tag(self, stereotype_name: str, tag_name: str, default=None):
        """Tagged value ``tag_name`` of the applied stereotype, or ``default``."""
        app = self.stereotype_application(stereotype_name)
        if app is None:
            return default
        return app.get(tag_name, default)

    # -- misc ----------------------------------------------------------------

    def add_comment(self, body: str) -> "Comment":
        """Attach a new comment with ``body``; returns it."""
        comment = Comment(body)
        self.own(comment)
        self.comments.append(comment)
        return comment

    def metaclass_name(self) -> str:
        """The UML metaclass this element instantiates (its class name)."""
        return type(self).__name__


class Comment(Element):
    """An annotation attached to an element."""

    def __init__(self, body: str = "") -> None:
        super().__init__()
        self.body = body

    def __repr__(self) -> str:
        return f"Comment({self.body!r})"


class NamedElement(Element):
    """An element with a (possibly empty) name and a qualified name."""

    SEPARATOR = "::"

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name

    @property
    def qualified_name(self) -> str:
        """Names of all named owners joined with ``::`` (UML convention)."""
        parts = [self.name]
        for owner in self.owner_chain():
            if isinstance(owner, NamedElement) and owner.name:
                parts.append(owner.name)
        return self.SEPARATOR.join(reversed(parts))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def reset_serial_counter() -> None:
    """Restart the deterministic element serial counter (for tests)."""
    global _serial
    _serial = itertools.count(1)
