"""Instance specifications: concrete instances of classifiers with slot values.

Platform component instances (``processor1 : Nios``) are modelled as parts in
composite structures, but the XMI layer and the platform library also use
plain instance specifications to describe configured library entries.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ModelError
from repro.uml.classifier import Classifier
from repro.uml.element import NamedElement


class Slot:
    """A value bound to one structural feature of an instance."""

    def __init__(self, feature_name: str, value) -> None:
        self.feature_name = feature_name
        self.value = value

    def __repr__(self) -> str:
        return f"Slot({self.feature_name}={self.value!r})"


class InstanceSpecification(NamedElement):
    """An instance of a classifier with per-attribute slot values."""

    def __init__(self, name: str = "", classifier: Optional[Classifier] = None) -> None:
        super().__init__(name)
        self.classifier = classifier
        self.slots: Dict[str, Slot] = {}

    def set_slot(self, feature_name: str, value) -> Slot:
        """Bind ``value`` to ``feature_name``; the feature must exist if typed."""
        if self.classifier is not None:
            if self.classifier.attribute(feature_name) is None:
                raise ModelError(
                    f"classifier {self.classifier.name!r} has no attribute "
                    f"{feature_name!r}"
                )
        slot = Slot(feature_name, value)
        self.slots[feature_name] = slot
        return slot

    def value(self, feature_name: str, default=None):
        """The slot value, else the attribute's default, else ``default``."""
        slot = self.slots.get(feature_name)
        if slot is not None:
            return slot.value
        if self.classifier is not None:
            attribute = self.classifier.attribute(feature_name)
            if attribute is not None and attribute.default is not None:
                return attribute.default
        return default

    def describe(self) -> str:
        """``name : Classifier``."""
        classifier_name = self.classifier.name if self.classifier else "<untyped>"
        return f"{self.name} : {classifier_name}"

    def __repr__(self) -> str:
        return f"InstanceSpecification({self.describe()})"
