"""UML 2.0 metamodel subset with second-class extensibility (profiles).

This package implements exactly the UML constructs TUT-Profile extends or
relies on: classes with composite structures (parts, ports, connectors),
signals, dependencies, state machines with a textual action language, and
the profile/stereotype/tagged-value mechanism, plus XMI-like serialisation
and well-formedness validation.
"""

from repro.uml.element import Comment, Element, NamedElement, reset_serial_counter
from repro.uml.classifier import (
    Class,
    Classifier,
    DataType,
    Enumeration,
    Interface,
    PrimitiveType,
    Signal,
)
from repro.uml.structure import Connector, ConnectorEnd, Port, Property
from repro.uml.packages import Model, Package
from repro.uml.dependency import Abstraction, Dependency, Realization, Usage
from repro.uml.instance import InstanceSpecification, Slot
from repro.uml.statemachine import (
    CompletionTrigger,
    FinalState,
    SignalTrigger,
    State,
    StateMachine,
    TimerTrigger,
    Transition,
    Trigger,
)
from repro.uml.profile import (
    Profile,
    Stereotype,
    StereotypeApplication,
    TagDefinition,
    TagType,
)
from repro.uml.action_lang import parse_actions, parse_expression
from repro.uml.actions import ActionEnvironment, unparse_block
from repro.uml.compile import evaluate, execute
from repro.uml.validation import Issue, ValidationReport, validate_model
from repro.uml.visitor import (
    count_elements,
    find_by_name,
    find_stereotyped,
    iter_instances,
    iter_tree,
)
from repro.uml.xmi import model_to_xml, read_model, write_model, xml_to_model

__all__ = [
    "Abstraction",
    "ActionEnvironment",
    "Class",
    "Classifier",
    "Comment",
    "CompletionTrigger",
    "Connector",
    "ConnectorEnd",
    "DataType",
    "Dependency",
    "Element",
    "Enumeration",
    "FinalState",
    "InstanceSpecification",
    "Interface",
    "Issue",
    "Model",
    "NamedElement",
    "Package",
    "Port",
    "PrimitiveType",
    "Profile",
    "Property",
    "Realization",
    "Signal",
    "SignalTrigger",
    "Slot",
    "State",
    "StateMachine",
    "Stereotype",
    "StereotypeApplication",
    "TagDefinition",
    "TagType",
    "TimerTrigger",
    "Transition",
    "Trigger",
    "Usage",
    "ValidationReport",
    "count_elements",
    "evaluate",
    "execute",
    "find_by_name",
    "find_stereotyped",
    "iter_instances",
    "iter_tree",
    "model_to_xml",
    "parse_actions",
    "parse_expression",
    "read_model",
    "reset_serial_counter",
    "unparse_block",
    "validate_model",
    "write_model",
    "xml_to_model",
]
