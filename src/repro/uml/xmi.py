"""XMI-like XML serialisation of models, including stereotype applications.

The paper's profiling tool "parses the XML presentation of the UML 2.0
model to gather process group information" (Section 4.4).  This module
provides that XML presentation: :func:`write_model` emits a deterministic
document, :func:`read_model` reconstructs an equivalent model.  Round-trip
equality is covered by property-based tests.

The format follows XMI conventions (``packagedElement`` with ``xmi:type``
attributes, idrefs) without claiming schema conformance to OMG XMI — the
original tool chain (TAU G2) used its own dialect as well.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Sequence

from repro.errors import XmiError
from repro.uml.classifier import (
    Class,
    Classifier,
    Enumeration,
    Interface,
    PrimitiveType,
    Signal,
)
from repro.uml.dependency import Dependency
from repro.uml.element import Element, NamedElement
from repro.uml.instance import InstanceSpecification
from repro.uml.packages import Model, Package
from repro.uml.profile import Profile
from repro.uml.statemachine import (
    CompletionTrigger,
    SignalTrigger,
    StateMachine,
    TimerTrigger,
)
from repro.uml.structure import Connector, ConnectorEnd, Port, Property
from repro.uml.actions import unparse_block
from repro.uml.visitor import iter_tree

XMI_VERSION = "2.1"


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, model: Model) -> None:
        self.model = model
        self.ids: Dict[int, str] = {}
        self._next = 1
        for element in iter_tree(model):
            self._assign(element)

    def _assign(self, element: Element) -> str:
        key = id(element)
        if key not in self.ids:
            self.ids[key] = f"id{self._next}"
            element.xmi_id = self.ids[key]
            self._next += 1
        return self.ids[key]

    def ref(self, element: Element) -> str:
        """The XMI id of ``element``; elements of other models get an external ref."""
        key = id(element)
        if key not in self.ids:
            # Cross-model reference (e.g. a mapping dependency pointing at a
            # platform owned by another model): emit a symbolic external ref.
            name = getattr(element, "qualified_name", "") or getattr(
                element, "name", ""
            )
            if not name:
                raise XmiError(
                    f"element {element!r} is neither owned by the model nor "
                    "nameable as an external reference"
                )
            return f"ext:{name}"
        return self.ids[key]

    # -- document ---------------------------------------------------------------

    def document(self) -> ET.Element:
        """The whole ``XMI`` document tree."""
        root = ET.Element("XMI", {"version": XMI_VERSION})
        model_node = self.package_node(self.model)
        model_node.set("type", "uml:Model")
        root.append(model_node)
        applications = ET.SubElement(root, "stereotypeApplications")
        for element in iter_tree(self.model):
            for application in element.stereotype_applications:
                node = ET.SubElement(
                    applications,
                    "apply",
                    {
                        "stereotype": application.stereotype.qualified_name,
                        "element": self.ref(element),
                    },
                )
                for tag_name in sorted(application.values):
                    value = application.values[tag_name]
                    ET.SubElement(
                        node,
                        "tag",
                        {
                            "name": tag_name,
                            "value": _value_to_text(value),
                            "kind": _value_kind(value),
                        },
                    )
        return root

    # -- element serialisers -------------------------------------------------------

    def package_node(self, package: Package) -> ET.Element:
        """The node of a package and its packaged elements."""
        node = ET.Element("packagedElement", {"type": "uml:Package"})
        node.set("id", self.ref(package))
        node.set("name", package.name)
        self._attach_comments(node, package)
        for member in package.packaged_elements:
            child = self.packageable_node(member)
            if child is not None:
                node.append(child)
        return node

    def packageable_node(self, element: NamedElement) -> Optional[ET.Element]:
        """The node of one packaged element, or ``None`` for a profile."""
        if isinstance(element, Profile):
            # Profiles are definitions, not model content: referenced by name.
            return None
        if isinstance(element, Package):
            return self.package_node(element)
        if isinstance(element, Signal):
            return self.signal_node(element)
        if isinstance(element, PrimitiveType):
            node = self._named("packagedElement", element, "uml:PrimitiveType")
            node.set("bits", str(element.bits))
            return node
        if isinstance(element, Enumeration):
            node = self._named("packagedElement", element, "uml:Enumeration")
            for literal in element.literals:
                ET.SubElement(node, "ownedLiteral", {"name": literal})
            return node
        if isinstance(element, Interface):
            node = self._named("packagedElement", element, "uml:Interface")
            node.set("signals", ",".join(element.signal_names))
            return node
        if isinstance(element, Class):
            return self.class_node(element)
        if isinstance(element, Dependency):
            return self.dependency_node(element)
        if isinstance(element, InstanceSpecification):
            return self.instance_node(element)
        raise XmiError(f"cannot serialise packaged element {element!r}")

    def _named(self, tag: str, element: NamedElement, xmi_type: str) -> ET.Element:
        node = ET.Element(tag, {"type": xmi_type})
        node.set("id", self.ref(element))
        node.set("name", element.name)
        self._attach_comments(node, element)
        return node

    def _attach_comments(self, node: ET.Element, element: Element) -> None:
        for comment in element.comments:
            ET.SubElement(node, "ownedComment").text = comment.body

    def signal_node(self, signal: Signal) -> ET.Element:
        """The node of a signal and its attributes."""
        node = self._named("packagedElement", signal, "uml:Signal")
        node.set("payloadBits", str(signal.payload_bits))
        for attribute in signal.attributes:
            attr_node = ET.SubElement(node, "ownedAttribute", {"name": attribute.name})
            if attribute.type is not None:
                attr_node.set("typeName", attribute.type.name)
        return node

    def class_node(self, klass: Class) -> ET.Element:
        """The node of a class with its features, connectors and behaviour."""
        node = self._named("packagedElement", klass, "uml:Class")
        node.set("isActive", "true" if klass.is_active else "false")
        for general in klass.generals:
            ET.SubElement(node, "generalization", {"general": self.ref(general)})
        for attribute in klass.attributes:
            node.append(self.property_node(attribute, "ownedAttribute"))
        for part in klass.parts:
            node.append(self.property_node(part, "ownedPart"))
        for port in klass.ports:
            port_node = ET.SubElement(
                node,
                "ownedPort",
                {"id": self.ref(port), "name": port.name},
            )
            if port.provided:
                port_node.set("provided", ",".join(port.provided))
            if port.required:
                port_node.set("required", ",".join(port.required))
        for connector in klass.connectors:
            connector_node = ET.SubElement(
                node, "ownedConnector", {"name": connector.name}
            )
            for end in connector.ends:
                end_node = ET.SubElement(
                    connector_node, "end", {"port": self.ref(end.port)}
                )
                if end.part is not None:
                    end_node.set("part", self.ref(end.part))
        for nested in klass.nested_classifiers:
            nested_node = self.packageable_node(nested)
            if nested_node is not None:
                nested_node.tag = "nestedClassifier"
                node.append(nested_node)
        if klass.classifier_behavior is not None:
            node.append(self.machine_node(klass.classifier_behavior))
        return node

    def property_node(self, prop: Property, tag: str) -> ET.Element:
        """The node of a property under tag ``tag``."""
        node = ET.Element(tag, {"id": self.ref(prop), "name": prop.name})
        if prop.type is not None:
            node.set("typeRef", self.ref(prop.type))
        node.set("aggregation", prop.aggregation)
        node.set("lower", str(prop.lower))
        node.set("upper", str(prop.upper))
        if prop.default is not None:
            node.set("default", str(prop.default))
        return node

    def machine_node(self, machine: StateMachine) -> ET.Element:
        """The node of a state machine: variables, states with actions, transitions."""
        node = ET.Element(
            "ownedBehavior", {"type": "uml:StateMachine", "name": machine.name}
        )
        node.set("id", self.ref(machine))
        for name in sorted(machine.variables):
            ET.SubElement(
                node, "variable", {"name": name, "initial": str(machine.variables[name])}
            )
        for state in machine.states:
            state_node = ET.SubElement(node, "state", {"name": state.name})
            if state is machine.initial_state:
                state_node.set("initial", "true")
            if state.is_final:
                state_node.set("final", "true")
            if state.parent is not None:
                state_node.set("parent", state.parent.name)
                if state.parent.initial_substate is state:
                    state_node.set("initialSub", "true")
            if state.entry:
                ET.SubElement(state_node, "entry").text = unparse_block(state.entry)
            if state.exit:
                ET.SubElement(state_node, "exit").text = unparse_block(state.exit)
        for transition in machine.transitions:
            transition_node = ET.SubElement(
                node,
                "transition",
                {
                    "source": transition.source.name,
                    "target": transition.target.name,
                    "priority": str(transition.priority),
                },
            )
            if transition.internal:
                transition_node.set("internal", "true")
            trigger = transition.trigger
            if isinstance(trigger, SignalTrigger):
                transition_node.set("kind", "signal")
                transition_node.set("signal", trigger.signal_name)
                if trigger.parameter_names:
                    transition_node.set("params", ",".join(trigger.parameter_names))
            elif isinstance(trigger, TimerTrigger):
                transition_node.set("kind", "timer")
                transition_node.set("timer", trigger.timer_name)
            else:
                transition_node.set("kind", "completion")
            if transition.guard is not None:
                transition_node.set("guard", transition.guard.unparse())
            if transition.effect:
                ET.SubElement(transition_node, "effect").text = unparse_block(
                    transition.effect
                )
        return node

    def dependency_node(self, dependency: Dependency) -> ET.Element:
        """The node of a dependency with its client and supplier refs."""
        node = self._named("packagedElement", dependency, "uml:Dependency")
        node.set("clients", ",".join(self.ref(c) for c in dependency.clients))
        node.set("suppliers", ",".join(self.ref(s) for s in dependency.suppliers))
        return node

    def instance_node(self, instance: InstanceSpecification) -> ET.Element:
        """The node of an instance specification and its slots."""
        node = self._named(
            "packagedElement", instance, "uml:InstanceSpecification"
        )
        if instance.classifier is not None:
            node.set("classifier", self.ref(instance.classifier))
        for feature_name in sorted(instance.slots):
            slot = instance.slots[feature_name]
            ET.SubElement(
                node,
                "slot",
                {
                    "feature": feature_name,
                    "value": _value_to_text(slot.value),
                    "kind": _value_kind(slot.value),
                },
            )
        return node


def _value_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "real"
    return "string"


def _value_to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _text_to_value(text: str, kind: str):
    if kind == "bool":
        return text == "true"
    if kind == "int":
        return int(text)
    if kind == "real":
        return float(text)
    return text


def model_to_xml(model: Model) -> str:
    """Serialise ``model`` to an XMI-like XML string (deterministic)."""
    writer = _Writer(model)
    root = writer.document()
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def write_model(model: Model, path) -> None:
    """Serialise ``model`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_xml(model))


def _indent(node: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(node):
        if not node.text or not node.text.strip():
            node.text = pad + "  "
        for child in node:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not node[-1].tail or not node[-1].tail.strip():
            node[-1].tail = pad
    elif level and (not node.tail or not node.tail.strip()):
        node.tail = pad


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, profiles: Sequence[Profile]) -> None:
        self.profiles = list(profiles)
        self.by_id: Dict[str, Element] = {}
        self.pending: List = []  # deferred reference fixups

    def register(self, node: ET.Element, element: Element) -> None:
        """Remember ``element`` under the node's XMI id."""
        xmi_id = node.get("id")
        if xmi_id:
            element.xmi_id = xmi_id
            self.by_id[xmi_id] = element

    def resolve(self, xmi_id: str) -> Element:
        """The element with ``xmi_id``; unknown ids are an ``XmiError``."""
        try:
            return self.by_id[xmi_id]
        except KeyError:
            raise XmiError(f"dangling reference {xmi_id!r}") from None

    # -- parsing --------------------------------------------------------------------

    def read_document(self, root: ET.Element) -> Model:
        """Rebuild the model from an ``XMI`` document root."""
        model_node = root.find("packagedElement")
        if model_node is None or model_node.get("type") != "uml:Model":
            raise XmiError("document has no uml:Model root element")
        model = Model(model_node.get("name", ""))
        self.register(model_node, model)
        for comment_node in model_node.findall("ownedComment"):
            model.add_comment(comment_node.text or "")
        # The Model constructor pre-creates PrimitiveTypes; drop them so the
        # document's own copies land in the same place without duplication.
        self._absorb_package(model, model_node)
        for fixup in self.pending:
            fixup()
        applications = root.find("stereotypeApplications")
        if applications is not None:
            for node in applications.findall("apply"):
                self._apply_stereotype(node)
        return model

    def _absorb_package(self, package: Package, node: ET.Element) -> None:
        for child in node:
            if child.tag != "packagedElement":
                continue
            element = self._read_packageable(child)
            if element is not None:
                existing = package.member(element.name)
                if existing is not None and type(existing) is type(element):
                    # Predefined content (e.g. PrimitiveTypes): merge by id.
                    if child.get("id"):
                        self.by_id[child.get("id")] = existing
                    if isinstance(element, Package) and isinstance(existing, Package):
                        self._merge_predefined(existing, element, child)
                    continue
                package.add(element)

    def _merge_predefined(
        self, existing: Package, parsed: Package, node: ET.Element
    ) -> None:
        """Fold a parsed package into a predefined one with the same name."""
        for child in node.findall("packagedElement"):
            name = child.get("name", "")
            member = existing.member(name)
            if member is not None:
                if child.get("id"):
                    self.by_id[child.get("id")] = member
            else:
                parsed_member = parsed.member(name)
                if parsed_member is not None:
                    parsed.disown(parsed_member)
                    parsed.packaged_elements.remove(parsed_member)
                    existing.add(parsed_member)

    def _read_packageable(self, node: ET.Element) -> Optional[NamedElement]:
        element = self._read_packageable_inner(node)
        if element is not None:
            for comment_node in node.findall("ownedComment"):
                element.add_comment(comment_node.text or "")
        return element

    def _read_packageable_inner(self, node: ET.Element) -> Optional[NamedElement]:
        xmi_type = node.get("type", "")
        name = node.get("name", "")
        if xmi_type == "uml:Package":
            package = Package(name)
            self.register(node, package)
            self._absorb_package(package, node)
            return package
        if xmi_type == "uml:PrimitiveType":
            primitive = PrimitiveType(name, int(node.get("bits", "32")))
            self.register(node, primitive)
            return primitive
        if xmi_type == "uml:Enumeration":
            literals = [l.get("name", "") for l in node.findall("ownedLiteral")]
            enumeration = Enumeration(name, literals)
            self.register(node, enumeration)
            return enumeration
        if xmi_type == "uml:Interface":
            signals_attr = node.get("signals", "")
            names = [s for s in signals_attr.split(",") if s]
            interface = Interface(name, names)
            self.register(node, interface)
            return interface
        if xmi_type == "uml:Signal":
            return self._read_signal(node)
        if xmi_type == "uml:Class":
            return self._read_class(node)
        if xmi_type == "uml:Dependency":
            return self._read_dependency(node)
        if xmi_type == "uml:InstanceSpecification":
            return self._read_instance(node)
        raise XmiError(f"unknown packaged element type {xmi_type!r}")

    def _read_signal(self, node: ET.Element) -> Signal:
        signal = Signal(node.get("name", ""), int(node.get("payloadBits", "0")))
        self.register(node, signal)
        for attr_node in node.findall("ownedAttribute"):
            prop = Property(attr_node.get("name", ""))
            type_name = attr_node.get("typeName")
            if type_name:
                self.pending.append(
                    lambda p=prop, t=type_name, s=signal: _bind_primitive(p, t, s)
                )
            signal.add_attribute(prop)
        return signal

    def _read_class(self, node: ET.Element) -> Class:
        klass = Class(node.get("name", ""), is_active=node.get("isActive") == "true")
        self.register(node, klass)
        for general_node in node.findall("generalization"):
            ref = general_node.get("general", "")
            self.pending.append(
                lambda k=klass, r=ref: k.add_generalization(self.resolve(r))
            )
        for attr_node in node.findall("ownedAttribute"):
            klass.add_attribute(self._read_property(attr_node))
        for part_node in node.findall("ownedPart"):
            klass.add_part(self._read_property(part_node))
        for port_node in node.findall("ownedPort"):
            provided = [s for s in port_node.get("provided", "").split(",") if s]
            required = [s for s in port_node.get("required", "").split(",") if s]
            port = Port(port_node.get("name", ""), provided, required)
            self.register(port_node, port)
            klass.add_port(port)
        for nested_node in node.findall("nestedClassifier"):
            nested = self._read_packageable(nested_node)
            if isinstance(nested, Classifier):
                klass.add_nested(nested)
        for connector_node in node.findall("ownedConnector"):
            self.pending.append(
                lambda k=klass, n=connector_node: self._finish_connector(k, n)
            )
        behavior_node = node.find("ownedBehavior")
        if behavior_node is not None:
            machine = self._read_machine(behavior_node)
            klass.set_behavior(machine)
        return klass

    def _read_property(self, node: ET.Element) -> Property:
        prop = Property(
            node.get("name", ""),
            aggregation=node.get("aggregation", "none"),
            lower=int(node.get("lower", "1")),
            upper=int(node.get("upper", "1")),
        )
        if node.get("default") is not None:
            prop.default = node.get("default")
        self.register(node, prop)
        type_ref = node.get("typeRef")
        if type_ref:
            self.pending.append(
                lambda p=prop, r=type_ref: setattr(p, "type", self.resolve(r))
            )
        return prop

    def _finish_connector(self, klass: Class, node: ET.Element) -> None:
        connector = Connector(node.get("name", ""))
        ends = []
        for end_node in node.findall("end"):
            port = self.resolve(end_node.get("port", ""))
            part_ref = end_node.get("part")
            part = self.resolve(part_ref) if part_ref else None
            ends.append(ConnectorEnd(port, part))
        if len(ends) != 2:
            raise XmiError(f"connector {connector.name!r} must have two ends")
        connector.set_ends(ends[0], ends[1])
        klass.add_connector(connector)

    def _read_machine(self, node: ET.Element) -> StateMachine:
        from repro.uml.action_lang import parse_actions, parse_expression

        machine = StateMachine(node.get("name", ""))
        self.register(node, machine)
        for variable_node in node.findall("variable"):
            machine.variable(
                variable_node.get("name", ""), int(variable_node.get("initial", "0"))
            )
        for state_node in node.findall("state"):
            if state_node.get("final") == "true":
                machine.final_state(state_node.get("name", "final"))
                continue
            entry_node = state_node.find("entry")
            exit_node = state_node.find("exit")
            parent_name = state_node.get("parent")
            if parent_name:
                machine.state(
                    state_node.get("name", ""),
                    entry=entry_node.text or "" if entry_node is not None else "",
                    exit=exit_node.text or "" if exit_node is not None else "",
                    initial=state_node.get("initialSub") == "true",
                    parent=parent_name,
                )
            else:
                machine.state(
                    state_node.get("name", ""),
                    entry=entry_node.text or "" if entry_node is not None else "",
                    exit=exit_node.text or "" if exit_node is not None else "",
                    initial=state_node.get("initial") == "true",
                )
        for transition_node in node.findall("transition"):
            kind = transition_node.get("kind", "completion")
            if kind == "signal":
                params = [
                    p for p in transition_node.get("params", "").split(",") if p
                ]
                trigger: object = SignalTrigger(
                    transition_node.get("signal", ""), params
                )
            elif kind == "timer":
                trigger = TimerTrigger(transition_node.get("timer", ""))
            else:
                trigger = CompletionTrigger()
            effect_node = transition_node.find("effect")
            transition = machine.transition(
                transition_node.get("source", ""),
                transition_node.get("target", ""),
                trigger=trigger,
                effect=effect_node.text or "" if effect_node is not None else "",
                priority=int(transition_node.get("priority", "0")),
                internal=transition_node.get("internal") == "true",
            )
            guard_text = transition_node.get("guard")
            if guard_text:
                transition.guard = parse_expression(guard_text)
        return machine

    def _read_dependency(self, node: ET.Element) -> Dependency:
        dependency = Dependency(node.get("name", ""))
        self.register(node, dependency)
        clients = [r for r in node.get("clients", "").split(",") if r]
        suppliers = [r for r in node.get("suppliers", "").split(",") if r]
        for ref in clients:
            if ref.startswith("ext:"):
                continue  # cross-model reference: unresolvable here by design
            self.pending.append(
                lambda d=dependency, r=ref: d.add_client(self.resolve(r))
            )
        for ref in suppliers:
            if ref.startswith("ext:"):
                continue
            self.pending.append(
                lambda d=dependency, r=ref: d.add_supplier(self.resolve(r))
            )
        return dependency

    def _read_instance(self, node: ET.Element) -> InstanceSpecification:
        instance = InstanceSpecification(node.get("name", ""))
        self.register(node, instance)
        classifier_ref = node.get("classifier")
        if classifier_ref:
            self.pending.append(
                lambda i=instance, r=classifier_ref: setattr(
                    i, "classifier", self.resolve(r)
                )
            )
        for slot_node in node.findall("slot"):
            value = _text_to_value(
                slot_node.get("value", ""), slot_node.get("kind", "string")
            )
            # bypass attribute checking: classifier may resolve later
            from repro.uml.instance import Slot

            instance.slots[slot_node.get("feature", "")] = Slot(
                slot_node.get("feature", ""), value
            )
        return instance

    def _apply_stereotype(self, node: ET.Element) -> None:
        qualified = node.get("stereotype", "")
        element = self.resolve(node.get("element", ""))
        profile, stereotype_name = self._find_stereotype(qualified)
        values = {}
        for tag_node in node.findall("tag"):
            values[tag_node.get("name", "")] = _text_to_value(
                tag_node.get("value", ""), tag_node.get("kind", "string")
            )
        profile.apply(element, stereotype_name, **values)

    def _find_stereotype(self, qualified: str):
        simple = qualified.rsplit(NamedElement.SEPARATOR, 1)[-1]
        for profile in self.profiles:
            if profile.stereotype(simple) is not None:
                return profile, simple
        raise XmiError(
            f"no registered profile defines stereotype {qualified!r}; "
            "pass the profile to read_model(profiles=...)"
        )


def _bind_primitive(prop: Property, type_name: str, signal: Signal) -> None:
    root = signal.root()
    if isinstance(root, Model):
        try:
            prop.type = root.primitive(type_name)
            return
        except Exception:  # fall through to a fresh primitive
            pass
    prop.type = PrimitiveType(type_name, 32)


def xml_to_model(text: str, profiles: Sequence[Profile] = ()) -> Model:
    """Parse an XMI-like XML string back into a :class:`Model`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmiError(f"malformed XML: {exc}") from exc
    if root.tag != "XMI":
        raise XmiError(f"expected XMI document, found <{root.tag}>")
    return _Reader(profiles).read_document(root)


def read_model(path, profiles: Sequence[Profile] = ()) -> Model:
    """Parse the XMI file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return xml_to_model(handle.read(), profiles)
