"""Abstract containers and the container/binding registry.

Containers are the Aggregate role of the Iterator pattern (Figure 2): they
hold elements and hide the physical storage behind a small functional
interface that only iterators (and the code generator) ever touch.

Every abstract container *kind* (``read_buffer``, ``queue``, ``stack``,
``vector``, ``assoc_array``, ``write_buffer``) declares its Table-1
classification as class attributes.  Concrete subclasses add a *binding* — the
physical device the container is implemented over (on-chip FIFO/LIFO, block
RAM, external SRAM, register file, 3-line buffer) — and are registered in a
global registry so designs can select implementations late, as Section 3.4
prescribes ("metaprogramming defers until the last moment the selection of
the proper implementation of a container").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Type

from ..rtl import Component
from .interfaces import (NONE, StreamSinkIface, StreamSourceIface, Traversal,
                         format_traversals)


class ContainerError(Exception):
    """Raised for container registry/instantiation problems."""


class Container(Component):
    """Base class for all containers (the Aggregate of the Iterator pattern).

    Class attributes
    ----------------
    kind:
        The abstract container kind (row of Table 1).
    binding:
        The physical implementation target (``"fifo"``, ``"sram"``, ...);
        ``None`` on abstract kinds.
    random_read / random_write:
        Whether random-access input/output is supported (Table 1, "Random").
    seq_read / seq_write:
        Supported traversal directions for sequential input/output iterators
        (Table 1, "Sequential").
    external_storage:
        True when the binding stores elements off-chip (external SRAM), in
        which case the storage does not count against on-chip block RAM.
    """

    kind: str = "abstract"
    binding: Optional[str] = None
    random_read: bool = False
    random_write: bool = False
    seq_read: FrozenSet[Traversal] = NONE
    seq_write: FrozenSet[Traversal] = NONE
    external_storage: bool = False

    def __init__(self, name: str, width: int, capacity: int) -> None:
        super().__init__(name)
        if width < 1:
            raise ContainerError(f"element width must be >= 1, got {width}")
        if capacity < 1:
            raise ContainerError(f"capacity must be >= 1, got {capacity}")
        self.width = width
        self.capacity = capacity

    # -- classification helpers (Table 1) ------------------------------------------

    @classmethod
    def classification_row(cls) -> Dict[str, str]:
        """One row of Table 1 for this container kind."""
        return {
            "container": cls.kind.replace("_", " "),
            "random_input": "yes" if cls.random_read else "-",
            "random_output": "yes" if cls.random_write else "-",
            "seq_input": format_traversals(cls.seq_read),
            "seq_output": format_traversals(cls.seq_write),
        }

    @classmethod
    def supports_traversal(cls, traversal: Traversal, for_write: bool = False) -> bool:
        """Whether a sequential iterator with ``traversal`` can target this kind."""
        allowed = cls.seq_write if for_write else cls.seq_read
        return traversal in allowed

    # -- behavioural introspection (overridden by concrete containers) ----------------

    def snapshot(self) -> List[int]:
        """Return the logical contents for test benches (order is kind-specific)."""
        raise NotImplementedError

    @property
    def occupancy(self) -> int:
        """Number of elements currently held."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: kind -> abstract container class
CONTAINER_KINDS: Dict[str, Type[Container]] = {}

#: (kind, binding) -> concrete container class
CONTAINER_BINDINGS: Dict[Tuple[str, str], Type[Container]] = {}


def register_kind(cls: Type[Container]) -> Type[Container]:
    """Class decorator registering an abstract container kind."""
    if cls.kind in CONTAINER_KINDS:
        raise ContainerError(f"container kind {cls.kind!r} already registered")
    CONTAINER_KINDS[cls.kind] = cls
    return cls


def register_binding(cls: Type[Container]) -> Type[Container]:
    """Class decorator registering a concrete (kind, binding) implementation."""
    if cls.binding is None:
        raise ContainerError(
            f"{cls.__name__} must define a 'binding' before registration")
    key = (cls.kind, cls.binding)
    if key in CONTAINER_BINDINGS:
        raise ContainerError(f"binding {key!r} already registered")
    CONTAINER_BINDINGS[key] = cls
    return cls


def container_kinds() -> List[str]:
    """All registered abstract kinds, in registration (Table 1) order."""
    return list(CONTAINER_KINDS)


def bindings_for(kind: str) -> List[str]:
    """All registered bindings for ``kind``."""
    return [binding for (k, binding) in CONTAINER_BINDINGS if k == kind]


def lookup_binding(kind: str, binding: str) -> Type[Container]:
    """Return the concrete class implementing ``kind`` over ``binding``."""
    try:
        return CONTAINER_BINDINGS[(kind, binding)]
    except KeyError:
        known = bindings_for(kind)
        raise ContainerError(
            f"no binding {binding!r} for container kind {kind!r}; "
            f"known bindings: {known}") from None


def make_container(kind: str, binding: str, name: str, **params) -> Container:
    """Factory: instantiate container ``kind`` bound to ``binding``.

    This is the Python equivalent of the paper's metaprogramming step that
    "defers until the last moment the selection of the proper implementation
    of a container, depending on the requirements of the application".
    """
    cls = lookup_binding(kind, binding)
    return cls(name=name, **params)


def classification_table() -> List[Dict[str, str]]:
    """Reproduce Table 1 of the paper from the registered abstract kinds."""
    return [cls.classification_row() for cls in CONTAINER_KINDS.values()]


# ---------------------------------------------------------------------------
# Wrapper glue shared by the bindings
# ---------------------------------------------------------------------------
#
# Each helper registers one combinational process that closes over the
# objects it wires, never over the owner, so every binding built from it
# runs the same code object and the compiled simulator serves them from one
# recipe.


def wrap_core(owner: Component, core: Component, fill: StreamSinkIface,
              drain: StreamSourceIface) -> None:
    """Figure 4's wrapper: rename ``fill`` and ``drain`` onto a
    first-word-fall-through FIFO or LIFO ``core`` (``din``/``push``/``full``
    and ``dout``/``pop``/``empty``), as a comb process of ``owner``."""

    @owner.comb
    def wrap() -> None:
        # Fill side: the producer pushes straight into the core.
        core.din.next = fill.data.value
        core.push.next = fill.push.value
        fill.ready.next = 0 if core.full.value else 1
        # Drain side: the core's head element falls through.
        drain.data.next = core.dout.value
        drain.valid.next = 0 if core.empty.value else 1
        core.pop.next = drain.pop.value


def forward(owner: Component, fill: StreamSinkIface, drain: StreamSourceIface,
            inner: Component) -> None:
    """Forward ``fill`` and ``drain`` to ``inner.fill`` and ``inner.drain``
    (an embedded circular buffer), as a comb process of ``owner``."""

    @owner.comb
    def wrap() -> None:
        inner.fill.data.next = fill.data.value
        inner.fill.push.next = fill.push.value
        fill.ready.next = inner.fill.ready.value
        drain.data.next = inner.drain.data.value
        drain.valid.next = inner.drain.valid.value
        inner.drain.pop.next = drain.pop.value
