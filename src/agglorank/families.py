"""The family registry: paths, comets, double comets and lollipops.

Each spec class is the one record of what its family is: its name, the
abbreviation its labels use, its roles in verify row order, its default
verify grid (whose lower bounds are the floors of the importance formulas),
how a grid point maps to a spec, and its generator.  ``FAMILIES`` maps each
name to its class; ``generate``, labeled I/O, ``verify`` and the CLI are all
derived from it.  A family's closed forms are ``closed_forms.phi_<name>`` and
``closed_forms.imc_<name>``, called with the spec's fields in order.

Node numbering follows each family's conventional labeling so that ids, roles
and figures line up, and is a stability guarantee:

* path(n): the chain is 0 - 1 - ... - n-1.
* comet(s, t): ids 0..t-2 walk along the handle from its free end, id t-1 is
  the star center, ids t..t+s-1 are the star leaves.
* double_comet(n, a, b): ids 0..a-1 are the pendants on the A end, a..a+b-1
  the pendants on the B end, a+b..n-1 the connecting path from A to B.
* lollipop(n, d): ids 0..d-1 walk along the tail toward the clique (id d-1 is
  the junction), ids d..n-1 form the clique.

Labeled graphs serialize with "# family ..." and "# class <id> <label>"
comment lines on top of the plain edge-list format, and round-trip exactly.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from typing import ClassVar

from .errors import EdgeListError, FamilyParameterError
from .graph import Graph, from_edge_list, parse_edge_list, to_edge_list


class NodeClass(enum.Enum):
    """Structural role of a node within its family."""

    PATH_END = "path_end"
    PATH_INNER = "path_inner"
    COMET_PATH_END = "comet_path_end"
    COMET_PATH_INNER = "comet_path_inner"
    COMET_CENTER = "comet_center"
    COMET_STAR_LEAF = "comet_star_leaf"
    DC_LEAF_A = "dc_leaf_a"
    DC_LEAF_B = "dc_leaf_b"
    DC_END_A = "dc_end_a"
    DC_END_B = "dc_end_b"
    DC_INNER = "dc_inner"
    LP_PATH_END = "lp_path_end"
    LP_PATH_INNER = "lp_path_inner"
    LP_JUNCTION = "lp_junction"
    LP_CLIQUE = "lp_clique"


_CLASS_BY_LABEL = {c.value: c for c in NodeClass}


class FamilySpec:
    """Base of the family spec dataclasses.

    A subclass sets ``NAME``, ``ABBREV`` (for ``label()``), ``ROLES`` (the
    verify row order), ``GRID`` (default verify ranges per grid parameter,
    lower bounds being the formula floors) and, where a grid parameter needs
    one, its help text in ``GRID_HELP``; it implements ``build()``.
    """

    NAME: ClassVar[str]
    ABBREV: ClassVar[str]
    ROLES: ClassVar[tuple[NodeClass, ...]]
    GRID: ClassVar[dict[str, tuple[int, int]]]
    GRID_HELP: ClassVar[dict[str, str]] = {}

    @classmethod
    def from_grid(cls, **point: int) -> FamilySpec:
        """The spec at one point of the verify grid."""
        return cls(**point)

    @property
    def order(self) -> int:
        return self.n

    @property
    def size(self) -> int:
        """Number of edges: every family but the lollipop is a tree."""
        return self.order - 1

    def params(self) -> tuple[int, ...]:
        """Field values in declaration order, as the closed forms take them."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def label(self) -> str:
        return f"{self.ABBREV}({','.join(map(str, self.params()))})"

    def comment_fields(self) -> str:
        pairs = (f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return " ".join((self.NAME, *pairs))

    def build(self) -> tuple[list[tuple[int, int]], list[NodeClass]]:
        """Edges and one role per node, in the family's numbering."""
        raise NotImplementedError


@dataclass(frozen=True)
class PathSpec(FamilySpec):
    NAME, ABBREV = "path", "P"
    ROLES = (NodeClass.PATH_END, NodeClass.PATH_INNER)
    GRID = {"n": (4, 40)}

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise FamilyParameterError(f"path requires n >= 2, got n={self.n}")

    def build(self):
        edges = [(i, i + 1) for i in range(self.n - 1)]
        classes = [NodeClass.PATH_INNER] * self.n
        classes[0] = classes[-1] = NodeClass.PATH_END
        return edges, classes


@dataclass(frozen=True)
class CometSpec(FamilySpec):
    """Star with s leaves whose center closes one end of a handle of t nodes."""

    NAME, ABBREV = "comet", "C"
    ROLES = (
        NodeClass.COMET_PATH_END,
        NodeClass.COMET_PATH_INNER,
        NodeClass.COMET_CENTER,
        NodeClass.COMET_STAR_LEAF,
    )
    GRID = {"s": (3, 10), "t": (4, 12)}

    s: int
    t: int

    def __post_init__(self):
        if self.s < 1:
            raise FamilyParameterError(f"comet requires s >= 1, got s={self.s}")
        if self.t < 1:
            raise FamilyParameterError(f"comet requires t >= 1, got t={self.t}")

    @property
    def order(self) -> int:
        return self.s + self.t

    def build(self):
        s, t = self.s, self.t
        center = t - 1
        edges = [(i, i + 1) for i in range(t - 1)]
        edges += [(center, t + j) for j in range(s)]
        classes = [NodeClass.COMET_PATH_INNER] * t + [NodeClass.COMET_STAR_LEAF] * s
        classes[center] = NodeClass.COMET_CENTER
        if t >= 2:
            classes[0] = NodeClass.COMET_PATH_END
        return edges, classes


@dataclass(frozen=True)
class DoubleCometSpec(FamilySpec):
    """Path of n-a-b nodes with a pendants on one end and b on the other."""

    NAME, ABBREV = "double_comet", "DC"
    ROLES = (
        NodeClass.DC_LEAF_A,
        NodeClass.DC_LEAF_B,
        NodeClass.DC_END_A,
        NodeClass.DC_END_B,
        NodeClass.DC_INNER,
    )
    GRID = {"a": (2, 6), "b": (2, 6), "k": (4, 10)}
    GRID_HELP = {"k": "connecting path length"}

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1:
            raise FamilyParameterError(f"double comet requires a >= 1, got a={self.a}")
        if self.b < 1:
            raise FamilyParameterError(f"double comet requires b >= 1, got b={self.b}")
        if self.n - self.a - self.b < 2:
            raise FamilyParameterError(
                f"double comet requires n - a - b >= 2, got {self.n - self.a - self.b}"
            )

    @classmethod
    def from_grid(cls, a: int, b: int, k: int) -> DoubleCometSpec:
        return cls(n=a + b + k, a=a, b=b)

    @property
    def path_len(self) -> int:
        return self.n - self.a - self.b

    def build(self):
        a, b, k = self.a, self.b, self.path_len
        first, last = a + b, self.n - 1
        edges = [(i, first) for i in range(a)]
        edges += [(a + j, last) for j in range(b)]
        edges += [(i, i + 1) for i in range(first, last)]
        classes = (
            [NodeClass.DC_LEAF_A] * a
            + [NodeClass.DC_LEAF_B] * b
            + [NodeClass.DC_INNER] * k
        )
        classes[first] = NodeClass.DC_END_A
        classes[last] = NodeClass.DC_END_B
        return edges, classes


@dataclass(frozen=True)
class LollipopSpec(FamilySpec):
    """Complete graph on n-d nodes with a tail of d nodes hanging off it."""

    NAME, ABBREV = "lollipop", "L"
    ROLES = (
        NodeClass.LP_PATH_END,
        NodeClass.LP_PATH_INNER,
        NodeClass.LP_JUNCTION,
        NodeClass.LP_CLIQUE,
    )
    GRID = {"d": (4, 12), "nd": (2, 8)}
    GRID_HELP = {"nd": "clique size"}

    n: int
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise FamilyParameterError(f"lollipop requires d >= 2, got d={self.d}")
        if self.n - self.d < 1:
            raise FamilyParameterError(
                f"lollipop requires n - d >= 1, got {self.n - self.d}"
            )

    @classmethod
    def from_grid(cls, d: int, nd: int) -> LollipopSpec:
        return cls(n=d + nd, d=d)

    @property
    def size(self) -> int:
        clique = self.n - self.d
        return self.n - 1 + clique * (clique - 1) // 2

    def build(self):
        d, m = self.d, self.n - self.d
        junction = d - 1
        edges = [(i, i + 1) for i in range(d - 1)]
        edges += [(junction, d + j) for j in range(m)]
        edges += [(d + i, d + j) for i in range(m) for j in range(i + 1, m)]
        classes = [NodeClass.LP_PATH_INNER] * d + [NodeClass.LP_CLIQUE] * m
        classes[0] = NodeClass.LP_PATH_END
        classes[junction] = NodeClass.LP_JUNCTION
        return edges, classes


FAMILIES: dict[str, type[FamilySpec]] = {
    cls.NAME: cls for cls in (PathSpec, CometSpec, DoubleCometSpec, LollipopSpec)
}


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    classes: tuple[NodeClass, ...]
    spec: FamilySpec


def generate(spec: FamilySpec) -> LabeledGraph:
    """Build the graph for a family spec with one role label per node."""
    if not isinstance(spec, FamilySpec):
        raise TypeError(f"not a family spec: {spec!r}")
    edges, classes = spec.build()
    return LabeledGraph(
        graph=from_edge_list(edges, n=spec.order),
        classes=tuple(classes),
        spec=spec,
    )


def class_of(lg: LabeledGraph, v: int) -> NodeClass:
    """Role of node v in the labeled graph."""
    if not 0 <= v < lg.graph.n:
        raise IndexError(f"node {v} out of range for graph of order {lg.graph.n}")
    return lg.classes[v]


_FAMILY_LINE = re.compile(r"#\s*family\s+(\w+)((?:\s+[a-z]+=\d+)+)\s*$")
_CLASS_LINE = re.compile(r"#\s*class\s+(\d+)\s+(\S+)\s*$")
_FIELD = re.compile(r"([a-z]+)=(\d+)")


def _spec_from_fields(name: str, values: dict[str, int]) -> FamilySpec:
    if name not in FAMILIES:
        raise EdgeListError(f"unknown family {name!r}")
    cls = FAMILIES[name]
    try:
        return cls(**{f.name: values.pop(f.name) for f in fields(cls)})
    except KeyError as missing:
        raise EdgeListError(f"family {name} is missing parameter {missing}") from None


def write_labeled(lg: LabeledGraph) -> str:
    """Serialize graph, spec and per-node classes as a commented edge list."""
    lines = [f"# family {lg.spec.comment_fields()}"]
    lines += [f"# class {v} {c.value}" for v, c in enumerate(lg.classes)]
    return "".join(line + "\n" for line in lines) + to_edge_list(lg.graph)


def scan_class_comments(text: str) -> dict[int, str]:
    """Collect "# class <id> <label>" lines; labels are kept as raw strings."""
    classes: dict[int, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = _CLASS_LINE.match(raw.strip())
        if not m:
            continue
        v = int(m.group(1))
        if v in classes:
            raise EdgeListError(f"repeated class comment for node {v}", line=line_no)
        classes[v] = m.group(2)
    return classes


def read_labeled(text: str) -> LabeledGraph:
    """Parse a labeled edge list written by write_labeled.

    Requires a family line and a class line for every node; class
    multiplicities must match what the spec generates.
    """
    spec: FamilySpec | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = _FAMILY_LINE.match(raw.strip())
        if m:
            if spec is not None:
                raise EdgeListError("second '# family' line", line=line_no)
            fields = {key: int(val) for key, val in _FIELD.findall(m.group(2))}
            spec = _spec_from_fields(m.group(1), fields)
    if spec is None:
        raise EdgeListError("missing '# family' line")
    g = parse_edge_list(text)
    if g.n != spec.order:
        raise EdgeListError(f"graph order {g.n} does not match family order {spec.order}")
    raw_classes = scan_class_comments(text)
    classes = []
    for v in range(g.n):
        if v not in raw_classes:
            raise EdgeListError(f"missing class comment for node {v}")
        label = raw_classes[v]
        if label not in _CLASS_BY_LABEL:
            raise EdgeListError(f"unknown node class {label!r}")
        classes.append(_CLASS_BY_LABEL[label])
    expected = sorted(c.value for c in generate(spec).classes)
    if sorted(c.value for c in classes) != expected:
        raise EdgeListError("class multiplicities do not match the family spec")
    return LabeledGraph(graph=g, classes=tuple(classes), spec=spec)
