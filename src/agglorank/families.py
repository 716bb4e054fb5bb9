"""The family registry: paths, comets, double comets and lollipops.

Each spec class is the one record of what its family is: its name, the
abbreviation its labels use, its roles in verify row order, its default
verify grid (whose lower bounds are the floors of the importance formulas),
how a grid point maps to a spec, its generator, and the paper's importance
orderings between its roles (``expected_order()``, known exceptions
included).  ``FAMILIES`` maps each name to its class; ``generate``, labeled
I/O, ``verify`` and the CLI are all derived from it.  A family's closed forms
are ``closed_forms.phi_<name>`` and ``closed_forms.imc_<name>``, called with
the spec's fields in order, plus ``closed_forms.imc_<name>_<variant>`` for
each further transcription named in ``IMC_VARIANTS``.  A spec's fields are
the names in its class's ``__slots__``: the specs and ``LabeledGraph`` are
frozen records on the value-record base in ``graph`` (``_FrozenRecord``),
so that ``gen`` and ``verify`` load no ``dataclasses``.

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
comment lines on top of the plain edge-list format, and round-trip exactly:
``read_labeled`` accepts only ``generate`` of the family line's spec.
The "# class" scan (``scan_class_comments``, ``check_class_nodes``) lives in
``graph``, so that ``rank`` reads those lines without this module, and is
imported back here under the same names.
"""

from __future__ import annotations

import enum
import re
from typing import ClassVar

from .errors import EdgeListError, FamilyParameterError
from .graph import (_CLASS_LINE, _blocks, _check_node, _edge_lines, _FrozenRecord, _int_field,
                    _matching_lines, check_class_nodes, from_edge_list, parse_edge_list,
                    scan_class_comments)


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


# Nodes plus edges of the largest graph, or grid of graphs, that gen and
# verify build, counted from the specs before anything is allocated; a graph
# at the limit fits in 1 GiB of address space.
MAX_SIZE = 2_000_000

# One expected ordering: imc(role) <relation> imc(role), where the relation is
# ">", "==" or "not >" (a known exception to an ordering that holds elsewhere).
Relation = tuple[NodeClass, str, NodeClass]


def _chain(*roles: NodeClass) -> list[Relation]:
    """Each role outranks the next."""
    return [(upper, ">", lower) for upper, lower in zip(roles, roles[1:])]


class FamilySpec(_FrozenRecord):
    """Base of the family spec classes.

    A subclass names its parameters, in order, in ``__slots__``: they are its
    fields, the closed forms' arguments, the CLI's options and the ``# family``
    line's keys.  It sets ``NAME``, ``ABBREV`` (for ``label()``), ``ROLES`` (the
    verify row order), ``GRID`` (default verify ranges per grid parameter,
    lower bounds being the formula floors) and, where a grid parameter needs
    one, its help text in ``GRID_HELP``; it implements ``build()`` and
    ``expected_order()``.  ``IMC_VARIANTS`` names further transcriptions of
    the importance formulas that verify checks too; a family whose orderings
    have a "not >" exception sets the note verify prints for it in
    ``EXCEPTION_NOTE``.  ``_check()`` refuses a spec outside the family.
    """

    __slots__ = ()

    NAME: ClassVar[str]
    ABBREV: ClassVar[str]
    ROLES: ClassVar[tuple[NodeClass, ...]]
    GRID: ClassVar[dict[str, tuple[int, int]]]
    GRID_HELP: ClassVar[dict[str, str]] = {}
    IMC_VARIANTS: ClassVar[tuple[str, ...]] = ()
    EXCEPTION_NOTE: ClassVar[str]

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
        return self._values()

    def label(self) -> str:
        return f"{self.ABBREV}({','.join(map(str, self.params()))})"

    def comment_fields(self) -> str:
        pairs = map("{}={}".format, self._fields, self.params())
        return " ".join((self.NAME, *pairs))

    def build(self) -> tuple[list[tuple[int, int]], list[NodeClass]]:
        """Edges and one role per node, in the family's numbering."""
        raise NotImplementedError

    def expected_order(self) -> list[Relation]:
        """The paper's importance orderings between roles at this spec."""
        raise NotImplementedError


class PathSpec(FamilySpec):
    NAME, ABBREV = "path", "P"
    ROLES = (NodeClass.PATH_END, NodeClass.PATH_INNER)
    GRID = {"n": (4, 40)}

    __slots__ = ("n",)

    def _check(self):
        if self.n < 2:
            raise FamilyParameterError(f"path requires n >= 2, got n={self.n}")

    def build(self):
        edges = [(i, i + 1) for i in range(self.n - 1)]
        classes = [NodeClass.PATH_INNER] * self.n
        classes[0] = classes[-1] = NodeClass.PATH_END
        return edges, classes

    def expected_order(self):
        return _chain(NodeClass.PATH_INNER, NodeClass.PATH_END)


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

    __slots__ = ("s", "t")

    def _check(self):
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

    def expected_order(self):
        return _chain(NodeClass.COMET_CENTER, NodeClass.COMET_PATH_INNER,
                      NodeClass.COMET_PATH_END, NodeClass.COMET_STAR_LEAF)


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
    IMC_VARIANTS = ("condensed",)

    __slots__ = ("n", "a", "b")

    def _check(self):
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

    def expected_order(self):
        # The end with more pendants comes first and its leaves come last.
        end_a, end_b, leaf_a, leaf_b = (
            NodeClass.DC_END_A, NodeClass.DC_END_B, NodeClass.DC_LEAF_A, NodeClass.DC_LEAF_B)
        if self.a == self.b:
            return [(end_a, "==", end_b), (leaf_a, "==", leaf_b),
                    *_chain(end_a, NodeClass.DC_INNER, leaf_a)]
        if self.b > self.a:
            end_a, end_b, leaf_a, leaf_b = end_b, end_a, leaf_b, leaf_a
        return _chain(end_a, end_b, NodeClass.DC_INNER, leaf_b, leaf_a)


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
    # (n, d) points where clique nodes do not outrank inner tail nodes.
    EXCEPTIONS = {(7, 4), (8, 5)}
    EXCEPTION_NOTE = "clique nodes do not outrank inner tail nodes here"

    __slots__ = ("n", "d")

    def _check(self):
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

    def expected_order(self):
        junction, inner, end, clique = (NodeClass.LP_JUNCTION, NodeClass.LP_PATH_INNER,
                                         NodeClass.LP_PATH_END, NodeClass.LP_CLIQUE)
        # Inner tail nodes outrank a clique of two; a larger one outranks them,
        # except at EXCEPTIONS.
        relation = "not >" if (self.n, self.d) in self.EXCEPTIONS else ">"
        return [(junction, ">", inner), (junction, ">", end), (junction, ">", clique),
                (inner, ">", end), (clique, ">", end),
                (inner, ">", clique) if self.n == self.d + 2 else (clique, relation, inner)]


FAMILIES: dict[str, type[FamilySpec]] = {
    cls.NAME: cls for cls in (PathSpec, CometSpec, DoubleCometSpec, LollipopSpec)
}


class LabeledGraph(_FrozenRecord):
    """A family ``graph``, the tuple of its nodes' roles (``classes``, a
    ``NodeClass`` per node) and the ``spec`` it was generated from."""

    __slots__ = ("graph", "classes", "spec")


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
    _check_node(lg.graph, v)
    return lg.classes[v]


# A whole "# family" line, found as graph._CLASS_LINE finds a "# class" line.
_FAMILY_LINE = re.compile(
    r"^[^\S\n]*#[^\S\n]*family[^\S\n]+(\w+)((?:[^\S\n]+[a-z]+=[0-9]+)+)[^\S\n]*$", re.MULTILINE)
_FIELD = re.compile(r"([a-z]+)=([0-9]+)")


def _spec_from_fields(name: str, text: str) -> FamilySpec:
    # The spec of a "# family" line: each parameter of the family exactly once.
    if name not in FAMILIES:
        raise EdgeListError(f"unknown family {name!r}")
    cls = FAMILIES[name]
    values: dict[str, int] = {}
    for key, value in _FIELD.findall(text):
        if key in values:
            raise EdgeListError(f"family {name} repeats parameter {key!r}")
        values[key] = _int_field(value, f"family {name} parameter {key!r}")
    try:
        spec = {field: values.pop(field) for field in cls._fields}
    except KeyError as missing:
        raise EdgeListError(f"family {name} is missing parameter {missing}") from None
    if values:
        raise EdgeListError(f"family {name} has no parameter {next(iter(values))!r}")
    return cls(**spec)


def write_labeled(lg: LabeledGraph) -> str:
    """Serialize graph, spec and per-node classes as a commented edge list."""
    # One join of the family line and the blocks of class lines and of edges.
    classes = _blocks(f"# class {v} {c.value}\n" for v, c in enumerate(lg.classes))
    return "".join([f"# family {lg.spec.comment_fields()}\n", *classes,
                    *_edge_lines(lg.graph)])


def read_labeled(text: str) -> LabeledGraph:
    """Parse a labeled edge list written by write_labeled.

    Requires one family line, then the edges and node classes of ``generate``
    of its spec, in the family's own numbering; the first difference is named.
    """
    spec: FamilySpec | None = None
    for line_no, m in _matching_lines(_FAMILY_LINE, text):
        if spec is not None:
            raise EdgeListError("second '# family' line", line=line_no)
        spec = _spec_from_fields(m.group(1), m.group(2))
    if spec is None:
        raise EdgeListError("missing '# family' line")
    g = parse_edge_list(text, connected=True)
    if g.n != spec.order:
        raise EdgeListError(f"graph order {g.n} does not match family order {spec.order}")
    lg = generate(spec)
    if g != lg.graph:
        u, v = min(set(g.edges()).symmetric_difference(lg.graph.edges()))
        raise EdgeListError(f"edge {u} {v} is not an edge of {spec.label()}" if v in g.adj[u]
                            else f"edge {u} {v} of {spec.label()} is missing")
    raw_classes = scan_class_comments(text)
    check_class_nodes(raw_classes, g.n)
    for v, node_class in enumerate(lg.classes):
        if v not in raw_classes:
            raise EdgeListError(f"missing class comment for node {v}")
        if raw_classes[v] != node_class.value:
            raise EdgeListError(f"node {v} has class {raw_classes[v]!r}; "
                                f"{spec.label()} gives it {node_class.value!r}")
    return lg
