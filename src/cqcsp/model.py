"""Core domain types: finite relational templates, counting-quantifier
sentences, the template-family generators, and one graph view shared by
templates and sentences' instance graphs.

Conventions kept throughout the package:

* domain elements are the contiguous integers ``0..n-1``;
* undirected graphs are stored as symmetric sets of directed pairs, and
  the generators always emit both orientations;
* cycle vertices are numbered so that ``i`` and ``j`` are adjacent iff
  ``|i-j|`` is 1 or ``n-1``; the star centre is vertex 0.

Structures, template families and graph views are immutable, so what is
derived from one alone is computed once per instance and stored on it
(``once_per_instance``): a family's template, a structure's canonical
form and graph view, and the view's facts (components, two-colouring, the
shape tests, girth and diameter).  The facts are returned as tuples or
scalars, so no caller can alter them.

``Record`` is the package's only record base: no dataclass, ``namedtuple``
or ``Enum``.  Importing ``dataclasses`` (with the ``inspect`` it loads),
``collections`` or ``enum``, and building each class with them, cost more
than the rest of the package's start-up; for the same reason the package
reads its text with ``str`` methods, not ``re``.
"""

from __future__ import annotations

import itertools
from operator import attrgetter


class InvalidStructureError(ValueError):
    """A structure, sentence or family parameter violates an invariant."""


def once_per_instance(fn: Callable[[object], object]) -> Callable[[object], object]:
    """Run ``fn`` -- a one-argument function of an immutable object, or a
    method without parameters -- at most once per object, storing the
    result (None included) in the object's ``__dict__``, which a frozen
    ``Record`` leaves writable.  An exception is not stored."""
    key = "_once_" + fn.__qualname__

    def cached(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            value = obj.__dict__[key] = fn(obj)
            return value

    cached.__module__ = fn.__module__
    cached.__name__ = fn.__name__
    cached.__qualname__ = fn.__qualname__
    cached.__doc__ = fn.__doc__
    cached.__wrapped__ = fn
    return cached


class Record:
    """Base of the package's immutable records.  A subclass names its
    fields in ``_fields`` and sets each once in ``__init__`` through
    ``object.__setattr__``.  Two records are equal when they are of the
    same class with equal fields, a record hashes as the tuple of its
    fields, and assigning or deleting an attribute raises
    AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # ``_key(record)``, the field tuple, read by attrgetter in one call
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:
            get = attrgetter(cls._fields[0])
            cls._key = staticmethod(lambda record: (get(record),))
        elif cls._fields:
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


Atom = tuple[str, tuple[str, ...]]


class Signature(Record):
    """Relation names with arities. Names are unique, arities >= 1."""

    _fields = ("relations",)

    def __init__(self, relations: tuple[tuple[str, int], ...]) -> None:
        object.__setattr__(self, "relations", relations)
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise InvalidStructureError("duplicate relation name in signature")
        for name, arity in self.relations:
            if arity < 1:
                raise InvalidStructureError(f"relation {name!r}: arity must be >= 1")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise KeyError(name)


GRAPH_SIGNATURE = Signature((("E", 2),))


class Structure(Record):
    """A finite relational structure over ``0..domain_size-1``.

    Equality is by canonical sorted-tuple form, so two structures built in
    different tuple orders compare equal.
    """

    def __init__(
        self,
        signature: Signature,
        domain_size: int,
        relations: dict[str, frozenset[tuple[int, ...]]],
    ) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "relations", relations)
        if self.domain_size < 1:
            raise InvalidStructureError("domain size must be positive")
        if set(self.relations) != set(self.signature.names()):
            raise InvalidStructureError("relation map does not match signature")
        for name, tuples in self.relations.items():
            arity = self.signature.arity(name)
            for t in tuples:
                if len(t) != arity:
                    raise InvalidStructureError(
                        f"tuple {t} has wrong arity for relation {name!r}"
                    )
                for entry in t:
                    if not 0 <= entry < self.domain_size:
                        raise InvalidStructureError(
                            f"element {entry} out of range in relation {name!r}"
                        )

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]

    @once_per_instance
    def canonical_form(self):
        """The sorted form that ``==`` and ``hash`` read; computed once."""
        return (
            self.domain_size,
            tuple(sorted(self.signature.relations)),
            tuple(sorted((name, tuple(sorted(ts))) for name, ts in self.relations.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{len(ts)}" for n, ts in sorted(self.relations.items()))
        return f"Structure(n={self.domain_size}, {rels})"


def make_structure(
    relation_arities: Sequence[tuple[str, int]],
    domain_size: int,
    relations: dict[str, Iterable[tuple[int, ...]]],
) -> Structure:
    sig = Signature(tuple(relation_arities))
    rels = {name: frozenset(tuple(t) for t in relations.get(name, ())) for name in sig.names()}
    return Structure(sig, domain_size, rels)


def graph_structure(
    domain_size: int,
    undirected_edges: Iterable[tuple[int, int]],
    loops: Iterable[int] = (),
) -> Structure:
    """Graph template over the single binary symbol E; both orientations."""
    tuples: set[tuple[int, int]] = set()
    for a, b in undirected_edges:
        tuples.add((a, b))
        tuples.add((b, a))
    for v in loops:
        tuples.add((v, v))
    return make_structure([("E", 2)], domain_size, {"E": tuples})


# ---------------------------------------------------------------------------
# Sentences


def is_identifier(text: str) -> bool:
    """Is ``text`` a variable or relation name: an ASCII letter or ``_``,
    then ASCII letters, digits, ``_`` and ``~``?  The sentence text format
    reads the same rule."""
    if text.isidentifier() and text.isascii():
        return True  # the common case: no ``~``
    return text.isascii() and text[:1] != "~" and text.replace("~", "_").isidentifier()


def is_number(text: str) -> bool:
    """Is ``text`` a run of ASCII digits?  ``str.isdigit`` alone also
    accepts other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def _spec_int(text: str) -> int:
    """``int(text)`` for ASCII digits with an optional leading ``-`` and the
    surrounding whitespace ``int`` reads; whatever else ``int`` reads
    (``1_0``, ``+3``, other scripts' digits) raises ValueError."""
    body = text.strip()
    if not is_number(body[1:] if body[:1] == "-" else body):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


class Quantifier(Record):
    """One prefix entry.  ``threshold=None`` is the for-all sugar: it
    resolves to the template's domain size at solve time."""

    _fields = ("threshold", "variable")

    def __init__(self, threshold: int | None, variable: str) -> None:
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "variable", variable)
        if self.threshold is not None and self.threshold < 1:
            raise InvalidStructureError("quantifier threshold must be >= 1")
        if not is_identifier(self.variable):
            raise InvalidStructureError(f"bad variable name {self.variable!r}")

    def __str__(self) -> str:
        if self.threshold is None:
            return f"A {self.variable}"
        return f"E{self.threshold} {self.variable}"


class Sentence(Record):
    """A prenex sentence: counting-quantifier prefix over a conjunction of
    positive atoms.  Template-independent; thresholds are checked against a
    concrete template only when the sentence is evaluated."""

    _fields = ("prefix", "atoms")

    def __init__(self, prefix: tuple[Quantifier, ...], atoms: tuple[Atom, ...]) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "atoms", atoms)
        seen: set[str] = set()
        for q in self.prefix:
            if q.variable in seen:
                raise InvalidStructureError(f"duplicate prefix variable {q.variable!r}")
            seen.add(q.variable)
        arities: dict[str, int] = {}
        for name, vs in self.atoms:
            if not vs:
                raise InvalidStructureError(f"atom {name!r} has no arguments")
            if arities.setdefault(name, len(vs)) != len(vs):
                raise InvalidStructureError(f"relation {name!r} used with two arities")
            for v in vs:
                if v not in seen:
                    raise InvalidStructureError(f"atom variable {v!r} not bound by the prefix")

    def variables(self) -> tuple[str, ...]:
        return tuple(q.variable for q in self.prefix)

    def var_index(self) -> dict[str, int]:
        return {q.variable: i for i, q in enumerate(self.prefix)}

    def resolved(self, domain_size: int) -> "Sentence":
        """Replace the for-all sugar by the concrete threshold ``domain_size``."""
        if all(q.threshold is not None for q in self.prefix):
            return self
        prefix = tuple(
            Quantifier(domain_size if q.threshold is None else q.threshold, q.variable)
            for q in self.prefix
        )
        return Sentence(prefix, self.atoms)

    def __str__(self) -> str:
        head = " ".join(str(q) for q in self.prefix)
        body = " & ".join(f"{n}({','.join(vs)})" for n, vs in self.atoms)
        return f"{head} | {body}".strip()


def sentence(prefix: Sequence[tuple[int | None, str]], atoms: Sequence[Atom]) -> Sentence:
    return Sentence(
        tuple(Quantifier(j, v) for j, v in prefix),
        tuple((n, tuple(vs)) for n, vs in atoms),
    )


# ---------------------------------------------------------------------------
# Canonical query


def canonical_query(b: Structure) -> Sentence:
    """All variables quantified exists>=1, one atom per tuple of ``b``."""
    names = [f"v{i}" for i in range(b.domain_size)]
    atoms = []
    for rel in b.signature.names():
        for t in sorted(b.tuples(rel)):
            atoms.append((rel, tuple(names[e] for e in t)))
    return sentence([(1, v) for v in names], atoms)


# ---------------------------------------------------------------------------
# Template families


class TemplateFamily(Record):
    """A named template generator with parameters; see the factory helpers."""

    _fields = ("kind", "n", "k", "l", "j", "edges")

    def __init__(
        self,
        kind: str,
        n: int | None = None,
        k: int | None = None,
        l: int | None = None,
        j: int | None = None,
        edges: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "edges", edges)

    def __str__(self) -> str:
        if self.kind not in _FAMILY_KINDS:
            return self.kind
        head, fields, _ = _FAMILY_KINDS[self.kind]
        if fields == "edges":
            body = ",".join(f"{a}-{b}" for a, b in (self.edges or ()))
        else:
            body = ",".join(str(getattr(self, f)) for f in fields)
        return f"{head}:{body}" if fields else head


def clique(n: int) -> TemplateFamily:
    if n < 1:
        raise InvalidStructureError("clique size must be >= 1")
    return TemplateFamily("clique", n=n)


def cycle(n: int) -> TemplateFamily:
    if n < 3:
        raise InvalidStructureError("cycle needs n >= 3")
    return TemplateFamily("cycle", n=n)


def reflexive_cycle(n: int) -> TemplateFamily:
    if n < 3:
        raise InvalidStructureError("reflexive cycle needs n >= 3")
    return TemplateFamily("reflexive_cycle", n=n)


def path(n: int) -> TemplateFamily:
    if n < 1:
        raise InvalidStructureError("path needs n >= 1")
    return TemplateFamily("path", n=n)


def star(n: int) -> TemplateFamily:
    if n < 1:
        raise InvalidStructureError("star needs >= 1 leaf")
    return TemplateFamily("star", n=n)


def complete_bipartite(k: int, l: int) -> TemplateFamily:
    if k < 1 or l < 1:
        raise InvalidStructureError("complete bipartite sides must be >= 1")
    return TemplateFamily("complete_bipartite", k=k, l=l)


def forest_from_edges(edges: Sequence[tuple[int, int]], n: int | None = None) -> TemplateFamily:
    fam = TemplateFamily("forest", n=n, edges=tuple((min(a, b), max(a, b)) for a, b in edges))
    _check_forest(fam)
    return fam


def general_graph(edges: Sequence[tuple[int, int]], n: int | None = None) -> TemplateFamily:
    for a, b in edges:
        if a == b:
            raise InvalidStructureError("general graphs are loop-free")
    return TemplateFamily("graph", n=n, edges=tuple((min(a, b), max(a, b)) for a, b in edges))


def nae_boolean() -> TemplateFamily:
    return TemplateFamily("nae")


def single_quantifier_template(n: int, j: int) -> TemplateFamily:
    if not (3 <= n and 1 < j < n):
        raise InvalidStructureError("single-quantifier template needs n >= 3 and 1 < j < n")
    return TemplateFamily("single_quantifier", n=n, j=j)


def hairy_cycle(n: int) -> TemplateFamily:
    if n < 3:
        raise InvalidStructureError("hairy cycle needs n >= 3")
    return TemplateFamily("hairy", n=n)


def hj_template(j: int) -> TemplateFamily:
    if j < 3:
        raise InvalidStructureError("hj template needs j >= 3")
    return TemplateFamily("hj", j=j)


def _check_forest(fam: TemplateFamily) -> None:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in fam.edges or ():
        if a == b:
            raise InvalidStructureError("forest edge list contains a loop")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise InvalidStructureError("forest edge list contains a cycle")
        parent[ra] = rb


@once_per_instance
def build_template(family: TemplateFamily) -> Structure:
    """Materialise a family with the package's vertex-numbering
    conventions; built once per family instance."""
    spec = _FAMILY_KINDS.get(family.kind)
    if spec is None:
        raise InvalidStructureError(f"unknown template family {family.kind!r}")
    return spec[2](family)


def _build_clique(family: TemplateFamily) -> Structure:
    return graph_structure(family.n, itertools.combinations(range(family.n), 2))


def _build_cycle(family: TemplateFamily) -> Structure:
    return graph_structure(family.n, _cycle_edges(family.n))


def _build_reflexive_cycle(family: TemplateFamily) -> Structure:
    return graph_structure(family.n, _cycle_edges(family.n), loops=range(family.n))


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _build_path(family: TemplateFamily) -> Structure:
    return graph_structure(family.n, [(i, i + 1) for i in range(family.n - 1)])


def _build_star(family: TemplateFamily) -> Structure:
    return graph_structure(family.n + 1, [(0, j) for j in range(1, family.n + 1)])


def _build_complete_bipartite(family: TemplateFamily) -> Structure:
    k, l = family.k, family.l
    return graph_structure(k + l, [(i, k + j) for i in range(k) for j in range(l)])


def _build_edge_list(family: TemplateFamily) -> Structure:
    edges = family.edges or ()
    if family.n is not None:
        n = family.n
    elif edges:
        n = max(max(a, b) for a, b in edges) + 1
    else:
        n = 1
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidStructureError("edge endpoint out of range")
    return graph_structure(n, edges)


def _build_nae(family: TemplateFamily) -> Structure:
    triples = {t for t in itertools.product((0, 1), repeat=3) if t != (0, 0, 0) and t != (1, 1, 1)}
    return make_structure([("R", 3)], 2, {"R": triples})


def _build_single(family: TemplateFamily) -> Structure:
    n, j = family.n, family.j
    if j <= n // 2:
        # low threshold: drop every triple whose entries share a parity
        def dropped(t: tuple[int, int, int]) -> bool:
            return len({e % 2 for e in t}) == 1
    else:
        # high threshold: only entries <= n - j can act as truth values
        def dropped(t: tuple[int, int, int]) -> bool:
            return all(e <= n - j for e in t) and len({e % 2 for e in t}) == 1

    triples = {t for t in itertools.product(range(n), repeat=3) if not dropped(t)}
    return make_structure([("U", 1), ("R", 3)], n, {"U": {(u,) for u in range(j)}, "R": triples})


def _build_hairy(family: TemplateFamily) -> Structure:
    n = family.n
    edges = _cycle_edges(n)
    for i in range(n):
        edges.append((i, n + 2 * i))
        edges.append((i, n + 2 * i + 1))
    return graph_structure(3 * n, edges)


def _build_hj(family: TemplateFamily) -> Structure:
    j = family.j
    edges = _cycle_edges(6)
    for a in range(j - 3):
        apex = 6 + a
        edges.extend([(apex, 1), (apex, 3), (apex, 5)])
    return graph_structure(6 + (j - 3), edges)


# spec head -> (kind, the parameters the spec lists in order, factory,
# builder of the family's template)
_FAMILY_SPECS = {
    "clique": ("clique", ("n",), clique, _build_clique),
    "cycle": ("cycle", ("n",), cycle, _build_cycle),
    "reflexive-cycle": ("reflexive_cycle", ("n",), reflexive_cycle, _build_reflexive_cycle),
    "path": ("path", ("n",), path, _build_path),
    "star": ("star", ("n",), star, _build_star),
    "bipartite": ("complete_bipartite", ("k", "l"), complete_bipartite, _build_complete_bipartite),
    "nae": ("nae", (), nae_boolean, _build_nae),
    "single": ("single_quantifier", ("n", "j"), single_quantifier_template, _build_single),
    "hairy": ("hairy", ("n",), hairy_cycle, _build_hairy),
    "hj": ("hj", ("j",), hj_template, _build_hj),
    "forest": ("forest", "edges", forest_from_edges, _build_edge_list),
    "graph": ("graph", "edges", general_graph, _build_edge_list),
}

# kind -> (spec head, the parameters the spec lists in order, builder)
_FAMILY_KINDS = {
    kind: (head, fields, build) for head, (kind, fields, _, build) in _FAMILY_SPECS.items()
}

_FAMILY_HEAD = "abcdefghijklmnopqrstuvwxyz0123456789*-"


def parse_family_spec(text: str) -> TemplateFamily:
    """Parse CLI family specs such as ``clique:5`` or ``forest:0-1,1-2``."""
    head, colon, arg = text.strip().partition(":")
    # the head is one or more of _FAMILY_HEAD's characters, and the
    # argument is one line
    if not head or head.strip(_FAMILY_HEAD) or "\n" in arg:
        raise InvalidStructureError(f"bad family spec {text!r}")
    if not colon:
        arg = None

    def ints(expect: int) -> list[int]:
        if arg is None:
            raise InvalidStructureError(f"family {head!r} needs parameters")
        parts = arg.split(",")
        if len(parts) != expect:
            raise InvalidStructureError(f"family {head!r} expects {expect} parameter(s)")
        try:
            return [_spec_int(p) for p in parts]
        except ValueError:
            raise InvalidStructureError(f"bad integer in family spec {text!r}") from None

    def edge_list() -> list[tuple[int, int]]:
        if not arg:
            return []
        out = []
        for part in arg.split(","):
            bits = part.split("-")
            if len(bits) != 2:
                raise InvalidStructureError(f"bad edge {part!r} in family spec")
            try:
                out.append((_spec_int(bits[0]), _spec_int(bits[1])))
            except ValueError:
                raise InvalidStructureError(f"bad edge {part!r} in family spec") from None
        return out

    if head not in _FAMILY_SPECS:
        raise InvalidStructureError(f"unknown family {head!r}")
    _, fields, factory, _ = _FAMILY_SPECS[head]
    if fields == "edges":
        return factory(edge_list())
    return factory(*ints(len(fields))) if fields else factory()


# ---------------------------------------------------------------------------
# Fragments


class ThresholdSet(Record):
    """The fragment whose prefixes use exactly the thresholds in X."""

    _fields = ("thresholds",)

    def __init__(self, thresholds: frozenset[int]) -> None:
        object.__setattr__(self, "thresholds", thresholds)
        if not self.thresholds:
            raise InvalidStructureError("threshold set must be nonempty")
        if any(j < 1 for j in self.thresholds):
            raise InvalidStructureError("thresholds must be >= 1")

    def __str__(self) -> str:
        return "X=" + ",".join(str(j) for j in sorted(self.thresholds))


class BoundedPrefix(Record):
    """The fragment with at most m threshold-2 quantifiers followed by
    plain existentials."""

    _fields = ("m",)

    def __init__(self, m: int) -> None:
        object.__setattr__(self, "m", m)
        if self.m < 0:
            raise InvalidStructureError("prefix bound must be >= 0")

    def __str__(self) -> str:
        return f"prefix=2^{self.m}1*"


FragmentSpec = ThresholdSet | BoundedPrefix


def threshold_set(*thresholds: int) -> ThresholdSet:
    return ThresholdSet(frozenset(thresholds))


def parse_fragment_spec(text: str) -> FragmentSpec:
    """Parse CLI fragment specs: ``X=1,2`` or ``prefix=2^3 1*``."""
    body = text.strip()
    if body.startswith("X="):
        try:
            values = frozenset(_spec_int(p) for p in body[2:].split(","))
        except ValueError:
            raise InvalidStructureError(f"bad threshold set {text!r}") from None
        return ThresholdSet(values)
    if body.startswith("prefix=2^"):
        # ``2^<m>``, then optionally whitespace and ``1*``: the form that
        # ``str(BoundedPrefix(m))`` writes, where ``2^31*`` reads m = 3
        bound = body[9:]
        if bound.endswith("1*"):
            bound = bound[:-2].rstrip()
        if is_number(bound):
            return BoundedPrefix(int(bound))
    raise InvalidStructureError(f"bad fragment spec {text!r}")


# ---------------------------------------------------------------------------
# Graphs: templates and sentences' matrices (read by the deciders,
# the classifier and the reductions)


class GraphView(Record):
    """A symmetric graph on vertices ``0..n-1``: a template with one
    symmetric binary relation (``graph_view``) or a sentence's matrix over
    one binary symbol (``instance_graph``, whose vertices are the prefix
    positions).  ``adj`` holds one neighbour set per vertex, loops left
    out; ``loops`` the looped vertices; ``relation`` the symbol, None for
    an empty matrix.  The facts marked ``once_per_instance`` are computed
    at most once per view."""

    _fields = ("n", "adj", "loops", "relation")

    def __init__(
        self,
        n: int,
        adj: tuple[frozenset[int], ...],
        loops: frozenset[int],
        relation: str | None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "relation", relation)

    @once_per_instance
    def components(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def distances_from(self, source: int) -> dict[int, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    def predecessors(self, i: int) -> list[int]:
        """The neighbours of vertex ``i`` below ``i``, ascending: in an
        instance graph, its earlier-quantified neighbours."""
        return sorted(v for v in self.adj[i] if v < i)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @once_per_instance
    def bipartition(self) -> tuple[int, ...] | None:
        """Colour classes, or None if the graph has a loop or odd cycle."""
        if self.loops:
            return None
        colors = [-1] * self.n
        for start in range(self.n):
            if colors[start] != -1:
                continue
            colors[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in self.adj[v]:
                    if colors[u] == -1:
                        colors[u] = 1 - colors[v]
                        queue.append(u)
                    elif colors[u] == colors[v]:
                        return None
        return tuple(colors)

    @once_per_instance
    def largest_colour_class(self) -> int:
        """The most vertices one colour class has inside one component;
        the graph must be bipartite."""
        colors = self.bipartition()
        return max(
            max(sum(1 for v in comp if colors[v] == c) for c in (0, 1))
            for comp in self.components()
        )

    @once_per_instance
    def is_connected(self) -> bool:
        return len(self.components()) == 1

    @once_per_instance
    def is_complete(self) -> bool:
        return not self.loops and all(len(self.adj[v]) == self.n - 1 for v in range(self.n))

    @once_per_instance
    def is_cycle(self) -> bool:
        return (
            self.n >= 3
            and not self.loops
            and self.is_connected()
            and all(len(self.adj[v]) == 2 for v in range(self.n))
        )

    @once_per_instance
    def is_path_graph(self) -> bool:
        if self.loops or not self.is_connected():
            return False
        if self.n == 1:
            return True
        degs = sorted(len(self.adj[v]) for v in range(self.n))
        return degs[0] == 1 and degs[1] == 1 and all(d == 2 for d in degs[2:])

    @once_per_instance
    def is_forest(self) -> bool:
        if self.loops:
            return False
        return self.edge_count() == self.n - len(self.components())

    @once_per_instance
    def complete_bipartite_sides(self) -> tuple[int, int] | None:
        """(k, l) if the graph is a complete bipartite K_{k,l}, else None."""
        if self.loops or not self.is_connected():
            return None
        colors = self.bipartition()
        if colors is None:
            return None
        side = [v for v in range(self.n) if colors[v] == 0]
        other = [v for v in range(self.n) if colors[v] == 1]
        if not side or not other:
            return None
        for v in side:
            if len(self.adj[v]) != len(other):
                return None
        for v in other:
            if len(self.adj[v]) != len(side):
                return None
        return (len(side), len(other))

    @once_per_instance
    def contains_c4(self) -> bool:
        """Does some 4-cycle occur as a (not necessarily induced) subgraph."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                common = (self.adj[u] & self.adj[v]) - {u, v}
                if len(common) >= 2:
                    return True
        return False

    @once_per_instance
    def girth(self) -> int | None:
        """Length of a shortest cycle; None if the graph is a forest.
        A loop counts as girth 1."""
        if self.loops:
            return 1
        best: int | None = None
        for src in range(self.n):
            dist = {src: 0}
            parent = {src: -1}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in self.adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and dist[u] >= dist[v]:
                            length = dist[u] + dist[v] + 1
                            if best is None or length < best:
                                best = length
                frontier = nxt
        return best

    @once_per_instance
    def diameter(self) -> int | None:
        """Max distance over pairs; None when the graph is disconnected."""
        if not self.is_connected():
            return None
        best = 0
        for v in range(self.n):
            best = max(best, max(self.distances_from(v).values()))
        return best


@once_per_instance
def graph_view(b: Structure) -> GraphView | None:
    """View ``b`` as a symmetric graph, or None if it is not one; computed
    once per structure."""
    names = b.signature.names()
    if len(names) != 1 or b.signature.arity(names[0]) != 2:
        return None
    name = names[0]
    tuples = b.tuples(name)
    adj: list[set[int]] = [set() for _ in range(b.domain_size)]
    loops: set[int] = set()
    for a, c in tuples:
        if (c, a) not in tuples:
            return None
        if a == c:
            loops.add(a)
        else:
            adj[a].add(c)
    return GraphView(b.domain_size, tuple(frozenset(s) for s in adj), frozenset(loops), name)


def require_graph(b: Structure) -> GraphView:
    g = graph_view(b)
    if g is None:
        raise InvalidStructureError("template is not a symmetric graph over one binary symbol")
    return g


def instance_graph(s: Sentence) -> GraphView:
    """The graph of ``s``'s matrix, which must use a single binary symbol:
    an atom ``E(x, y)`` joins the positions of x and y, or loops the
    position of x when x is y."""
    names = {name for name, _ in s.atoms}
    if len(names) > 1:
        raise InvalidStructureError("instance graph needs a single relation symbol")
    # a Sentence uses each symbol with one arity, so the first atom speaks for all
    if s.atoms and len(s.atoms[0][1]) != 2:
        raise InvalidStructureError("instance graph needs a binary relation symbol")
    index = s.var_index()
    adj: list[set[int]] = [set() for _ in s.prefix]
    loops: set[int] = set()
    for _, (a, c) in s.atoms:
        i, j = index[a], index[c]
        if i == j:
            loops.add(i)
        else:
            adj[i].add(j)
            adj[j].add(i)
    relation = names.pop() if names else None
    return GraphView(len(adj), tuple(frozenset(a) for a in adj), frozenset(loops), relation)

