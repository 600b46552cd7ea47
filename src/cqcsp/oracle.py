"""Ground-truth evaluation of counting-quantifier sentences.

``evaluate`` implements the recursive counting semantics: at each
quantifier with threshold j it counts the domain elements under which the
rest of the sentence holds and succeeds iff the count reaches j.  Since
every threshold is at least 1, ``E^j x (A(x) & B)`` equals
``(E^j x A(x)) & B`` when x does not occur in B, so the search runs over
the component tree of the prefix (AND/OR search): node q is the component
of position q among the positions >= q, and x_q counts the values under
which every child component holds.  Atoms are checked as soon as their
last variable is assigned, candidate values are prefiltered through
bitmask adjacency for unary/binary atoms, and each node's verdicts are
memoised per assignment of its context -- the earlier positions that share
an atom with its component.  The search is pure, so results are
independent of evaluation order.

Counting quantifiers cannot tell apart values that an automorphism of
the template swaps: if σ is one, B satisfies φ(c) iff it satisfies φ(σc).
Values whose transposition maps every relation onto itself form classes
(``_value_classes``, once per template), and any permutation inside
classes is an automorphism.  On a template with such a class the search
solves each class of interchangeable values once (value
interchangeability, Freuder, AAAI 1991; symmetry in constraint
programming, Gent, Petrie and Puget, 2006): memo keys relabel the
context's values inside each class in order of first occurrence, and the
candidates of x_q outside the context's values that share a class are
decided by their least member, which then counts for the whole class.

Transpositions miss most symmetry: C_n has none, yet its rotations make
it vertex-transitive.  So the orbits of the whole group Aut(B) are found
once per template, and those of the stabiliser Aut(B)_a of a value a when
first needed (``_Automorphisms``: union-find seeded with the classes,
colour refinement, then a capped individualisation-refinement search per
pair of values in one cell; McKay and Piperno, JSC 2014).  A node's
sub-sentence depends only on its context's values, and any automorphism
fixing them maps a solution with x_q = v to one with x_q = σv.  So at a
node with no context the candidates of x_q are grouped by Aut(B)-orbit,
and at a node whose context is one position, holding a, by
Aut(B)_a-orbit, memoised under a's least Aut(B)-image; the least
candidate of a group is searched and counts for all of it.  Subgroup
orbits, as left by a capped search, group just as soundly.  Nodes with
wider contexts keep the class grouping above, or the plain search.
Templates with a trivial group keep the plain search throughout.

∃x∃y ≡ ∃y∃x and ∀x∀y ≡ ∀y∀x, while ∃^{≥j} with 1<j<n does not commute.
So ``evaluate`` searches each maximal run of threshold-1 positions, and
each of threshold-n positions, in maximum-cardinality order
(``_commuting_order``, at compile time, from the atoms' index tuples):
the next position is the one sharing an atom with the most positions
already placed, ties going to the lower position, which keeps the search
next to assigned neighbours (the width of an ordering, Freuder, JACM
1982; AND/OR search over pseudo-trees, Dechter and Mateescu, AIJ 2007).
A chain keeps its order.  ``extract_strategy`` always searches in prefix
order, the order canonical trees are defined in.

Search and extraction keep their state on explicit stacks, so the depth of
a component tree is limited by the node budget alone, not by the
interpreter's recursion limit.

``extract_strategy`` returns the canonical witness-strategy tree (offered
sets are the smallest winning elements), and ``verify_strategy`` replays
every adversary play of a given tree.  The search above is the package's
only search: no decider in ``fastpath`` keeps one of its own.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .model import Record, Sentence, Structure, once_per_instance

DEFAULT_NODE_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The search used more nodes than the configured budget."""

    def __init__(self, nodes: int) -> None:
        super().__init__(f"node budget exceeded after {nodes} nodes")
        self.nodes = nodes


class ThresholdError(ValueError):
    """A threshold falls outside 1..|B|, where the logic is undefined."""


class SignatureError(ValueError):
    """Sentence atoms do not match the template's signature."""


class StrategyShapeError(ValueError):
    """A strategy tree does not structurally match the sentence prefix."""


def prefix_thresholds(s: Sentence, n: int) -> list[int]:
    """The thresholds of ``s``'s prefix with the for-all sugar resolved to
    ``n``; every threshold must lie in 1..n."""
    thresholds = [n if q.threshold is None else q.threshold for q in s.prefix]
    if thresholds and (min(thresholds) < 1 or max(thresholds) > n):
        t, v = next((t, q.variable) for t, q in zip(thresholds, s.prefix) if not 1 <= t <= n)
        raise ThresholdError(f"threshold {t} for {v!r} outside 1..{n}")
    return thresholds


def check_signature(b: Structure, s: Sentence) -> None:
    """Raise SignatureError unless every atom of ``s`` names a relation of
    ``b`` with its arity."""
    arity = dict(b.signature.relations)
    for name, vs in s.atoms:
        if arity.get(name) != len(vs):
            if name not in arity:
                raise SignatureError(f"relation {name!r} not in template signature")
            raise SignatureError(f"relation {name!r} arity mismatch")


class StrategyNode(Record):
    """A witness-strategy tree node: the offered set (ascending) and one
    child per offered element, in the same order.  Leaves are empty nodes
    at depth equal to the prefix length."""

    _fields = ("offer", "children")

    def __init__(
        self, offer: tuple[int, ...] = (), children: tuple[StrategyNode, ...] = ()
    ) -> None:
        object.__setattr__(self, "offer", offer)
        object.__setattr__(self, "children", children)

    # A tree is as deep as its sentence's prefix, so ``==``, ``hash`` and
    # ``repr`` walk explicit stacks rather than recurse once per level; each
    # gives the value the plain record would.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                a.__class__ is not b.__class__
                or a.offer != b.offer
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        """``hash((offer, children))``.  Children are hashed first, bottom
        up, and each node keeps its hash, so every tuple hash reads the
        stored hashes one level down."""
        stack = [self]
        while stack:
            node = stack[-1]
            if "_hash" in node.__dict__:
                stack.pop()
                continue
            pending = [c for c in node.children if "_hash" not in c.__dict__]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                node.__dict__["_hash"] = hash((node.offer, node.children))
        return self.__dict__["_hash"]

    def __repr__(self) -> str:
        parts = []
        stack: list[StrategyNode | str] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            parts.append(f"{item.__class__.__qualname__}(offer={item.offer!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(parts)


LEAF = StrategyNode()


def _value_tables(b: Structure):
    """Per-relation value masks for the unary/binary fast paths."""
    n = b.domain_size
    out_bits: dict[str, list[int]] = {}
    in_bits: dict[str, list[int]] = {}
    loop_bits: dict[str, int] = {}
    unary_bits: dict[str, int] = {}
    for name, arity in b.signature.relations:
        tups = b.tuples(name)
        if arity == 1:
            unary_bits[name] = sum(1 << t[0] for t in tups)
        elif arity == 2:
            out_m = [0] * n
            in_m = [0] * n
            loop_m = 0
            for a, c in tups:
                out_m[a] |= 1 << c
                in_m[c] |= 1 << a
                if a == c:
                    loop_m |= 1 << a
            out_bits[name] = out_m
            in_bits[name] = in_m
            loop_bits[name] = loop_m
    return out_bits, in_bits, loop_bits, unary_bits


@once_per_instance
def _value_classes(b: Structure) -> tuple[tuple[int, ...], ...] | None:
    """The classes of interchangeable values, each ascending, ordered by
    least member, or None when every class is a singleton.

    Values a and c share a class when swapping them maps every relation
    onto itself; only the tuples holding a or c can move.  Swappability is
    transitive, as (a c) = (a b)(b c)(a b), so every permutation inside a
    class is an automorphism.  Two values that share no tuple are swappable
    exactly when blanking each out of its own tuples leaves the same set,
    so those are grouped by that set; only values that share a tuple are
    compared by swapping."""
    n = b.domain_size
    touching: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(n)]
    linked = set()
    for name in b.signature.names():
        for t in b.tuples(name):
            held = sorted(set(t))
            for v in held:
                touching[v].append((name, t))
            linked.update(combinations(held, 2))

    def swappable(a: int, c: int) -> bool:
        if len(touching[a]) != len(touching[c]):
            return False
        swap = {a: c, c: a}
        return all(
            tuple([swap.get(x, x) for x in t]) in b.tuples(name)
            for name, t in touching[a] + touching[c]
        )

    # Union-find over the classes; a root is its class's least value.
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    first: dict[frozenset, int] = {}
    for v in range(n):
        blanked = frozenset(
            (name, tuple([-1 if x == v else x for x in t])) for name, t in touching[v]
        )
        root[v] = first.setdefault(blanked, v)
    for a, c in linked:
        ra, rc = find(a), find(c)
        if ra != rc and swappable(a, c):
            root[max(ra, rc)] = min(ra, rc)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return tuple(map(tuple, classes.values())) if len(classes) < n else None


class _WideContexts(dict):
    """Memo keys and candidate groups for the nodes whose context holds two
    or more positions, on a template with interchangeable values.

    Maps the tuple of a context's values to ``(memo key, groups)``.  The
    key relabels the values inside each class by the class members in
    order of first occurrence: the i-th value of a class to appear becomes
    its i-th member.  ``groups[v]`` is the mask of the candidates that v
    is searched for: v alone when it is one of the context's values, else
    the members of v's class outside them.  The tables are the class
    tables of the template's ``_Automorphisms``."""

    def __init__(self, sym: _Automorphisms) -> None:
        self.orbit = sym.class_mask
        self.members = sym.class_members
        self.groups = sym.wide_groups

    def __missing__(self, values: tuple[int, ...]):
        orbit = self.orbit
        members = self.members
        relabel = [0] * len(orbit)
        taken = 0
        for v in values:
            if not taken >> v & 1:
                relabel[v] = members[v][(taken & orbit[v]).bit_count()]
                taken |= 1 << v
        groups = self.groups.get(taken)
        if groups is None:
            groups = self.groups[taken] = [
                1 << v if taken >> v & 1 else mask & ~taken for v, mask in enumerate(orbit)
            ]
        entry = self[values] = (tuple([relabel[v] for v in values]), groups)
        return entry


# Images one pair search may try before it gives up.
_PAIR_SEARCH_STEPS = 64


class _Automorphisms(dict):
    """The orbits of the template's automorphism group Aut(B) and of the
    stabiliser Aut(B)_a of each value a, as per-value orbit masks.

    Maps ``()`` to ``((), Aut(B) orbit masks)`` and a value a to ``(the
    least member of a's Aut(B)-orbit, Aut(B)_a orbit masks)``; the entry of
    a value is built when it is first read.

    Orbits are found as in individualisation-refinement (McKay and
    Piperno, 2014).  A union-find starts from the classes of
    ``_value_classes`` (for Aut(B)_a, with a taken out), so a clique needs
    no search.  Colour refinement by relation and argument positions, with
    unary relations and repeated arguments (loops) in the first colours,
    splits the values into cells that every automorphism respects.  Each
    value of a cell not yet joined to one of the cell's orbits is then
    tested against each orbit's least member by a depth-first search that
    individualises a value on each side and refines again, until the
    colouring is discrete and read as a permutation, which must map every
    relation onto itself; every automorphism found joins all of its
    cycles.  A pair search tries at most 64 images, each one refinement
    (``_PAIR_SEARCH_STEPS``); a pair that reaches the cap stays apart, and
    the orbits are then those of a subgroup, which group candidates just
    as soundly.  The searches keep explicit stacks, so no recursion
    deepens with |B|.

    The class tables: per value, the mask of its class and the class
    itself, and the ``_WideContexts`` groups per mask of context values (at
    most 2^|B|, shared by every compile); None when no class has two values."""

    def __init__(self, b: Structure, classes) -> None:
        n = self.n = b.domain_size
        self.relations = [b.tuples(name) for name in b.signature.names()]
        self.classes = classes or ()
        self.class_mask = self.class_members = self.wide_groups = None
        if classes is not None:
            self.class_mask = [0] * n
            self.class_members = [()] * n
            for cls in classes:
                mask = sum(1 << v for v in cls)
                for v in cls:
                    self.class_mask[v] = mask
                    self.class_members[v] = cls
            self.wide_groups = {}
        if len(self.classes) == 1:
            # every permutation is an automorphism: no cell to search
            self.base = None
        else:
            # links[w]: (x, (relation, position of x, position of w)) for
            # each tuple holding w and x at two positions; first[v]: the
            # tuples of one value or with v repeated
            links: list[list] = [[] for _ in range(n)]
            first: list[list] = [[] for _ in range(n)]
            for r, tups in enumerate(self.relations):
                for t in tups:
                    for j, w in enumerate(t):
                        for i, x in enumerate(t):
                            if i != j:
                                links[w].append((x, (r, i, j)))
                        if t.index(w) == j and (len(t) == 1 or t.count(w) > 1):
                            first[w].append((r, tuple([i for i, x in enumerate(t) if x == w])))
            self.links = links
            kinds = [tuple(sorted(f)) for f in first]
            ids = {kind: i for i, kind in enumerate(sorted(set(kinds)))}
            col = [ids[kind] for kind in kinds]
            cells: list[set[int]] = [set() for _ in ids]
            for v in range(n):
                cells[col[v]].add(v)
            self._refine(col, cells, list(range(len(cells))))
            self.base = (col, cells)
        orbit = self._orbit_masks(self.base, self.classes)
        self[()] = ((), orbit)
        self.rep = [(mask & -mask).bit_length() - 1 for mask in orbit]

    def __missing__(self, a: int):
        base = self.base and self._individualise(self.base, a)[0]
        seeds = [[v for v in cls if v != a] for cls in self.classes]
        entry = self[a] = (self.rep[a], self._orbit_masks(base, seeds))
        return entry

    def _refine(self, col: list[int], cells: list[set[int]], queue: list[int]) -> list:
        """Split the cells in place until the colouring is equitable: the
        values of a cell hold, per relation and pair of positions, equally
        many tuples whose other position lies in any one cell.  ``queue``
        holds the cells to split by, taken last in first out.  New cells
        are numbered in an order read from cell numbers and counts alone,
        so two colourings related by a bijection are refined alike, and the
        returned trace (each split and the sizes of its parts) is the same
        for both."""
        links = self.links
        trace = []
        queued = set(queue)
        while queue:
            s = queue.pop()
            queued.discard(s)
            counts: dict[int, dict] = {}
            for w in cells[s]:
                for x, k in links[w]:
                    c = counts.get(x)
                    if c is None:
                        c = counts[x] = {}
                    c[k] = c.get(k, 0) + 1
            split: dict[int, dict] = {}
            for x, c in counts.items():
                split.setdefault(col[x], {}).setdefault(tuple(sorted(c.items())), []).append(x)
            for cid in sorted(split):
                members = cells[cid]
                parts = sorted(split[cid].items())
                if len(parts) == 1 and len(parts[0][1]) == len(members):
                    continue
                trace.append((s, cid, len(members), [(sig, len(vs)) for sig, vs in parts]))
                for _, vs in parts:
                    members.difference_update(vs)
                if not members:  # the first part keeps the cell's number
                    members.update(parts.pop(0)[1])
                pieces = [cid]
                for _, vs in parts:
                    new = len(cells)
                    cells.append(set(vs))
                    for v in vs:
                        col[v] = new
                    pieces.append(new)
                if cid not in queued:
                    # the counts towards the largest piece follow from the rest
                    pieces.remove(max(pieces, key=lambda p: len(cells[p])))
                for p in pieces:
                    if p not in queued:
                        queued.add(p)
                        queue.append(p)
        return trace

    def _individualise(self, state, v: int):
        """A copy of the colouring ``state`` with v in a cell of its own,
        refined, and the refinement's trace."""
        col, cells = state
        col = col[:]
        cells = [set(cell) for cell in cells]
        if len(cells[col[v]]) == 1:
            return (col, cells), []
        cells[col[v]].discard(v)
        col[v] = len(cells)
        cells.append({v})
        return (col, cells), self._refine(col, cells, [col[v]])

    def _preserves(self, sigma: list[int]) -> bool:
        return all(tuple([sigma[x] for x in t]) in tups for tups in self.relations for t in tups)

    def _find(self, base, x: int, y: int) -> list[int] | None:
        """An automorphism that respects the colouring ``base`` and maps x
        to y, or None when there is none or the search reaches the cap.
        Depth first: at each level the least value of the left side's
        first cell of two or more is individualised, and each value of
        that cell on the right side is tried in turn."""
        left, trace = self._individualise(base, x)
        right, other = self._individualise(base, y)
        if trace != other:
            return None
        tasks = []  # (left child, its trace, right parent, value to try)
        steps = 0
        while True:
            cells = left[1]
            target = next((c for c, cell in enumerate(cells) if len(cell) > 1), None)
            if target is None:
                sigma = [0] * self.n
                for cell, image in zip(cells, right[1]):
                    sigma[min(cell)] = min(image)
                if self._preserves(sigma):
                    return sigma
            else:
                child, trace = self._individualise(left, min(cells[target]))
                tasks += [(child, trace, right, w) for w in sorted(right[1][target], reverse=True)]
            while True:
                if not tasks or steps == _PAIR_SEARCH_STEPS:
                    return None
                left, trace, parent, w = tasks.pop()
                steps += 1
                right, other = self._individualise(parent, w)
                if trace == other:
                    break

    def _orbit_masks(self, base, seeds) -> list[int]:
        """Per value, the mask of its orbit under the automorphisms found
        that respect the colouring ``base``, starting from the classes in
        ``seeds``."""
        n = self.n
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        def union(a: int, c: int) -> None:
            ra, rc = find(a), find(c)
            if ra != rc:
                root[max(ra, rc)] = min(ra, rc)

        for cls in seeds:
            for v in cls[1:]:
                union(cls[0], v)
        for cell in base[1] if base else ():
            reps: list[int] = []
            for v in sorted(cell):
                if any(find(v) == find(r) for r in reps):
                    continue
                for r in reps:
                    sigma = self._find(base, r, v)
                    if sigma is not None:
                        for x in range(n):
                            union(x, sigma[x])
                        break
                else:
                    reps.append(v)
        masks = [0] * n
        for v in range(n):
            masks[find(v)] |= 1 << v
        return [masks[find(v)] for v in range(n)]


@once_per_instance
def _automorphisms(b: Structure) -> _Automorphisms | None:
    """The template's orbit and class tables, or None when every
    Aut(B)-orbit found is a single value (so no class has two values)."""
    sym = _Automorphisms(b, _value_classes(b))
    return None if all(sym.rep[v] == v for v in range(b.domain_size)) else sym


@once_per_instance
def _template_view(b: Structure):
    """What compiling a sentence reads of the template, gathered on the
    first compile against it: each relation's arity, the value masks of
    ``_value_tables`` and the orbit and class tables of ``_automorphisms``."""
    return dict(b.signature.relations), _value_tables(b), _automorphisms(b)


def _no_context(assign: list[int]) -> tuple:
    return ()


def _commuting_order(thresholds: list[int], n: int, atoms) -> list[int] | None:
    """The order in which to search the prefix positions, or None when it
    is the prefix order.  ``atoms`` gives each atom's tuple of positions.

    A maximal run of equal thresholds 1 (∃) or n (∀) may be searched in any
    order; other thresholds do not commute.  Each run of two or more
    positions is ordered by maximum-cardinality search: the next position
    is the one sharing an atom with the most positions already placed
    (every earlier position counts), ties going to the lower position, so
    a chain keeps its order."""
    if thresholds.count(1) < 2 and thresholds.count(n) < 2:
        return None  # no run can hold two positions
    m = len(thresholds)
    runs = []
    start = 0
    for p in range(1, m + 1):
        if p == m or thresholds[p] != thresholds[start]:
            if p - start > 1 and (thresholds[start] == 1 or thresholds[start] == n):
                runs.append((start, p))
            start = p
    if not runs:
        return None
    # near[p]: mask of the positions sharing an atom with p (p included)
    near = [0] * m
    for idxs in atoms:
        mask = 0
        for p in idxs:
            mask |= 1 << p
        for p in idxs:
            near[p] |= mask
    order = list(range(m))
    moved = False
    for start, end in runs:
        # bucket[w]: mask of the unplaced run positions with w neighbours
        # placed; the next position is the least of the highest bucket
        placed = (1 << start) - 1
        weight = {}
        bucket = [0] * end
        for p in range(start, end):
            w = weight[p] = (near[p] & placed).bit_count()
            bucket[w] |= 1 << p
        top = max(weight.values())
        unplaced = ((1 << end) - 1) ^ placed
        for i in range(start, end):
            while not bucket[top]:
                top -= 1
            low = bucket[top] & -bucket[top]
            bucket[top] ^= low
            unplaced ^= low
            p = low.bit_length() - 1
            if p != i:
                order[i] = p
                moved = True
            rest = near[p] & unplaced
            while rest:
                bit = rest & -rest
                rest ^= bit
                q = bit.bit_length() - 1
                w = weight[q]
                bucket[w] ^= bit
                bucket[w + 1] |= bit
                weight[q] = w + 1
                if w == top:
                    top = w + 1
    return order if moved else None


class _Search:
    """Compiled evaluation state for one (structure, sentence) pair.

    Position q's component tree node is the component of q among the
    positions >= q (two positions are adjacent when they share an atom).
    Its context is the positions < q sharing an atom with its component,
    all of them ancestors of q.  ``probe[q]`` is (the function reading q's
    context from the assignment, q's table, q's memo): the table maps what
    the function reads to q's memo key and the groups x_q's candidates are
    searched in; it is the template's ``_Automorphisms`` at a node whose
    context has no position or one, a ``_WideContexts`` at a wider one on a
    template with interchangeable values, and None where each candidate is
    searched alone and the memo key is what the function reads.
    ``opening[q]`` is (the values allowed at q whatever came before, the
    filters ``(value -> mask table, earlier position)`` of binary atoms
    with q last, q's threshold, q's children in descending order), where
    the children are the least positions of the components left when q is
    removed from its own.  ``frontier[p]`` holds the least positions of the
    components of the positions >= p, in descending order too, and
    ``general[p]`` the atoms of arity 3 or more with p last, checked per
    candidate.

    Positions are numbered in search order: the prefix order, or with
    ``reorder`` the order of ``_commuting_order``.

    The compile reads the template through one view, ``_template_view``,
    built on the first compile against the template and kept with it: the
    arity of each relation, the value masks, the automorphism orbits and
    the class tables.  It reads the thresholds and the variable index in
    one pass over the prefix, checks the signature atom by atom as it
    numbers the atoms' positions, and keeps the positions above and
    before each position as bitmasks.  Nothing of the sentence outlives
    the call.
    """

    def __init__(self, b: Structure, s: Sentence, budget: int | None, *, reorder: bool) -> None:
        arity_of, (out_bits, in_bits, loop_bits, unary_bits), sym = _template_view(b)
        n = b.domain_size
        thresholds = []
        index = {}
        for q in s.prefix:
            t = q.threshold
            if t is None:
                t = n
            elif not 1 <= t <= n:
                prefix_thresholds(s, n)  # raises the ThresholdError
            index[q.variable] = len(thresholds)
            thresholds.append(t)

        m = self.m = len(thresholds)
        self.thresholds = thresholds
        self.budget = DEFAULT_NODE_BUDGET if budget is None else budget
        self.nodes = 0
        self.assign = [0] * m

        atoms = []
        for name, vs in s.atoms:
            if arity_of.get(name) != len(vs):
                check_signature(b, s)  # raises the SignatureError
            atoms.append((name, tuple([index[v] for v in vs])))
        order = _commuting_order(thresholds, n, map(itemgetter(1), atoms)) if reorder else None
        if order is not None:
            place = [0] * m
            for i, p in enumerate(order):
                place[p] = i
            # positions move only inside runs of one threshold, so the
            # thresholds keep their places
            atoms = [(name, tuple([place[i] for i in idxs])) for name, idxs in atoms]

        static_mask = [(1 << n) - 1] * m
        # per position, the binary filters and the wider atoms with it
        # last; a shared empty tuple where none lands
        dyn: list[tuple[tuple[list[int], int], ...]] = [()] * m
        general: list[tuple[tuple[frozenset, tuple[int, ...]], ...]] = [()] * m
        # above[i]: mask of the later positions sharing an atom with i;
        # context[k]: mask of the earlier positions sharing an atom with k,
        # widened below to k's whole component
        above = [0] * m
        context = [0] * m
        for name, idxs in atoms:
            if len(idxs) == 2:
                a, c = idxs
                if a < c:
                    above[a] |= 1 << c
                    context[c] |= 1 << a
                    dyn[c] += ((out_bits[name], a),)
                elif c < a:
                    above[c] |= 1 << a
                    context[a] |= 1 << c
                    dyn[a] += ((in_bits[name], c),)
                else:
                    static_mask[a] &= loop_bits[name]
            elif len(idxs) == 1:
                static_mask[idxs[0]] &= unary_bits[name]
            else:
                mask = 0
                for i in idxs:
                    mask |= 1 << i
                for i in idxs:
                    above[i] |= (mask >> (i + 1)) << (i + 1)
                    context[i] |= mask & ((1 << i) - 1)
                last = max(idxs)
                general[last] += ((b.tuples(name), idxs),)
        self.general = general

        wide = None
        # One backward union-find pass; a set's root is its least position.
        root = list(range(m))
        self.probe = probe = [None] * m
        self.opening = opening = [None] * m
        self.frontier = frontier = [()] * (m + 1)
        for q in range(m - 1, -1, -1):
            ctx = context[q]
            kids = ()
            up = above[q]
            if up:
                # the roots of the components above q that share an atom
                # with q become q's children, and their contexts join q's
                found = 0
                while up:
                    k = (up & -up).bit_length() - 1
                    up &= up - 1
                    while root[k] != k:
                        root[k] = k = root[root[k]]
                    found |= 1 << k
                kids = []
                while found:
                    c = (found & -found).bit_length() - 1
                    found &= found - 1
                    root[c] = q
                    ctx |= context[c]
                    kids.append(c)
                kids = tuple(reversed(kids))
                ctx &= ~(1 << q)
                context[q] = ctx
                frontier[q] = (*[c for c in frontier[q + 1] if c not in kids], q)
            else:
                frontier[q] = frontier[q + 1] + (q,)
            key = _no_context
            table = sym
            if ctx:
                positions = []
                while ctx:
                    positions.append((ctx & -ctx).bit_length() - 1)
                    ctx &= ctx - 1
                key = itemgetter(*positions)
                if len(positions) > 1:
                    if wide is None and sym is not None and sym.class_mask is not None:
                        wide = _WideContexts(sym)
                    table = wide
            probe[q] = (key, table, {})
            opening[q] = (static_mask[q], dyn[q], thresholds[q], kids)

    def _candidates(self, p: int) -> int:
        cand, dyn, _, _ = self.opening[p]
        assign = self.assign
        for table, q in dyn:
            cand &= table[assign[q]]
            if not cand:
                break
        return cand

    def _general_ok(self, p: int) -> bool:
        assign = self.assign
        for tups, idxs in self.general[p]:
            if tuple(assign[i] for i in idxs) not in tups:
                return False
        return True

    def holds_from(self, p: int) -> bool:
        """Does the sentence's suffix from position p hold under the
        current assignment of the positions < p?

        Node q's sub-sentence holds when at least j values of x_q make
        every child component hold.  One loop searches the frontier's
        trees depth first.  The node being searched lives in locals: its
        position q, memo and memo key, its candidates left, the wins it
        still needs and the losses it can still spare, its candidate
        groups, its children, how many of them are left to check for
        x_q's current value, and that value's weight.  A child whose
        verdict is memoised is answered in place; the loop descends into
        any other, pushing the node on an explicit stack, and pops it when
        the child is decided.  Positions increase along a path, so the
        stack holds at most one node per position.  At its bottom lies the
        frontier, as a node that needs one win and spares no loss.
        Children are stored in descending order and read from the end, as
        ``kids[i - 1]``, since a negative index is slower."""
        assign = self.assign
        probe = self.probe
        opening = self.opening
        general = self.general
        budget = self.budget
        nodes = self.nodes
        stack = []
        kids = self.frontier[p]
        q, memo, key, cand, need, spare, groups, i, weight = (
            -1, {}, None, 0, 1, 0, None, len(kids), 1
        )
        while True:
            # x_q's current value holds while each child left holds
            while i:
                c = kids[i - 1]
                keyf, table, cmemo = probe[c]
                if table is None:
                    ckey = keyf(assign)
                    cgroups = None
                else:
                    ckey, cgroups = table[keyf(assign)]
                held = cmemo.get(ckey)
                if not held:
                    break
                i -= 1
            else:
                held = True
            if held is None:
                stack.append((q, memo, key, cand, need, spare, groups, kids, i, weight))
                q = c
                memo = cmemo
                key = ckey
                groups = cgroups
                cand, dyn, need, kids = opening[c]
                for table, r in dyn:
                    cand &= table[assign[r]]
                spare = cand.bit_count() - need
                if spare < 0:
                    memo[key] = held = False
                    q, memo, key, cand, need, spare, groups, kids, i, weight = stack.pop()
            while True:
                if held is not None:
                    # x_q's current value won or lost; is node q decided?
                    if held:
                        need -= weight
                        decided = need <= 0
                    else:
                        spare -= weight
                        decided = spare < 0
                    if decided:
                        memo[key] = held
                        if not stack:
                            self.nodes = nodes
                            return held
                        q, memo, key, cand, need, spare, groups, kids, i, weight = stack.pop()
                        if held:
                            i -= 1
                            break
                        continue
                # the next value of x_q: the least of its group
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    raise BudgetExceededError(nodes)
                low = cand & -cand
                v = assign[q] = low.bit_length() - 1
                if groups is None:
                    cand ^= low
                    weight = 1
                else:
                    low = groups[v] & cand
                    cand ^= low
                    weight = low.bit_count()
                if general[q] and not self._general_ok(q):
                    held = False
                    continue
                i = len(kids)
                break

    def extract(self) -> StrategyNode:
        """The canonical strategy tree, built depth first on an explicit
        stack whose entry p holds position p's winners and the subtrees
        built under them so far; each offer node counts against the node
        budget."""
        m = self.m
        assign = self.assign
        stack: list[tuple[list[int], list[StrategyNode]]] = []
        while True:
            p = len(stack)
            if p < m:
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExceededError(self.nodes)
                j = self.thresholds[p]
                cand = self._candidates(p)
                winners = []
                while cand and len(winners) < j:
                    low = cand & -cand
                    cand ^= low
                    v = assign[p] = low.bit_length() - 1
                    if (not self.general[p] or self._general_ok(p)) and self.holds_from(p + 1):
                        winners.append(v)
                if len(winners) < j:
                    raise AssertionError("extraction entered a losing position")
                stack.append((winners, []))
                assign[p] = winners[0]
                continue
            node = LEAF
            while stack:
                winners, done = stack[-1]
                done.append(node)
                if len(done) < len(winners):
                    assign[len(stack) - 1] = winners[len(done)]
                    break
                stack.pop()
                node = StrategyNode(tuple(winners), tuple(done))
            else:
                return node


def evaluate(b: Structure, s: Sentence, *, budget: int | None = None) -> bool:
    """Does the template satisfy the sentence under counting semantics.

    The search stops with BudgetExceededError after ``budget`` nodes (None:
    ``DEFAULT_NODE_BUDGET``); nothing else sets it."""
    return _Search(b, s, budget, reorder=True).holds_from(0)


def extract_strategy(
    b: Structure, s: Sentence, *, budget: int | None = None
) -> StrategyNode | None:
    """A canonical winning strategy tree, or None on a no-instance.

    At every node the offered set consists of the smallest elements whose
    suffix evaluates true, so extraction is deterministic.  Any valid tree
    is accepted by ``verify_strategy``; this is just one shape.  Search
    nodes and offer nodes share the node budget.
    """
    search = _Search(b, s, budget, reorder=False)
    return search.extract() if search.holds_from(0) else None


def verify_strategy(b: Structure, s: Sentence, w: StrategyNode) -> bool:
    """Replay every adversary play of ``w``; true iff all plays satisfy
    the matrix.  Raises StrategyShapeError when the tree does not match
    the prefix."""
    n = b.domain_size
    thresholds = prefix_thresholds(s, n)
    check_signature(b, s)
    m = len(thresholds)
    index = s.var_index()
    atoms = [(b.tuples(name), tuple(index[v] for v in vs)) for name, vs in s.atoms]
    assign = [0] * m
    # Depth-first in play order; an entry (node, p, v) is node at depth p
    # reached by offering v at depth p - 1.
    stack = [(w, 0, 0)]
    while stack:
        node, p, v = stack.pop()
        if p:
            assign[p - 1] = v
        if p == m:
            if node.offer or node.children:
                raise StrategyShapeError("extra structure below the last quantifier")
            for tups, idxs in atoms:
                if tuple([assign[i] for i in idxs]) not in tups:
                    return False
            continue
        j = thresholds[p]
        if len(node.offer) != j:
            raise StrategyShapeError(
                f"offer of size {len(node.offer)} at depth {p}, threshold {j}"
            )
        if len(set(node.offer)) != j:
            raise StrategyShapeError(f"repeated elements in offer at depth {p}")
        if any(not 0 <= v < n for v in node.offer):
            raise StrategyShapeError(f"offered element out of range at depth {p}")
        if len(node.children) != len(node.offer):
            raise StrategyShapeError(f"child count mismatch at depth {p}")
        stack += [(child, p + 1, v) for v, child in zip(node.offer, node.children)][::-1]
    return True
