"""Isomorphism testing and automorphism groups by generator-image backtracking.

Both searches run on Cayley-indexed groups.  A fixed small generating sequence
of the source is found greedily; candidate images in the target are filtered
by element order and conjugacy class size, then each complete tuple of images
is checked by filling the image array along a BFS spanning tree of the source
Cayley graph and verifying every non-tree edge.  That edge check is exact: a
map respecting all Cayley-graph edges is a homomorphism.
"""

from __future__ import annotations

from .cayley import CayleyIndexedGroup, greedy_generating_set, index_group
from .perm import CapExceeded, PermGroup, Permutation, brute_closure, reduce_generators
from .structure import conjugacy_classes

ISO_CAP = 10**4
AUT_CAP = 2000
SUBGROUP_SEARCH_CAP = 10**4


def _bfs_edges(group, gens):
    """Spanning-tree fill order and the full edge list of the Cayley graph on
    the chosen generators.

    Returns (tree, edges): tree is a list of (element, parent, gen) triples in
    BFS order covering all elements; edges lists every (element, gen) pair.
    """
    tree = []
    seen = [False] * group.n
    seen[0] = True
    queue = [0]
    order = [0]
    while queue:
        current = queue.pop(0)
        for g in gens:
            product = group.mult(current, g)
            if not seen[product]:
                seen[product] = True
                tree.append((product, current, g))
                queue.append(product)
                order.append(product)
    edges = [(x, g) for x in order for g in gens]
    return tree, edges


class _CandidateData:
    """An indexed group with its element orders and class sizes, prepared
    once per group for the prescreen and the backtracking run."""

    def __init__(self, group):
        self.group = group
        self.classes = conjugacy_classes(group)
        self.class_size = {}
        for cls in self.classes:
            for x in cls:
                self.class_size[x] = len(cls)
        self.orders = group.element_orders()

    def invariant(self, x):
        return (self.orders[x], self.class_size[x])

    def candidates(self, order, size):
        return [x for x in range(self.group.n) if self.orders[x] == order and self.class_size[x] == size]


def _image_map(source, target, gens, images, tree, edges):
    """Fill the image array along the spanning tree and verify all edges;
    returns the full index map or None."""
    n = source.n
    img = [-1] * n
    img[0] = 0
    assignment = dict(zip(gens, images))
    for element, parent, gen in tree:
        img[element] = target.mult(img[parent], assignment[gen])
    # bijectivity
    if len(set(img)) != n:
        return None
    # every Cayley edge must commute with the map
    for element, gen in edges:
        if img[source.mult(element, gen)] != target.mult(img[element], assignment[gen]):
            return None
    return img


def _word_relations(group, gens):
    """Words of length 2 and 3 in the generators with their element orders,
    used as cheap necessary conditions on candidate image tuples."""
    words = []
    for length in (2, 3):
        for word in _words_over(len(gens), length):
            element = 0
            for k in word:
                element = group.mult(element, gens[k])
            words.append((word, group.element_order(element)))
    return words


def _words_over(ngens, length):
    if length == 0:
        yield ()
        return
    for rest in _words_over(ngens, length - 1):
        for k in range(ngens):
            yield rest + (k,)


def _search(source_data, target_data):
    """Backtracking over generator images; yields full image maps."""
    source, target = source_data.group, target_data.group
    gens, _ = greedy_generating_set(source)
    if not gens:
        if target.n == 1:
            yield [0]
        return
    tree, edges = _bfs_edges(source, gens)
    candidate_lists = []
    for g in gens:
        order, size = source_data.invariant(g)
        candidates = target_data.candidates(order, size)
        if not candidates:
            return
        candidate_lists.append(candidates)

    partial_orders = _partial_subgroup_orders(source, gens)
    relations = _word_relations(source, gens)
    target_orders = target.element_orders()

    def relations_hold(chosen):
        level = len(chosen)
        for word, order in relations:
            if any(k >= level for k in word):
                continue
            element = 0
            for k in word:
                element = target.mult(element, chosen[k])
            if target_orders[element] != order:
                return False
        return True

    def extend(level, chosen):
        if level == len(gens):
            img = _image_map(source, target, gens, chosen, tree, edges)
            if img is not None:
                yield img
            return
        last = level == len(gens) - 1
        for candidate in candidate_lists[level]:
            chosen.append(candidate)
            # word orders are a cheap necessary filter; the subgroup-order
            # check is the strong prune for intermediate levels (at the last
            # level the bijectivity check in _image_map subsumes it)
            if relations_hold(chosen) and (
                last or len(target.subgroup_indices(chosen)) == partial_orders[level]
            ):
                yield from extend(level + 1, chosen)
            chosen.pop()

    yield from extend(0, [])


def _partial_subgroup_orders(group, gens):
    return [len(group.subgroup_indices(gens[: i + 1])) for i in range(len(gens))]


class Isomorphism:
    """An isomorphism between two indexed groups, as an index map."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = list(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def verify(self) -> bool:
        src, dst, img = self.source, self.target, self.mapping
        if sorted(img) != list(range(src.n)):
            return False
        return all(
            img[src.mult(a, b)] == dst.mult(img[a], img[b])
            for a in range(src.n)
            for b in range(src.n)
        )

    def as_json(self):
        return list(self.mapping)


def _indexed(group):
    return index_group(group) if isinstance(group, PermGroup) else group


def _order(group) -> int:
    return group.order() if isinstance(group, PermGroup) else group.n


def are_isomorphic(g, h):
    """An Isomorphism g -> h, or None (definitive at these sizes).  Each
    argument is a PermGroup or an already-indexed group."""
    order = _order(g)
    if order != _order(h):
        return None
    if order > ISO_CAP:
        raise CapExceeded("isomorphism cap %d exceeded: order %d" % (ISO_CAP, order))
    gi, hi = _indexed(g), _indexed(h)
    if sorted(gi.element_orders()) != sorted(hi.element_orders()):
        return None
    g_data, h_data = _CandidateData(gi), _CandidateData(hi)
    if sorted(map(len, g_data.classes)) != sorted(map(len, h_data.classes)):
        return None
    for mapping in _search(g_data, h_data):
        return Isomorphism(gi, hi, mapping)
    return None


def automorphisms(indexed):
    """All automorphisms of an indexed group, as sorted index-map tuples."""
    if indexed.n > AUT_CAP:
        raise CapExceeded("automorphism cap %d exceeded: order %d" % (AUT_CAP, indexed.n))
    data = _CandidateData(indexed)
    return sorted(tuple(m) for m in _search(data, data))


def automorphism_group_of(maps) -> PermGroup:
    """Aut(G) on element indices, from the sorted list of all its index maps
    (see automorphisms), whose first entry is the identity."""
    if len(maps) == 1:
        return PermGroup.trivial(len(maps[0]))
    gens = reduce_generators((Permutation(m) for m in maps[1:]), len(maps))
    group = PermGroup(gens, degree=len(maps[0]))
    if group.order() != len(maps):
        raise AssertionError("automorphism generators lost elements")
    return group


def automorphism_group(g) -> PermGroup:
    """Aut(G) as a permutation group on the element indices of index_group(G)."""
    return automorphism_group_of(automorphisms(_indexed(g)))


def inner_automorphism_group(indexed: CayleyIndexedGroup) -> PermGroup:
    """Inn(G) on element indices (conjugation by each generator)."""
    gens = []
    for g in indexed.generator_indices():
        images = [indexed.conj(g, x) for x in range(indexed.n)]
        perm = Permutation(images)
        if not perm.is_identity():
            gens.append(perm)
    if not gens:
        return PermGroup.trivial(indexed.n)
    return PermGroup(gens, degree=indexed.n)


def find_isomorphic_subgroup(group: PermGroup, target: PermGroup):
    """The first subgroup <u, v> of group isomorphic to target, or None.

    u runs over the elements of the largest element order of target and v
    over the non-identity elements whose order occurs in target, both in
    group.elements() order (desk scale; 2-generated targets only).
    """
    order = target.order()
    if group.order() % order:
        return None
    elements = group.elements(cap=SUBGROUP_SEARCH_CAP)
    target_orders = sorted({g.order() for g in target.elements(cap=SUBGROUP_SEARCH_CAP)})
    firsts = [x for x in elements if x.order() == target_orders[-1]]
    seconds = [x for x in elements if x.order() in target_orders and not x.is_identity()]
    for u in firsts:
        for v in seconds:
            closure = brute_closure([u.images, v.images], cap=order)
            if closure is not None and len(closure) == order:
                candidate = PermGroup([u, v], degree=group.degree)
                if are_isomorphic(candidate, target) is not None:
                    return candidate
    return None
