"""Isomorphism testing and automorphism groups by generator-image backtracking.

Both searches run on Cayley-indexed groups.  A fixed small generating sequence
of the source is found greedily; candidate images in the target are filtered
by element order and conjugacy class size, then each complete tuple of images
is checked by filling the image array along a BFS spanning tree of the source
Cayley graph and verifying every non-tree edge.  That edge check is exact: a
map respecting all Cayley-graph edges is a homomorphism.

An isomorphism test takes the first map of the full search.  Aut(G) is not
found map by map: the greedy generators are a base for Aut(G) acting on
element indices, and a base-image search (Sims' method) finds one strong
generator per new orbit point, level by level, each by a search with the
images of the earlier generators fixed.  |Aut(G)| is the product of the
orbit lengths, known before anything is listed, and the list of all maps is
the set of products of the level transversals.
"""

from __future__ import annotations

import math
import weakref

from .cayley import CayleyIndexedGroup, greedy_generating_set, index_group
from .perm import (
    ELEMENTS_CAP,
    CapExceeded,
    PermGroup,
    Permutation,
    brute_closure,
    tidentity,
    tmul,
)
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


class _Search:
    """Backtracking over generator images from one indexed group onto another.

    The state that depends only on the pair of groups (the greedy generators
    of the source, the BFS tree and edges, the word relations, the partial
    subgroup orders and the candidate lists) is built once, so one instance
    serves every prefix search of the automorphism chain.
    """

    def __init__(self, source_data, target_data):
        self.source, self.target = source_data.group, target_data.group
        self.gens, _ = greedy_generating_set(self.source)
        self.candidate_lists = [
            target_data.candidates(*source_data.invariant(g)) for g in self.gens
        ]
        if not all(self.candidate_lists):
            return
        self.tree, self.edges = _bfs_edges(self.source, self.gens)
        self.partial_orders = _partial_subgroup_orders(self.source, self.gens)
        self.relations = _word_relations(self.source, self.gens)
        self.target_orders = self.target.element_orders()

    def maps(self, prefix=()):
        """Yield the full image maps whose first generator images are
        `prefix` (each from its candidate list), in candidate order."""
        source, target, gens = self.source, self.target, self.gens
        if not gens:
            if target.n == 1:
                yield [0]
            return
        if not all(self.candidate_lists):
            return
        candidate_lists = [[c] for c in prefix] + self.candidate_lists[len(prefix):]
        relations, target_orders = self.relations, self.target_orders

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
                img = _image_map(source, target, gens, chosen, self.tree, self.edges)
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
                    last or len(target.subgroup_indices(chosen)) == self.partial_orders[level]
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
    for mapping in _Search(g_data, h_data).maps():
        return Isomorphism(gi, hi, mapping)
    return None


class _AutomorphismChain:
    """Aut(G) on element indices as a stabilizer chain, by a base-image
    search (Sims' method; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 4.6).

    The greedy generators g_1..g_k of G are a base: an automorphism is fixed
    by their images.  Level i holds the automorphisms fixing g_1..g_(i-1),
    and the levels are searched bottom-up, so every map found so far fixes
    g_1..g_(i-1).  A candidate image c of g_i already in the orbit of g_i
    under those maps needs no search.  Otherwise one search with g_1..g_(i-1)
    fixed and g_i sent to c either finds a new strong generator or fails;
    when it fails, so does c's whole orbit (if beta sends c to d and alpha
    sends g_i to d, then beta^-1 alpha sends g_i to c).
    """

    def __init__(self, indexed):
        if indexed.n > AUT_CAP:
            raise CapExceeded("automorphism cap %d exceeded: order %d" % (AUT_CAP, indexed.n))
        data = _CandidateData(indexed)
        search = _Search(data, data)
        base = search.gens
        self.generators = []
        self.transversals = [None] * len(base)
        for i in reversed(range(len(base))):
            point = base[i]
            orbit = _orbit(point, self.generators)
            failed = set()
            for c in search.candidate_lists[i]:
                if c in orbit or c in failed:
                    continue
                found = next(search.maps(base[:i] + [c]), None)
                if found is None:
                    failed |= _orbit(c, self.generators)
                else:
                    self.generators.append(tuple(found))
                    orbit = _orbit(point, self.generators)
            self.transversals[i] = _transversal(point, self.generators, indexed.n)
        self.order = math.prod(map(len, self.transversals))


def _orbit(point, maps):
    orbit = {point}
    queue = [point]
    for current in queue:  # the queue grows while it is read
        for m in maps:
            image = m[current]
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    return orbit


def _transversal(point, maps, n):
    """One product u of the maps with u(point) = p for each p in the orbit,
    as a list in BFS order from the identity."""
    found = {point: tidentity(n)}
    queue = [point]
    for current in queue:
        for m in maps:
            image = m[current]
            if image not in found:
                found[image] = tmul(m, found[current])
                queue.append(image)
    return list(found.values())


_CHAINS = weakref.WeakKeyDictionary()


def _automorphism_chain(indexed) -> _AutomorphismChain:
    """The chain of an indexed group, searched once per group."""
    chain = _CHAINS.get(indexed)
    if chain is None:
        chain = _CHAINS[indexed] = _AutomorphismChain(indexed)
    return chain


def automorphisms(indexed):
    """All automorphisms of an indexed group, as sorted index-map tuples:
    the products u_1 u_2 ... u_k of the level transversals."""
    chain = _automorphism_chain(indexed)
    if chain.order > ELEMENTS_CAP:
        raise CapExceeded("enumeration cap %d exceeded: order %d" % (ELEMENTS_CAP, chain.order))
    maps = [tidentity(indexed.n)]
    for transversal in chain.transversals:
        maps = [tmul(m, u) for m in maps for u in transversal]
    maps.sort()
    if any(a == b for a, b in zip(maps, maps[1:])):
        raise AssertionError("the level transversals repeat an automorphism")
    return maps


def automorphism_group(g) -> PermGroup:
    """Aut(G) as a permutation group on the element indices of index_group(G),
    on the strong generators of its chain."""
    indexed = _indexed(g)
    return PermGroup(_automorphism_chain(indexed).generators, degree=indexed.n)


def automorphism_group_order(g) -> int:
    """|Aut(G)|, the product of the chain's orbit lengths (nothing listed)."""
    return _automorphism_chain(_indexed(g)).order


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
