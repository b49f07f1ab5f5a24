"""Canonical element indexing for finite groups.

A CayleyIndexedGroup assigns indices 0..n-1 to the elements of a permutation
group (identity = 0) by a breadth-first walk from the identity over the sorted
generators, so the numbering is reproducible.  Multiplication is served from a
dense table for small groups and computed on demand from the underlying
permutations for large ones, which keeps groups like A8 (order 20160) usable
without an n x n table in memory.
"""

from __future__ import annotations

from .perm import CapExceeded, PermGroup, Permutation, tidentity, tinv, tmul, tuple_order

DENSE_TABLE_MAX = 1024
INDEX_CAP = 10**5


class _IndexedGroup:
    """Operations shared by the indexed groups: elements are 0..n-1 with
    identity 0, and subclasses supply n, inverse, mult and element_orders."""

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult(self.mult(g, x), self.inverse[g])

    def element_order(self, i: int) -> int:
        return self.element_orders()[i]

    def subgroup_indices(self, gens):
        """Closure of a set of element indices, as a sorted list."""
        seen = {0}
        queue = [0]
        gens = list(gens)
        while queue:
            current = queue.pop()
            for g in gens:
                product = self.mult(current, g)
                if product not in seen:
                    seen.add(product)
                    queue.append(product)
        return sorted(seen)

    def __len__(self):
        return self.n


class CayleyIndexedGroup(_IndexedGroup):
    """A finite group with elements canonically indexed 0..n-1."""

    def __init__(self, source: PermGroup):
        order = source.order()
        if order > INDEX_CAP:
            raise CapExceeded("indexing cap %d exceeded: order %d" % (INDEX_CAP, order))
        self.source = source
        self.elements = [g.images for g in source.elements(cap=INDEX_CAP)]
        self.n = len(self.elements)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.inverse = [self.index[tinv(p)] for p in self.elements]
        self._orders = None
        self._table = None
        if self.n <= DENSE_TABLE_MAX:
            self._table = [
                [self.index[tmul(p, q)] for q in self.elements] for p in self.elements
            ]

    def mult(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self.index[tmul(self.elements[i], self.elements[j])]

    def element_orders(self):
        if self._orders is None:
            self._orders = [tuple_order(p) for p in self.elements]
        return self._orders

    def left_translation(self, g: int):
        """lambda(g) as a tuple on element indices: t -> g*t."""
        if self._table is not None:
            return tuple(self._table[g])
        pg = self.elements[g]
        index = self.index
        return tuple(index[tmul(pg, q)] for q in self.elements)

    def generator_indices(self):
        return [self.index[g.images] for g in self.source.generators]

    def __repr__(self):
        return "CayleyIndexedGroup(order=%d, degree=%d)" % (self.n, self.source.degree)


def index_group(group: PermGroup) -> CayleyIndexedGroup:
    return CayleyIndexedGroup(group)


class TableGroup(_IndexedGroup):
    """A group given by a raw multiplication table (identity must be index 0).

    Used for quotients and subgroups extracted at the Cayley level, where no
    natural permutation representation is at hand.  The interface mirrors the
    parts of CayleyIndexedGroup that structural computations need.  elements,
    when given, is the permutation of each index (see regular_table).
    """

    def __init__(self, table, elements=None):
        self.n = len(table)
        self.elements = elements
        self._table = [list(row) for row in table]
        for i in range(self.n):
            if self._table[0][i] != i or self._table[i][0] != i:
                raise ValueError("index 0 is not a two-sided identity")
        self.inverse = [0] * self.n
        for i in range(self.n):
            row = self._table[i]
            for j in range(self.n):
                if row[j] == 0:
                    self.inverse[i] = j
                    break
        self._orders = None

    def mult(self, i, j):
        return self._table[i][j]

    def element_orders(self):
        if self._orders is None:
            orders = [1] * self.n
            for i in range(self.n):
                k, power = 1, i
                while power != 0:
                    power = self.mult(power, i)
                    k += 1
                orders[i] = k
            self._orders = orders
        return self._orders


def regular_table(elements) -> TableGroup:
    """A regular permutation group, from its full element list, as its own
    Cayley table: index a is the element e_a with e_a(0) = a.  Then
    (e_a e_b)(0) = e_a(b), so row a of the table is e_a itself and index 0 is
    the identity."""
    rows = sorted(elements, key=lambda p: p[0])
    if not rows or len(rows) != len(rows[0]):
        raise ValueError("a regular group of degree n needs all n of its elements")
    return TableGroup(rows, elements=rows)


def regular_permutation_group(group) -> PermGroup:
    """The left regular representation of an indexed group, on 0..n-1."""
    gens = []
    identity = tidentity(group.n)
    for g in greedy_generating_set(group)[0]:
        images = tuple(group.mult(g, t) for t in range(group.n))
        if images != identity:
            gens.append(Permutation(images))
    if not gens:
        return PermGroup.trivial(max(group.n, 1))
    return PermGroup(gens, degree=group.n)


def greedy_generating_set(group, candidates=None):
    """Scan the candidate indices (default 1..n-1) in order and keep each one
    outside the subgroup generated so far, until that is the whole group.

    Returns (chosen indices, the sorted subgroup they generate)."""
    chosen = []
    generated = [0]
    seen = {0}
    for i in range(1, group.n) if candidates is None else candidates:
        if i in seen:
            continue
        chosen.append(i)
        generated = group.subgroup_indices(chosen)
        seen = set(generated)
        if len(generated) == group.n:
            break
    return chosen, generated
