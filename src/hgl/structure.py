"""Structural reports: solubility, nilpotency and composition factors.

Solubility and nilpotency run on the permutation level (derived and lower
central series by iterated normal closures of commutators).  Composition
factors are a desk-scale computation: normal subgroups are found by brute
force as normal closures of conjugacy classes on a Cayley table, refining
recursively through subgroups and quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import TableGroup, greedy_generating_set, index_group
from .numtheory import is_prime
from .perm import SERIES_CAP, CapExceeded, PermGroup

FACTORS_CAP = 10**5

# Names for the nonabelian simple orders the library actually meets.  20160 is
# deliberately absent: two simple groups share it.
_SIMPLE_NAMES = {
    60: "A5",
    168: "PSL(3,2)",
    360: "A6",
    504: "PSL(2,8)",
    660: "PSL(2,11)",
    1092: "PSL(2,13)",
    2520: "A7",
    25920: "PSU(4,2)",
}


@dataclass(frozen=True)
class StructureReport:
    order: int
    is_abelian: bool
    is_soluble: bool
    is_nilpotent: bool
    composition_factors: tuple  # sorted tuple of (order, tag)

    def factor_orders(self):
        return [order for order, _ in self.composition_factors]

    def has_nonabelian_simple_factor(self) -> bool:
        return any(order > 1 and not is_prime(order) for order, _ in self.composition_factors)

    def as_dict(self):
        return {
            "order": self.order,
            "is_abelian": self.is_abelian,
            "is_soluble": self.is_soluble,
            "is_nilpotent": self.is_nilpotent,
            "composition_factors": [list(f) for f in self.composition_factors],
        }


def _conjugating_gens(group):
    """Indices whose conjugation action generates all of it (group generators,
    or a greedy generating set for raw tables)."""
    gens = None
    if hasattr(group, "generator_indices"):
        gens = [g for g in group.generator_indices() if g != 0]
    if not gens:
        gens, _ = greedy_generating_set(group)
    return gens


def _class_of(group, gens, start):
    orbit = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in gens:
            y = group.conj(g, x)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def conjugacy_classes(group):
    """Conjugacy classes of an indexed group as sorted index tuples, sorted by
    (size, least element)."""
    gens = _conjugating_gens(group)
    seen = [False] * group.n
    classes = []
    for i in range(group.n):
        if seen[i]:
            continue
        orbit = _class_of(group, gens, i)
        for y in orbit:
            seen[y] = True
        classes.append(tuple(sorted(orbit)))
    return sorted(classes, key=lambda c: (len(c), c[0]))


def normal_closure_indices(group, seeds):
    """Smallest normal subgroup containing the seed indices, as a sorted list.

    Seeds are first expanded to full conjugacy classes; the subgroup generated
    by a conjugation-stable set is automatically normal.  The closure runs on
    a greedily reduced generating subset of the stable set, not the whole
    class, which matters for groups in the tens of thousands.
    """
    gens = _conjugating_gens(group)
    stable = set()
    for s in seeds:
        if s not in stable:
            stable |= _class_of(group, gens, s)
    _, generated = greedy_generating_set(group, sorted(stable))
    return generated


def is_simple_indexed(group) -> bool:
    """Brute-force simplicity: every nontrivial element normally generates the
    whole group."""
    if group.n == 1:
        return False
    if is_prime(group.n):
        return True
    for cls in conjugacy_classes(group):
        if cls == (0,):
            continue
        if len(normal_closure_indices(group, [cls[0]])) < group.n:
            return False
    return True


def _subgroup_table(group, indices):
    pos = {g: i for i, g in enumerate(indices)}
    return TableGroup([[pos[group.mult(a, b)] for b in indices] for a in indices])


def _quotient_table(group, normal_indices):
    normal = set(normal_indices)
    rep_of = {}
    reps = []
    for g in range(group.n):
        if g in rep_of:
            continue
        coset = sorted(group.mult(g, h) for h in normal)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            rep_of[x] = rep
    reps.sort()
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep_of[group.mult(a, b)]] for b in reps] for a in reps]
    return TableGroup(table)


def composition_factors(group) -> list:
    """Composition factor descriptors (order, tag) of an indexed group,
    by Jordan-Hoelder recursion through any proper nontrivial normal
    subgroup."""
    if group.n == 1:
        return []
    chosen = None
    for cls in conjugacy_classes(group):
        if cls == (0,):
            continue
        closure = normal_closure_indices(group, [cls[0]])
        if len(closure) < group.n:
            if chosen is None or len(closure) < len(chosen):
                chosen = closure
    if chosen is None:
        order = group.n
        if is_prime(order):
            tag = "C%d" % order
        else:
            tag = _SIMPLE_NAMES.get(order, "simple-%d" % order)
        return [(order, tag)]
    sub = _subgroup_table(group, chosen)
    quot = _quotient_table(group, chosen)
    return composition_factors(sub) + composition_factors(quot)


def structure_report(group: PermGroup) -> StructureReport:
    order = group.order()
    if order > SERIES_CAP:
        raise CapExceeded("series cap %d exceeded: order %d" % (SERIES_CAP, order))
    if order > FACTORS_CAP:
        raise CapExceeded("composition factor cap %d exceeded: order %d" % (FACTORS_CAP, order))
    soluble = group.is_soluble()
    nilpotent = group.is_nilpotent()
    indexed = index_group(group)
    factors = tuple(sorted(composition_factors(indexed)))
    return StructureReport(
        order=order,
        is_abelian=group.is_abelian(),
        is_soluble=soluble,
        is_nilpotent=nilpotent,
        composition_factors=factors,
    )
