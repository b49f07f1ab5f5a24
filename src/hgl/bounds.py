"""Maximal abelian subgroup orders and the cubed-integer inequality checks.

a(G) is computed by exact search: seeds are the cyclic subgroups generated by
conjugacy class representatives (a maximal abelian subgroup is conjugate to
one containing a class representative, and a(G) is conjugation-invariant);
each seed is extended inside the centralizer of the current subgroup, adding
candidate elements in ascending order, with |centralizer| as the
branch-and-bound upper bound.  Everything with a 3^(1/3) factor is compared
after cubing, in exact integers.

The search works on image tuples with the shared helpers of `perm`: the class
representatives are the `orbit_minima` of the non-identity elements under
generator conjugation, and every subgroup is the `brute_closure` of its
generators.  It does not index the group (`structure.conjugacy_classes`
would), because indexing builds a dense multiplication table for orders up
to 1024, which costs more than the whole search on groups such as PSL(2,11).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import index_group, regular_permutation_group
from .numtheory import prime_powers_up_to
from .perm import (
    CapExceeded,
    PermGroup,
    Permutation,
    brute_closure,
    conjugators,
    direct_product,
    orbit_minima,
    tidentity,
    tmul,
)
from .projective import projective_order
from .structure import _quotient_table, is_simple_indexed

ABELIAN_SEARCH_CAP = 50000


@dataclass
class AbelianBoundResult:
    a_value: int
    witness: list  # generators of a maximal abelian subgroup
    group_order: int

    def as_dict(self):
        return {
            "a_value": self.a_value,
            "witness": [g.cycle_string() for g in self.witness],
            "group_order": self.group_order,
        }


def max_abelian_order(group: PermGroup) -> AbelianBoundResult:
    """Exact a(G) = max order of an abelian subgroup, with a witness."""
    order = group.order()
    if order > ABELIAN_SEARCH_CAP:
        raise CapExceeded("abelian search cap %d exceeded: order %d" % (ABELIAN_SEARCH_CAP, order))
    elements = sorted(g.images for g in group.elements(cap=ABELIAN_SEARCH_CAP))
    identity = tidentity(group.degree)

    if order == 1 or group.is_abelian():
        return AbelianBoundResult(order, list(group.generators), order)

    # conjugacy class representatives; the identity is the least tuple
    reps = orbit_minima(elements[1:], conjugators(group))

    best = {"value": 1, "witness": [identity]}
    visited = set()

    def extend(a_set, a_gens, centralizer):
        if len(a_set) > best["value"]:
            best["value"] = len(a_set)
            best["witness"] = list(a_gens)
        if len(centralizer) <= best["value"]:
            return
        for c in centralizer:
            if c in a_set:
                continue
            extended = brute_closure(a_gens + [c])
            key = frozenset(extended)
            if key in visited:
                continue
            visited.add(key)
            sub_centralizer = [
                x for x in centralizer if tmul(x, c) == tmul(c, x)
            ]
            extend(extended, a_gens + [c], sub_centralizer)

    for rep in reps:
        seed = brute_closure([rep])
        key = frozenset(seed)
        if key in visited:
            continue
        visited.add(key)
        centralizer = [
            x for x in elements if tmul(x, rep) == tmul(rep, x)
        ]
        extend(seed, [rep], centralizer)

    witness = [Permutation(p) for p in best["witness"] if p != identity]
    return AbelianBoundResult(best["value"], witness, order)


@dataclass
class AIneqResult:
    """Both sides of 3 (a(T) a(Aut T))^3 < |T|^3 (the cubed form of the
    3^(1/3) a(T) a(Aut T) < |T| inequality)."""

    a_t: int
    a_aut: int
    t_order: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs < self.rhs

    def as_dict(self):
        return {
            "a_t": self.a_t,
            "a_aut": self.a_aut,
            "t_order": self.t_order,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


def check_a_ineq(t: PermGroup, aut_t: PermGroup) -> AIneqResult:
    a_t = max_abelian_order(t).a_value
    a_aut = max_abelian_order(aut_t).a_value
    order = t.order()
    return AIneqResult(
        a_t=a_t,
        a_aut=a_aut,
        t_order=order,
        lhs=3 * (a_t * a_aut) ** 3,
        rhs=order**3,
    )


def _psl2_order_matches(order: int):
    for q in prime_powers_up_to(2048):  # |PSL2(2048)| is about 8.6e9
        if q >= 4 and projective_order("PSL2", q) == order:
            return q
    return None


@dataclass
class VdovinResult:
    excluded: bool
    reason: str
    a_value: int | None
    holds: bool | None

    def as_dict(self):
        return {
            "excluded": self.excluded,
            "reason": self.reason,
            "a_value": self.a_value,
            "holds": self.holds,
        }


def check_vdovin(t: PermGroup) -> VdovinResult:
    """a(T)^3 < |T| for simple T not isomorphic to any PSL2(q)."""
    order = t.order()
    indexed = index_group(t)
    if not is_simple_indexed(indexed):
        raise ValueError("check_vdovin requires a simple group")
    q = _psl2_order_matches(order)
    if q is not None:
        return VdovinResult(
            excluded=True,
            reason="order %d equals |PSL2(%d)|; the PSL2 family is exempt" % (order, q),
            a_value=None,
            holds=None,
        )
    a_value = max_abelian_order(t).a_value
    return VdovinResult(
        excluded=False,
        reason="",
        a_value=a_value,
        holds=a_value**3 < order,
    )


@dataclass
class APropReport:
    monotone: dict | None = None
    quotient: dict | None = None
    product: dict | None = None

    @property
    def ok(self) -> bool:
        parts = [p for p in (self.monotone, self.quotient, self.product) if p is not None]
        return all(p["holds"] for p in parts)

    def as_dict(self):
        return {
            "monotone": self.monotone,
            "quotient": self.quotient,
            "product": self.product,
            "ok": self.ok,
        }


def a_prop_checks(
    g: PermGroup,
    h: PermGroup | None = None,
    n: PermGroup | None = None,
    j: PermGroup | None = None,
) -> APropReport:
    """Verify on concrete instances: (i) a(H) <= a(G) for H <= G;
    (ii) a(G) <= a(N) a(G/N) for N normal in G; (iii) a(H x J) = a(H) a(J)."""
    report = APropReport()
    a_g = max_abelian_order(g).a_value
    if h is not None:
        for gen in h.generators:
            if gen not in g:
                raise ValueError("H is not a subgroup of G")
        a_h = max_abelian_order(h).a_value
        report.monotone = {"a_h": a_h, "a_g": a_g, "holds": a_h <= a_g}
    if n is not None:
        for gen in n.generators:
            if gen not in g:
                raise ValueError("N is not a subgroup of G")
        for g_gen in g.generators:
            for n_gen in n.generators:
                if g_gen * n_gen * g_gen.inverse() not in n:
                    raise ValueError("N is not normal in G")
        quotient = _quotient_perm_group(g, n)
        a_n = max_abelian_order(n).a_value
        a_q = max_abelian_order(quotient).a_value
        report.quotient = {
            "a_g": a_g,
            "a_n": a_n,
            "a_quotient": a_q,
            "holds": a_g <= a_n * a_q,
        }
    if j is not None and h is not None:
        product = direct_product([h, j])
        a_h = max_abelian_order(h).a_value
        a_j = max_abelian_order(j).a_value
        a_p = max_abelian_order(product).a_value
        report.product = {
            "a_h": a_h,
            "a_j": a_j,
            "a_product": a_p,
            "holds": a_p == a_h * a_j,
        }
    return report


def _quotient_perm_group(g: PermGroup, n: PermGroup) -> PermGroup:
    """G/N in its left regular representation."""
    indexed = index_group(g)
    normal_indices = sorted(
        indexed.index[p.images] for p in n.elements()
    )
    table = _quotient_table(indexed, normal_indices)
    return regular_permutation_group(table)
