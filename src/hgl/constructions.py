"""Explicit regular embeddings from complementary subgroups.

A pair of complementary subgroups H, J of G (|H||J| = |G|, trivial
intersection) yields the regular embedding of H x J into Hol(G) sending
(h, j) to [h j^-1, C(j)], i.e. x -> h x j^-1 on G.  The same map arises from
the fixed-point-free pair of the two projections, beta(s) =
lambda(beta1(s)) rho(beta2(s)); both paths are implemented and must agree.

On top of this sit the concrete families: S_n / A_n with a cyclic or
2-group-by-cyclic complement, the prime-power-index cases (alternating,
projective, PSL2(11) over A5, and the unitary 27-point case), and the three
soluble-Galois-group/insoluble-type showcases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import build_group
from .hgsenum import ComplementaryPair
from .holomorph import HolContext, RegularEmbedding, hol_context, homomorphism_map
from .isoaut import are_isomorphic, find_isomorphic_subgroup
from .perm import (
    PermGroup,
    Permutation,
    direct_product,
    sylow_subgroup,
    tidentity,
)
from .projective import projective_group, psl3_2
from .structure import structure_report
from .su42 import (
    order27_generators,
    action_on_planes,
    plane_w_index,
    su42_permutation_group,
)


class FpfPair:
    """Two homomorphisms gamma -> G agreeing only at the identity.

    Homomorphisms are given by generator images (element indices of the
    indexed target); construction verifies the homomorphism law exhaustively
    (see holomorph.homomorphism_map) and the fixed-point-free condition on
    every element.
    """

    def __init__(self, gamma: PermGroup, target_ctx: HolContext, images1, images2):
        self.gamma = gamma
        self.ctx = target_ctx
        self.map1 = homomorphism_map(gamma, images1, target_ctx.group.mult, 0)
        self.map2 = homomorphism_map(gamma, images2, target_ctx.group.mult, 0)
        identity = tidentity(gamma.degree)
        for element, image in self.map1.items():
            if element != identity and image == self.map2[element]:
                raise ValueError("pair is not fixed-point free")
        self.images1 = list(images1)
        self.images2 = list(images2)


def untangle_embedding(pair: ComplementaryPair, ctx: HolContext | None = None) -> RegularEmbedding:
    """The regular embedding of H x J into Hol(G) from a complementary pair:
    (h, j) -> [h j^-1, C(j)]."""
    if not pair.verify():
        raise ValueError("subgroups are not complementary")
    if ctx is None:
        ctx = hol_context(pair.group)
    group = ctx.group
    gamma = direct_product([pair.h, pair.j])
    images = []
    for gen in pair.h.generators:
        images.append(ctx.lam(group.index[gen.images]))
    for gen in pair.j.generators:
        images.append(ctx.rho(group.index[gen.images]))
    embedding = RegularEmbedding(gamma, ctx, images)
    embedding.verify()
    return embedding


def fpf_embedding(pair: FpfPair) -> RegularEmbedding:
    """beta(s) = lambda(beta1(s)) rho(beta2(s)) for a fixed-point-free pair."""
    ctx = pair.ctx
    images = [
        ctx.mult(ctx.lam(g1), ctx.rho(g2))
        for g1, g2 in zip(pair.images1, pair.images2)
    ]
    embedding = RegularEmbedding(pair.gamma, ctx, images)
    embedding.verify()
    return embedding


def untangle_as_fpf(pair: ComplementaryPair, ctx: HolContext | None = None) -> FpfPair:
    """The complementary pair's projections as a fixed-point-free pair: the
    resulting embedding reproduces untangle_embedding elementwise."""
    if ctx is None:
        ctx = hol_context(pair.group)
    group = ctx.group
    gamma = direct_product([pair.h, pair.j])
    identity_index = 0
    images1, images2 = [], []
    for gen in pair.h.generators:
        images1.append(group.index[gen.images])
        images2.append(identity_index)
    for gen in pair.j.generators:
        images1.append(identity_index)
        images2.append(group.index[gen.images])
    return FpfPair(gamma, ctx, images1, images2)


# -- alternating-group constructions -------------------------------------------


def translation_permutation(e: int, m: int, v: int, r: int) -> Permutation:
    """Left translation by (v, r) on C_2^e x C_m, points numbered v*m + r."""
    n = (1 << e) * m
    images = [0] * n
    for w in range(1 << e):
        for s in range(m):
            images[w * m + s] = ((w ^ v) * m) + ((s + r) % m)
    return Permutation(images)


def abelian_complement_group(e: int, m: int) -> PermGroup:
    """lambda(B) for B = C_2^e x C_m: the regular translation group on n =
    2^e * m points."""
    gens = [translation_permutation(e, m, 1 << i, 0) for i in range(e)]
    if m > 1:
        gens.append(translation_permutation(e, m, 0, 1))
    if not gens:
        return PermGroup.trivial(1)
    return PermGroup(gens, degree=(1 << e) * m)


def _alternating_on(n: int) -> PermGroup:
    return build_group("A%d" % n)


def _point_zero_alternating_stabilizer(n: int) -> PermGroup:
    """A_{n-1} as the subgroup of A_n fixing the point 0."""
    gens = [Permutation.from_cycles([[1, 2, 3]], n)]
    if (n - 1) % 2:
        gens.append(Permutation.from_cycles([list(range(1, n))], n))
    else:
        gens.append(Permutation.from_cycles([list(range(2, n))], n))
    return PermGroup(gens, degree=n)


def an_complementary_pair(n: int) -> ComplementaryPair:
    """H = A_{n-1}, J = lambda(C_2^e x C_m) inside G = A_n for n = 2^e m,
    n not congruent to 2 mod 4."""
    if n < 4:
        raise ValueError("n must be >= 4")
    if n % 4 == 2:
        raise ValueError("n = 2 mod 4: no complementary subgroup to A_{n-1} in A_n")
    e = 0
    m = n
    while m % 2 == 0:
        m //= 2
        e += 1
    g = _alternating_on(n)
    j = abelian_complement_group(e, m)
    for gen in j.generators:
        if gen.sign() != 1:
            raise AssertionError("translation generator is odd (impossible for these n)")
        if gen not in g:
            raise AssertionError("translation generator not in A_n")
    h = _point_zero_alternating_stabilizer(n)
    pair = ComplementaryPair(g, h, j)
    if not pair.verify():
        raise AssertionError("A_n pair failed verification")
    return pair


def an_gen_embedding(n: int) -> RegularEmbedding:
    """Regular embedding of A_{n-1} x C_2^e x C_m into Hol(A_n)."""
    return untangle_embedding(an_complementary_pair(n))


# -- prime-power-index cases ------------------------------------------------------


@dataclass
class GuralnickCase:
    case: str
    description: str
    pair: ComplementaryPair | None

    def as_dict(self):
        out = {"case": self.case, "description": self.description}
        if self.pair is not None:
            out["group_order"] = self.pair.group.order()
            out["h_order"] = self.pair.h.order()
            out["j_order"] = self.pair.j.order()
        return out


def guralnick_case_builder(case: str, params=None) -> GuralnickCase:
    """Complementary pairs for the prime-power-index families at desk scale.

    (a) alternating n in {5, 8, 9}; (b) projective point stabilizers for
    PSL(2,7) and PSL(3,2); (c) PSL(2,11) over A5; (e) the unitary 27-point
    case.  (d), the Mathieu groups, is recorded as data only.
    """
    case = case.lower()
    if case == "a":
        n = int(params)
        if n not in (5, 8, 9):
            raise ValueError("case (a) desk instances are n in {5, 8, 9}")
        pair = an_complementary_pair(n)
        return GuralnickCase("a", "A%d over A%d, index %d" % (n, n - 1, n), pair)
    if case == "b":
        spec = str(params)
        name = spec.replace(" ", "").upper()
        if name == "PSL(2,7)":
            g = projective_group("PSL2", 7)
            p = 2
        elif name == "PSL(3,2)":
            g = psl3_2()
            p = 7
        else:
            raise ValueError("case (b) desk instances are PSL(2,7) and PSL(3,2)")
        h = g.point_stabilizer(0)
        j = sylow_subgroup(g, p)
        pair = ComplementaryPair(g, h, j)
        if not pair.verify():
            raise AssertionError("Sylow complement failed verification")
        return GuralnickCase(
            "b", "%s over a point stabilizer, index %d" % (name, g.order() // h.order()), pair
        )
    if case == "c":
        g = projective_group("PSL2", 11)
        h = find_isomorphic_subgroup(g, build_group("A5"))
        j = sylow_subgroup(g, 11)
        pair = ComplementaryPair(g, h, j)
        if not pair.verify():
            raise AssertionError("PSL2(11) pair failed verification")
        return GuralnickCase("c", "PSL(2,11) over A5, index 11", pair)
    if case == "d":
        return GuralnickCase(
            "d",
            "Mathieu groups M23 over M22 and M11 over M10: out of desk scope, no construction",
            None,
        )
    if case == "e":
        g = su42_permutation_group()
        h = g.point_stabilizer(plane_w_index())
        a, b = order27_generators()
        j = PermGroup([action_on_planes(a), action_on_planes(b)], degree=27)
        pair = ComplementaryPair(g, h, j)
        if not pair.verify():
            raise AssertionError("unitary pair failed verification")
        return GuralnickCase("e", "PSU(4,2) over a plane stabilizer, index 27", pair)
    raise ValueError("unknown case %r" % case)


# -- the three showcase cases ----------------------------------------------------


@dataclass
class SolInsolReport:
    case: str
    gamma_report: object
    g_report: object
    embedding: RegularEmbedding
    iso_checks: dict
    factors_differ: bool

    @property
    def ok(self) -> bool:
        return (
            self.embedding.certificate["regular"]
            and self.gamma_report.is_soluble
            and self.g_report.has_nonabelian_simple_factor()
            and self.factors_differ
            and all(self.iso_checks.values())
        )

    def as_dict(self):
        return {
            "case": self.case,
            "gamma": self.gamma_report.as_dict(),
            "g": self.g_report.as_dict(),
            "embedding": self.embedding.certificate,
            "iso_checks": self.iso_checks,
            "factors_differ": self.factors_differ,
            "ok": self.ok,
        }


def _mersenne_exponent(p: int) -> int:
    e = (p + 1).bit_length() - 1
    if (1 << e) - 1 != p:
        raise ValueError("%d is not a Mersenne prime" % p)
    return e


def sol_insol_verify(case: str, p: int = 7, allow_large: bool = False) -> SolInsolReport:
    """Build and verify the three explicit soluble-group / insoluble-type
    instances: (i) A4 x C5 of type A5, (ii) S4 x C7 of type PSL(3,2), (iii)
    the Frobenius-times-dihedral family of type PSL2(p) for Mersenne p."""
    case = case.lower()
    iso_checks = {}
    if case == "i":
        g = _alternating_on(5)
        h = _point_zero_alternating_stabilizer(5)
        j = PermGroup([Permutation.from_cycles([list(range(5))], 5)])
        pair = ComplementaryPair(g, h, j)
        iso_checks["h_is_a4"] = are_isomorphic(h, build_group("A4")) is not None
    elif case == "ii":
        g = psl3_2()
        h = g.point_stabilizer(0)
        j = sylow_subgroup(g, 7)
        pair = ComplementaryPair(g, h, j)
        iso_checks["h_is_s4"] = are_isomorphic(h, build_group("S4")) is not None
        iso_checks["j_is_c7"] = are_isomorphic(j, build_group("C7")) is not None
    elif case == "iii":
        e = _mersenne_exponent(p)
        if p < 7:
            raise ValueError("case (iii) needs a Mersenne prime >= 7")
        if p > 7 and not allow_large:
            raise ValueError("p = %d exceeds the default desk scale; pass allow_large" % p)
        g = projective_group("PSL2", p)
        h = g.point_stabilizer(0)
        j = sylow_subgroup(g, 2)
        pair = ComplementaryPair(g, h, j)
        frobenius_order = p * (p - 1) // 2
        iso_checks["h_is_f%d" % frobenius_order] = (
            are_isomorphic(h, build_group("F%d" % frobenius_order)) is not None
        )
        iso_checks["j_is_d%d" % (1 << e)] = (
            are_isomorphic(j, build_group("D%d" % (1 << e))) is not None
        )
    else:
        raise ValueError("case must be i, ii or iii")
    if not pair.verify():
        raise AssertionError("pair failed verification")
    embedding = untangle_embedding(pair)
    gamma_report = structure_report(embedding.source)
    g_report = structure_report(pair.group)
    factors_differ = gamma_report.composition_factors != g_report.composition_factors
    return SolInsolReport(
        case=case,
        gamma_report=gamma_report,
        g_report=g_report,
        embedding=embedding,
        iso_checks=iso_checks,
        factors_differ=factors_differ,
    )
