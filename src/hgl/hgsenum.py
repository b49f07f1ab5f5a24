"""Regular subgroups of Hol(G), Hopf-Galois structure counts, Hall-subgroup
extraction and complementary subgroups.

The enumeration works on the degree-n action permutations of holomorph
elements.  A backtracking search maintains a semiregular partial subgroup S:
at each node it picks the least point x outside the orbit of 0 (which is
{s(0) : s in S}), branches over the precomputed semiregular elements h with
h(0) = x, and extends S to <S, h> by a Dimino coset sweep that aborts as soon
as the closure exceeds |G|, stops dividing |G|, or acquires an element with a
fixed point.  States are deduplicated by their element sets, results when
|S| = |G| (a semiregular subgroup of full order is transitive, hence regular).
A regular subgroup is its own Cayley table: its elements, indexed by their
image of 0, are the rows of its multiplication table (cayley.regular_table).
The buckets of semiregular elements are cycle-tested only for the least
point of each Aut(G)-orbit on 1..n-1; conjugation by Aut(G) carries them to
the other points of the orbit.

Aut(G) conjugation permutes the regular subgroups of Hol(G) and fixes the
point 0, so the search breaks that symmetry at its root: every regular R has
exactly one element h with h(0) = 1, the automorphisms fixing 1 permute
those h by conjugation, and the search branches only over the least h of
each such orbit.  Every regular subgroup is then an Aut(G)-conjugate of one
that is found, and a BFS over the Aut(G) generators rebuilds the full list,
equal to the unreduced search's.  Conjugation maps a point-indexed element
tuple to a point-indexed tuple, so the rebuild needs no sort.

A cyclic Gamma skips the backtrack: its regular subgroups are spanned by the
n-cycles [g, alpha] of Hol(G).  Conjugation by theta in Aut(G) sends [g, alpha]
to [theta(g), theta alpha theta^-1], so g walks one point per Aut(G)-orbit on
G and the same conjugation closure rebuilds the full list.  The orbit
representatives come from `perm.orbit_minima` and `perm.conjugators`, which
also serve the root reduction and the count of embedding orbits.

Counting Hopf-Galois structures of type G on Gamma-extensions then means:
collect the regular subgroups isomorphic to Gamma, expand each into all
|Aut(Gamma)| regular embeddings, and count orbits of the Aut(G)-conjugation
action by explicit closure over generator-image fingerprints.  The quotient
formula |Aut(Gamma)| * #subgroups / |Aut(G)| is computed independently as a
cross-check and any discrepancy is surfaced, never reconciled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .catalog import build_group
from .cayley import greedy_generating_set, index_group, regular_table
from .holomorph import HolContext, RegularEmbedding, hol_context
from .isoaut import are_isomorphic, automorphism_group, automorphisms
from .perm import (
    CapExceeded,
    PermGroup,
    Permutation,
    conjugators,
    is_uniform_cycle_tuple,
    orbit_minima,
    reduce_generators,
    tidentity,
    tinv,
    tmul,
)

ENUM_ORDER_CAP = 60
COMPLEMENT_GROUP_CAP = 10**4
DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """Raised when the node budget runs out; never a silent undercount."""

    def __init__(self, nodes: int):
        super().__init__("search budget exhausted after %d nodes" % nodes)
        self.nodes = nodes
        self.partial = False  # no partial results are ever returned


@dataclass
class RegularSubgroupRecord:
    """One regular subgroup of Hol(G), as its sorted action permutations."""

    elements: tuple
    iso_spec: str | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def fingerprint(self) -> str:
        blob = repr(self.elements).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def semiregular_element_buckets(ctx: HolContext, aut_maps, aut: PermGroup):
    """Bucket the semiregular elements of Hol(G) by their image of 0.

    An element is kept iff all its cycles share one length > 1; such elements
    are exactly the fixed-point-free elements all of whose powers are
    fixed-point-free or trivial.  `aut_maps` lists Aut(G) and `aut` is Aut(G)
    as a group.  Only the least x of each Aut(G)-orbit on 1..n-1 has [x, alpha]
    tested for every alpha.  Conjugation by theta sends [x, alpha] to
    [theta(x), theta alpha theta^-1] and keeps the cycle type, so a BFS over
    the generators of `aut` fills the rest of the orbit with
    bucket(theta(x)) = sorted(theta h theta^-1 for h in bucket(x)).
    """
    moves = [(g.images, conjugate) for g, conjugate in zip(aut.generators, conjugators(aut))]
    buckets = {}
    for x in range(1, ctx.n):
        if x in buckets:
            continue  # x lies in the orbit of a smaller point
        perms = (ctx.action_perm(x, alpha) for alpha in aut_maps)
        buckets[x] = sorted(filter(is_uniform_cycle_tuple, perms))
        queue = [x]
        for y in queue:  # the queue grows while it is read
            for theta, conjugate in moves:
                z = theta[y]
                if z not in buckets:
                    buckets[z] = sorted(map(conjugate, buckets[y]))
                    queue.append(z)
    return {x: buckets[x] for x in range(1, ctx.n)}


def _bucket_semiregular(perms, n):
    """The uniform-cycle permutations among `perms` that move 0, bucketed by
    their image of 0 (keys 1..n-1), each bucket sorted."""
    buckets = {x: [] for x in range(1, n)}
    for perm in perms:
        if perm[0] != 0 and is_uniform_cycle_tuple(perm):
            buckets[perm[0]].append(perm)
    for x in buckets:
        buckets[x].sort()
    return buckets


def _dimino_extend(s_elements, s_gens, h, n, identity):
    """Closure of <S, h> as (sorted elements, gens) or None when it cannot sit
    inside a regular subgroup of order n (too big, order not dividing n, or an
    element fixes a point)."""
    result = set(s_elements)
    gens = list(s_gens) + [h]
    base = list(s_elements)

    def add_coset(rep):
        for s in base:
            e = tmul(s, rep)
            if e in result:
                continue
            if e != identity:
                for i, j in enumerate(e):
                    if i == j:
                        return None
            result.add(e)
        return True

    if h in result:
        return None  # no progress; caller never passes h with h(0) in orbit
    frontier = [h]
    if add_coset(h) is None or len(result) > n:
        return None
    while frontier:
        rep = frontier.pop()
        for g in gens:
            t = tmul(rep, g)
            if t in result:
                continue
            if add_coset(t) is None:
                return None
            if len(result) > n:
                return None
            frontier.append(t)
    if n % len(result):
        return None
    return tuple(sorted(result)), gens


def regular_subgroups_of_elements(
    candidate_buckets,
    n: int,
    budget: int = DEFAULT_BUDGET,
    symmetry: PermGroup | None = None,
):
    """All regular (order n, semiregular, transitive) subgroups generable from
    the candidate buckets, as sorted element tuples.  Complete whenever the
    buckets contain every semiregular element of the ambient group.

    `symmetry` is an optional group of degree n that fixes 0 (ValueError
    otherwise) and whose conjugation maps the candidates onto themselves, for
    example Aut(G) inside Hol(G).  The root of the search branches over
    bucket 1; a regular R holds exactly one element h with h(0) = 1, the
    stabilizer of 1 in `symmetry` permutes bucket 1 by conjugation, and the
    subtree under h finds every regular subgroup containing h.  So branching
    only over the least element of each such orbit still reaches a conjugate
    of every regular subgroup, and closing the results under conjugation by
    `symmetry` gives the same list as the unreduced search.
    """
    identity = tidentity(n)
    if n == 1:
        return [(identity,)]
    if symmetry is not None and any(g.images[0] != 0 for g in symmetry.generators):
        raise ValueError("the symmetry group must fix the point 0")
    results = []
    seen_states = set()
    nodes = 0

    def expand(elements, gens, branches):
        nonlocal nodes
        for h in branches:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            extended = _dimino_extend(elements, gens, h, n, identity)
            if extended is None:
                continue
            new_elements, new_gens = extended
            if new_elements in seen_states:
                continue
            seen_states.add(new_elements)
            if len(new_elements) == n:
                results.append(new_elements)
            else:
                covered = {p[0] for p in new_elements}
                x = next(t for t in range(n) if t not in covered)
                expand(new_elements, new_gens, candidate_buckets.get(x, ()))

    roots = candidate_buckets.get(1, ())
    if symmetry is None:
        expand((identity,), [], roots)
        return sorted(results)
    expand((identity,), [], orbit_minima(roots, conjugators(symmetry.point_stabilizer(1))))
    return _conjugation_closure(results, symmetry)


def _conjugation_closure(subgroups, group: PermGroup):
    """Every conjugate of the given regular subgroups by `group` (which fixes
    0), as sorted element tuples, sorted.

    A sorted regular subgroup R is indexed by points, R[x](0) = x, and so is
    its conjugate R' by theta: R'[theta(x)] = theta R[x] theta^-1.  With the
    elements interned as ids, R' is R's id tuple read in the order theta^-1
    and mapped through a memo of conjugation by theta, with no sort.
    """
    perms = []
    ids = {}

    def intern(p):
        known = ids.get(p)
        if known is None:
            known = ids[p] = len(perms)
            perms.append(p)
        return known

    def memoized(conjugate):
        memo = {}

        def conjugate_id(i):
            j = memo.get(i)
            if j is None:
                j = memo[i] = intern(conjugate(perms[i]))
            return j
        return conjugate_id

    moves = [
        (itemgetter(*tinv(g.images)), memoized(conjugate))
        for g, conjugate in zip(group.generators, conjugators(group))
    ]
    found = {tuple(map(intern, elements)) for elements in subgroups}
    queue = list(found)
    for key in queue:  # the queue grows while it is read
        for pick, conjugate_id in moves:
            image = tuple(map(conjugate_id, pick(key)))
            if image not in found:
                found.add(image)
                queue.append(image)
    return sorted(tuple(map(perms.__getitem__, key)) for key in found)


def enumerate_regular_subgroups(group, budget: int = DEFAULT_BUDGET, iso_candidates=()):
    """Complete, duplicate-free list of the regular subgroups of Hol(G).

    `group` may be a PermGroup, a GroupSpec, a spec string, or a HolContext
    of G (which is then used as is).  Each record can be tagged with the
    first matching iso type from `iso_candidates` (spec strings).
    """
    if isinstance(group, str) or hasattr(group, "kind"):
        group = build_group(group)
    order = group.n if isinstance(group, HolContext) else group.order()
    if order > ENUM_ORDER_CAP:
        raise CapExceeded("enumeration cap %d exceeded: order %d" % (ENUM_ORDER_CAP, order))
    ctx = group if isinstance(group, HolContext) else hol_context(group)
    aut = automorphism_group(ctx.group)
    buckets = semiregular_element_buckets(ctx, automorphisms(ctx.group), aut)
    subgroups = regular_subgroups_of_elements(buckets, ctx.n, budget=budget, symmetry=aut)
    # a candidate of another order never matches, so it is never indexed
    candidates = [(str(spec), build_group(spec)) for spec in iso_candidates]
    candidates = [(spec, index_group(c)) for spec, c in candidates if c.order() == order]
    records = []
    for elements in subgroups:
        record = RegularSubgroupRecord(elements=elements)
        if candidates:
            table = regular_table(elements)
            record.iso_spec = next(
                (spec for spec, c in candidates if are_isomorphic(table, c) is not None), None
            )
        records.append(record)
    return records


def _regular_cyclic_subgroups(ctx: HolContext, aut_maps, aut: PermGroup):
    """Regular cyclic subgroups of Hol(G): spans of single n-cycles.  Complete
    for cyclic Gamma without the general backtracking.

    Conjugation by theta in Aut(G) sends the n-cycle [g, alpha] to the n-cycle
    [theta(g), theta alpha theta^-1], so g only walks one point per Aut(G)-orbit
    and conjugation by `aut` rebuilds the full list.
    """
    n = ctx.n
    if n == 1:
        return [(tidentity(1),)]
    group = ctx.group
    found = []
    for g in orbit_minima(range(1, n), [theta.images.__getitem__ for theta in aut.generators]):
        for alpha in aut_maps:
            # walk the cycle of 0 under t -> g*alpha(t); an n-cycle visits all
            point = 0
            length = 0
            while True:
                point = group.mult(g, alpha[point])
                length += 1
                if point == 0 or length > n:
                    break
            if length != n:
                continue
            perm = ctx.action_perm(g, alpha)
            elements = [tidentity(n)]
            power = perm
            while power != elements[0]:
                elements.append(power)
                power = tmul(power, perm)
            found.append(tuple(sorted(elements)))
    return _conjugation_closure(found, aut)


@dataclass
class HgsCount:
    """Hopf-Galois structure count of type g on gamma-extensions."""

    gamma: str
    g: str
    count: int
    witnesses: list
    crosscheck: Fraction
    complete: bool
    subgroup_count: int
    discrepancy: bool

    def as_dict(self):
        return {
            "gamma": self.gamma,
            "g": self.g,
            "count": self.count,
            "witnesses": [w.serialize() for w in self.witnesses],
            "crosscheck": str(self.crosscheck),
            "complete": self.complete,
            "regular_subgroups_of_type": self.subgroup_count,
            "discrepancy": self.discrepancy,
        }


def count_hgs(gamma, g, budget: int = DEFAULT_BUDGET) -> HgsCount:
    """Count equivalence classes of regular embeddings gamma -> Hol(G) under
    conjugation by Aut(G), with one witness embedding per class."""
    gamma_name = str(gamma) if not isinstance(gamma, PermGroup) else "gamma"
    g_name = str(g) if not isinstance(g, PermGroup) else "g"
    if not isinstance(gamma, PermGroup):
        gamma = build_group(gamma)
    if not isinstance(g, PermGroup):
        g = build_group(g)
    if gamma.order() != g.order():
        raise ValueError(
            "order mismatch: |gamma| = %d, |G| = %d" % (gamma.order(), g.order())
        )
    gamma_indexed = index_group(gamma)
    gamma_cyclic = _is_cyclic(gamma_indexed)
    if not gamma_cyclic and g.order() > ENUM_ORDER_CAP:
        raise CapExceeded("enumeration cap %d exceeded: order %d" % (ENUM_ORDER_CAP, g.order()))
    ctx = hol_context(g)
    aut_g_maps = automorphisms(ctx.group)
    aut_g = automorphism_group(ctx.group)
    if gamma_cyclic:
        subgroup_sets = _regular_cyclic_subgroups(ctx, aut_g_maps, aut_g)
    else:
        buckets = semiregular_element_buckets(ctx, aut_g_maps, aut_g)
        subgroup_sets = regular_subgroups_of_elements(
            buckets, ctx.n, budget=budget, symmetry=aut_g
        )

    # expand each subgroup N isomorphic to gamma into all regular embeddings
    # gamma -> N: one isomorphism composed with every automorphism of gamma
    gamma_gens, _ = greedy_generating_set(gamma_indexed)
    aut_gamma_maps = automorphisms(gamma_indexed)
    embeddings = set()
    f = 0
    for elements in subgroup_sets:
        table = regular_table(elements)
        iso = are_isomorphic(gamma_indexed, table)
        if iso is None:
            continue
        f += 1
        for aut_map in aut_gamma_maps:
            embeddings.add(tuple(table.elements[iso.mapping[aut_map[gen]]] for gen in gamma_gens))

    # orbit count under Aut(G)-conjugation, one least representative each
    reps = orbit_minima(
        embeddings,
        [lambda images, c=c: tuple(map(c, images)) for c in conjugators(aut_g)],
    )
    orbits = len(reps)

    crosscheck = Fraction(len(aut_gamma_maps) * f, len(aut_g_maps))
    source = PermGroup(
        [Permutation(gamma_indexed.elements[gen]) for gen in gamma_gens], degree=gamma.degree
    )
    witnesses = []
    for rep in reps:
        images = [ctx.decode_perm(p) for p in rep]
        embedding = RegularEmbedding(source, ctx, images)
        embedding.verify()
        witnesses.append(embedding)
    return HgsCount(
        gamma=gamma_name,
        g=g_name,
        count=orbits,
        witnesses=witnesses,
        crosscheck=crosscheck,
        complete=True,
        subgroup_count=f,
        discrepancy=(crosscheck != orbits),
    )


def _is_cyclic(indexed) -> bool:
    return max(indexed.element_orders()) == indexed.n


@dataclass
class HallWitness:
    """Delta_p inside Gamma together with the Hall p'-subgroup H_p of G."""

    p: int
    delta_size: int
    expected_size: int
    is_subgroup: bool
    delta_generators: list
    hp_indices: list

    @property
    def ok(self) -> bool:
        return self.is_subgroup and self.delta_size == self.expected_size

    def as_dict(self):
        return {
            "p": self.p,
            "delta_size": self.delta_size,
            "expected_size": self.expected_size,
            "is_subgroup": self.is_subgroup,
            "delta_generators": [g.cycle_string() for g in self.delta_generators],
            "hp_size": len(self.hp_indices),
        }


def delta_p(embedding: RegularEmbedding, p: int) -> HallWitness:
    """Delta_p = {gamma : beta(gamma) . e_G in H_p} for nilpotent G, where H_p
    is the set of elements of G of order prime to p."""
    ctx = embedding.ctx
    g_source = ctx.group.source
    if not g_source.is_nilpotent():
        raise ValueError("delta_p requires a nilpotent G")
    n = ctx.n
    expected = n
    while expected % p == 0:
        expected //= p
    orders = ctx.group.element_orders()
    hp = {i for i in range(n) if orders[i] % p}
    beta = embedding.full_map()
    # beta(gamma) . e_G = g for beta(gamma) = [g, alpha]
    delta = {gamma_perm for gamma_perm, image in beta.items() if image[0] in hp}
    is_subgroup = all(tmul(a, b) in delta for a in delta for b in delta)
    non_identity = [Permutation(d) for d in sorted(delta) if d != tidentity(len(d))]
    gens = reduce_generators(non_identity, len(delta))
    return HallWitness(
        p=p,
        delta_size=len(delta),
        expected_size=expected,
        is_subgroup=is_subgroup,
        delta_generators=gens,
        hp_indices=sorted(hp),
    )


@dataclass
class ComplementaryPair:
    """Subgroups H, J of G with |H||J| = |G| and trivial intersection."""

    group: PermGroup
    h: PermGroup
    j: PermGroup

    def verify(self) -> bool:
        if self.h.order() * self.j.order() != self.group.order():
            return False
        for element in self.j.elements():
            if not element.is_identity() and element in self.h:
                return False
        return all(g in self.group for g in self.h.generators) and all(
            g in self.group for g in self.j.generators
        )


def find_complement(group: PermGroup, h, budget: int = DEFAULT_BUDGET):
    """A subgroup J complementary to H in G, or None after exhaustive search.

    H may be a subgroup or a point (its stabilizer is used).  J is found as a
    regular subgroup of the action of G on the cosets of H; the search is
    exhaustive, so None is a proof of nonexistence (at these caps).
    """
    if isinstance(h, int):
        h = group.point_stabilizer(h)
    order = group.order()
    if order > COMPLEMENT_GROUP_CAP:
        raise CapExceeded("group cap %d exceeded: order %d" % (COMPLEMENT_GROUP_CAP, order))
    if order % h.order():
        raise ValueError("|H| does not divide |G|")
    m = order // h.order()
    if m > ENUM_ORDER_CAP:
        raise CapExceeded("index cap %d exceeded: index %d" % (ENUM_ORDER_CAP, m))

    coset_perm_of, kernel_free = _coset_action(group, h, m)
    if not kernel_free:
        raise ValueError("coset action is not faithful; complement search unsupported")

    # the coset images are distinct, since the action is faithful
    pullback = {image: g_elem for g_elem, image in coset_perm_of}
    subgroups = regular_subgroups_of_elements(_bucket_semiregular(pullback, m), m, budget=budget)
    if not subgroups:
        return None
    elements = subgroups[0]
    j_gens = [Permutation(pullback[p]) for p in elements if p != tidentity(m)]
    j = PermGroup(reduce_generators(j_gens, m), degree=group.degree)
    if j.order() != m:
        raise AssertionError("pullback complement has wrong order")
    return j


def _coset_action(group: PermGroup, h: PermGroup, m: int):
    """Pairs (element images, coset permutation) for all of G acting on the
    right cosets of H, plus a faithfulness flag.

    Cosets are numbered by BFS from H itself over the group generators.
    """
    gens = [g.images for g in group.generators]
    identity = tidentity(group.degree)
    reps = [identity]
    rep_inv = [identity]

    def coset_index(x):
        for i, r_inv in enumerate(rep_inv):
            if tmul(r_inv, x) in h:
                return i
        return None

    queue = [identity]
    while queue:
        rep = queue.pop(0)
        for g in gens:
            product = tmul(g, rep)
            if coset_index(product) is None:
                reps.append(product)
                rep_inv.append(tinv(product))
                queue.append(product)
    if len(reps) != m:
        raise AssertionError("found %d cosets, expected %d" % (len(reps), m))

    elements = group.elements(cap=COMPLEMENT_GROUP_CAP)
    pairs = []
    images_seen = set()
    for element in elements:
        image = tuple(coset_index(tmul(element.images, r)) for r in reps)
        pairs.append((element.images, image))
        images_seen.add(image)
    return pairs, len(images_seen) == len(elements)
