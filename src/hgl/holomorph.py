"""The holomorph Hol(G) = G x| Aut(G): pair arithmetic, actions, and regular
embeddings.

Elements are pairs [g, alpha] with g an element index of a Cayley-indexed
group and alpha an automorphism (a permutation of element indices fixing 0),
multiplied by

    [g1, a1][g2, a2] = [g1 * a1(g2), a1 a2]

and acting on element indices by t -> g * alpha(t).  A HolContext interns the
automorphism tuples it has seen and memoizes their pairwise compositions, so
holomorph arithmetic over big groups (A8 with 20160 elements) costs dictionary
lookups instead of repeated 20160-entry array compositions.

A regular embedding Gamma -> Hol(G) is stored as generator images.  Its
verification is exact, not sampled: the images are propagated over the whole
Cayley graph of Gamma with respect to a generating subset of the generators,
and every edge of that graph is checked, which proves the homomorphism law on
the subset; the image of every other generator is compared with the map's
value on it.  The map's values then give the orbit of the identity index
([g, alpha] . 0 = g), which has size |G| iff the image is regular (the image
order is at most |Gamma| = |G| and at least the orbit size).
"""

from __future__ import annotations

from .cayley import CayleyIndexedGroup, greedy_generating_set, index_group, regular_table
from .perm import CapExceeded, PermGroup, Permutation, tidentity, tinv, tmul

EMBEDDING_MAP_CAP = 10**5


class HolContext:
    """Arithmetic context for Hol(G) over a Cayley-indexed group."""

    def __init__(self, indexed: CayleyIndexedGroup):
        self.group = indexed
        self.n = indexed.n
        self._alpha_of = {}
        self._alphas = []
        self._compose_memo = {}
        self._inverse_memo = {}
        self._conjugation_memo = {}
        self.identity_alpha = self.intern_alpha(tidentity(self.n))
        self.identity = (0, self.identity_alpha)

    # -- automorphism interning -------------------------------------------------

    def intern_alpha(self, alpha) -> int:
        alpha = tuple(alpha)
        known = self._alpha_of.get(alpha)
        if known is not None:
            return known
        if alpha[0] != 0:
            raise ValueError("automorphism must fix the identity index")
        aid = len(self._alphas)
        self._alpha_of[alpha] = aid
        self._alphas.append(alpha)
        return aid

    def alpha_tuple(self, aid: int):
        return self._alphas[aid]

    def compose_alphas(self, a: int, b: int) -> int:
        if a == self.identity_alpha:
            return b
        if b == self.identity_alpha:
            return a
        memo = self._compose_memo
        key = (a, b)
        known = memo.get(key)
        if known is None:
            known = self.intern_alpha(tmul(self._alphas[a], self._alphas[b]))
            memo[key] = known
        return known

    def invert_alpha(self, a: int) -> int:
        known = self._inverse_memo.get(a)
        if known is None:
            known = self.intern_alpha(tinv(self._alphas[a]))
            self._inverse_memo[a] = known
            self._inverse_memo[known] = a
        return known

    def conjugation(self, g: int) -> int:
        """C(g): x -> g x g^-1, interned."""
        known = self._conjugation_memo.get(g)
        if known is None:
            known = self.intern_alpha(tuple(self.group.conj(g, x) for x in range(self.n)))
            self._conjugation_memo[g] = known
        return known

    def is_automorphism(self, alpha) -> bool:
        """Check that a tuple respects the whole multiplication table."""
        alpha = tuple(alpha)
        if alpha[0] != 0 or sorted(alpha) != list(range(self.n)):
            return False
        mult = self.group.mult
        return all(
            alpha[mult(x, y)] == mult(alpha[x], alpha[y])
            for x in range(self.n)
            for y in range(self.n)
        )

    # -- pair arithmetic -----------------------------------------------------------

    def mult(self, x, y):
        """[g1,a1][g2,a2] = [g1 * a1(g2), a1 a2]."""
        g1, a1 = x
        g2, a2 = y
        return (self.group.mult(g1, self._alphas[a1][g2]), self.compose_alphas(a1, a2))

    def inv(self, x):
        g, a = x
        a_inv = self.invert_alpha(a)
        return (self._alphas[a_inv][self.group.inv(g)], a_inv)

    def act(self, x, t: int) -> int:
        """[g, alpha] . t = g * alpha(t)."""
        g, a = x
        return self.group.mult(g, self._alphas[a][t])

    def action_perm(self, g: int, alpha):
        """The degree-n permutation t -> g * alpha(t) of [g, alpha], for an
        automorphism given as a tuple (nothing is interned)."""
        group = self.group
        if group._table is not None:
            return tuple(map(group._table[g].__getitem__, alpha))
        return tuple(group.mult(g, a) for a in alpha)

    def element_perm(self, x):
        """The degree-n permutation tuple of a holomorph element."""
        g, a = x
        return self.action_perm(g, self._alphas[a])

    def decode_perm(self, perm):
        """Recover the unique pair [g, alpha] from its action permutation."""
        g = perm[0]
        return (g, self.intern_alpha(self.action_perm(self.group.inv(g), perm)))

    # -- distinguished elements ------------------------------------------------------

    def lam(self, g: int):
        """Left translation [g, id]."""
        return (g, self.identity_alpha)

    def rho(self, g: int):
        """Right translation by g^-1: [g^-1, C(g)] sends t to t * g^-1."""
        return (self.group.inv(g), self.conjugation(g))

    def serialize(self, x):
        g, a = x
        return {"g": g, "alpha": list(self._alphas[a])}


def hol_context(group: PermGroup | CayleyIndexedGroup) -> HolContext:
    indexed = group if isinstance(group, CayleyIndexedGroup) else index_group(group)
    return HolContext(indexed)


def conjugation_aut(ctx: HolContext, g: int):
    """The inner automorphism x -> g x g^-1 as an index tuple."""
    return ctx.alpha_tuple(ctx.conjugation(g))


def hol_group(group: PermGroup) -> PermGroup:
    """Hol(G) as a permutation group of degree |G| on element indices,
    generated by the left translations and Aut(G).  Order |G| * |Aut(G)|."""
    from .isoaut import automorphism_group, automorphism_group_order

    indexed = index_group(group)
    aut_group = automorphism_group(indexed)
    gens = []
    for g in indexed.generator_indices():
        perm = Permutation(indexed.left_translation(g))
        if not perm.is_identity():
            gens.append(perm)
    gens.extend(aut_group.generators)
    result = PermGroup(gens, degree=indexed.n) if gens else PermGroup.trivial(indexed.n)
    expected = indexed.n * automorphism_group_order(indexed)
    if result.order() != expected:
        raise AssertionError(
            "Hol(G) has order %d, expected %d" % (result.order(), expected)
        )
    return result


def homomorphism_map(source: PermGroup, gen_images, mult, identity, cap: int | None = None) -> dict:
    """A homomorphism from source, given by one image per generator, on every
    element: a dict perm-tuple -> image.  mult and identity are the target's.

    Built by BFS over the Cayley graph of a generating subset.  Generators are
    taken in order: one already in the map only has its image compared with
    the map's value; any other is kept and extends the BFS, which checks the
    old elements against it and each new element against every kept
    generator.  So every edge of the kept generators is checked once, and
    success proves the homomorphism law exhaustively.  The map's domain is
    the source group itself; past cap elements the BFS stops (CapExceeded).
    """
    gen_images = list(gen_images)
    if len(gen_images) != len(source.generators):
        raise ValueError("need one image per generator")
    start = tidentity(source.degree)
    mapping = {start: identity}
    queue = [start]
    kept = []
    for gen, gen_image in zip(source.generators, gen_images):
        known = mapping.get(gen.images)
        if known is not None:
            if known != gen_image:
                raise ValueError("generator images do not define a homomorphism")
            continue
        kept.append((gen.images, gen_image))
        newest = kept[-1:]
        old = len(queue)
        for position, current in enumerate(queue):  # the queue grows while it is read
            image = mapping[current]
            for gen_perm, image_of_gen in newest if position < old else kept:
                product = tmul(current, gen_perm)
                product_image = mult(image, image_of_gen)
                known = mapping.get(product)
                if known is None:
                    if cap is not None and len(mapping) >= cap:
                        raise CapExceeded("embedding map cap %d exceeded" % cap)
                    mapping[product] = product_image
                    queue.append(product)
                elif known != product_image:
                    raise ValueError("generator images do not define a homomorphism")
    return mapping


class RegularEmbedding:
    """A homomorphism Gamma -> Hol(G) given on generators, with a regularity
    certificate filled in by verify()."""

    def __init__(self, source: PermGroup, ctx: HolContext, images):
        if len(images) != len(source.generators):
            raise ValueError("need one image per generator")
        self.source = source
        self.ctx = ctx
        self.images = [tuple(x) for x in images]
        self.certificate = None
        self._map = None

    @classmethod
    def from_subgroup(cls, ctx: HolContext, element_perms) -> "RegularEmbedding":
        """Inclusion embedding of a regular subgroup of Hol(G) given by the
        action permutation tuples of all its elements (ValueError otherwise),
        generated by a greedy generating set of its Cayley table."""
        table = regular_table(element_perms)
        gens, _ = greedy_generating_set(table)
        source = PermGroup([table.elements[i] for i in gens], degree=ctx.n)
        return cls(source, ctx, [ctx.decode_perm(g.images) for g in source.generators])

    def full_map(self):
        """beta on every element of Gamma: a dict perm-tuple -> hol pair
        (see homomorphism_map), refused past EMBEDDING_MAP_CAP elements."""
        if self._map is None:
            self._map = homomorphism_map(
                self.source, self.images, self.ctx.mult, self.ctx.identity,
                cap=EMBEDDING_MAP_CAP,
            )
        return self._map

    def image_orbit_size(self) -> int:
        """Size of the orbit of the identity index under the image, read off
        the map: [g, alpha] . 0 = g."""
        return len({g for g, _ in self.full_map().values()})

    def verify(self) -> dict:
        """Prove the homomorphism law and regularity; returns the certificate.

        Regularity argument: |image| <= |Gamma| always, and |image| >= orbit
        size of the identity point; with |Gamma| = |G| = n and orbit size n the
        image is transitive of order exactly n, hence regular, and beta is
        injective.  |Gamma| is the size of the map's domain.
        """
        if self.certificate is not None:
            return self.certificate
        n = self.ctx.n
        source_order = len(self.full_map())  # raises if not a homomorphism
        orbit = self.image_orbit_size()
        regular = source_order == n and orbit == n
        self.certificate = {
            "homomorphism": True,
            "source_order": source_order,
            "degree": n,
            "orbit_size": orbit,
            "regular": regular,
            "injective": regular,
        }
        return self.certificate

    def is_regular(self) -> bool:
        return self.verify()["regular"]

    def serialize(self):
        return {
            "generators": [g.cycle_string() for g in self.source.generators],
            "images": [self.ctx.serialize(x) for x in self.images],
        }


def lambda_embedding(ctx: HolContext, source: PermGroup | None = None) -> RegularEmbedding:
    """The left regular embedding of G itself into Hol(G)."""
    group = ctx.group
    if source is None:
        source = group.source
    images = [ctx.lam(group.index[g.images]) for g in source.generators]
    return RegularEmbedding(source, ctx, images)


def rho_embedding(ctx: HolContext, source: PermGroup | None = None) -> RegularEmbedding:
    """The right regular embedding g -> [g^-1, C(g)]."""
    group = ctx.group
    if source is None:
        source = group.source
    images = [ctx.rho(group.index[g.images]) for g in source.generators]
    return RegularEmbedding(source, ctx, images)
