"""Permutations and permutation groups with deterministic stabilizer chains.

Permutations act on the points 0..degree-1 and are stored as image tuples.
Groups carry a stabilizer chain built by a plain deterministic Schreier-Sims
(base points in increasing order, generators processed in sorted order), which
gives exact orders, membership tests and point stabilizers at desk scale.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce
from math import lcm
from operator import itemgetter


SERIES_CAP = 10**6  # derived and lower central series
ELEMENTS_CAP = 10**5  # element lists: by default, Sylow subgroups, order multisets


class CapExceeded(ValueError):
    """A size cap refused the input before the expensive step."""


class Permutation:
    """A permutation of {0..degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if len(images) == 0:
            raise ValueError("degree-0 permutations are not allowed")
        if set(images) != set(range(len(images))):
            raise ValueError("images are not a bijection of 0..%d" % (len(images) - 1))
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build a permutation from a list of cycles (lists of points)."""
        images = list(range(degree))
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError("repeated point in cycle %r" % (cycle,))
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
        stripped = text.replace(",", " ").strip()
        if stripped in ("", "()"):
            return cls.identity(degree)
        if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\)\s*)+", stripped):
            raise ValueError("cannot parse cycle notation: %r" % text)
        cycles = [
            [int(tok) for tok in body.split()]
            for body in re.findall(r"\(([^()]*)\)", stripped)
        ]
        return cls.from_cycles(cycles, degree)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(t) = self(other(t))."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        imgs = self.images
        return Permutation(tuple(imgs[t] for t in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Disjoint cycles, each starting at its least point, sorted by it."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            point = self.images[start]
            while point != start:
                seen[point] = True
                cycle.append(point)
                point = self.images[point]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return reduce(lcm, (len(c) for c in self.cycles()), 1)

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % " ".join(map(str, c)) for c in cyc)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s, degree=%d)" % (self.cycle_string(), self.degree)


# Tuple-level helpers used by the hot loops (closure searches, holomorph
# arithmetic).  They skip Permutation construction overhead on purpose.

def tmul(p, q):
    """Compose image tuples: (p*q)[t] = p[q[t]]."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[t] for t in q)  # itemgetter of one index returns a scalar


def tinv(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def tidentity(n):
    return tuple(range(n))


def tuple_order(p) -> int:
    seen = [False] * len(p)
    result = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        point = p[start]
        while point != start:
            seen[point] = True
            length += 1
            point = p[point]
        result = lcm(result, length)
    return result


def is_uniform_cycle_tuple(p) -> bool:
    """True iff all cycles of p have equal length (p generates a semiregular
    cyclic group)."""
    seen = [False] * len(p)
    common = None
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        point = p[start]
        while point != start:
            seen[point] = True
            length += 1
            point = p[point]
        if common is None:
            common = length
        elif length != common:
            return False
    return True


class _ChainLevel:
    """One level of a stabilizer chain: a base point, its orbit with Schreier
    vector, and the generators of the group at this level."""

    __slots__ = ("base", "gens", "orbit", "vector", "_transversal")

    def __init__(self, base, gens):
        self.base = base
        self.gens = gens
        self.orbit, self.vector = self._span(base, gens)
        self._transversal = {base: tidentity(len(gens[0]))}

    @staticmethod
    def _span(base, gens):
        orbit = [base]
        vector = {base: None}
        queue = [base]
        while queue:
            point = queue.pop(0)
            for gi, g in enumerate(gens):
                image = g[point]
                if image not in vector:
                    vector[image] = (gi, point)
                    orbit.append(image)
                    queue.append(image)
        return orbit, vector

    def transversal(self, point):
        """Element u with u(base) = point, as an image tuple."""
        cached = self._transversal.get(point)
        if cached is not None:
            return cached
        gi, prev = self.vector[point]
        u = tmul(self.gens[gi], self.transversal(prev))
        self._transversal[point] = u
        return u

    def schreier_generators(self):
        """The non-identity Schreier generators of the stabilizer of the base
        point, as a set (filled in orbit order, then generator order)."""
        out = set()
        for point in self.orbit:
            u_point = self.transversal(point)
            for g in self.gens:
                image = g[point]
                s = tmul(tinv(self.transversal(image)), tmul(g, u_point))
                if any(i != j for i, j in enumerate(s)):
                    out.add(s)
        return out


class PermGroup:
    """A permutation group given by generators, with a lazily-built
    deterministic stabilizer chain.

    The chain uses base points in increasing order of least moved point, so
    orders, element enumeration and every search built on top are reproducible
    run to run.
    """

    def __init__(self, generators, degree: int | None = None):
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            gens.append(g)
        if degree is None:
            if not gens:
                raise ValueError("degree required for a group with no generators")
            degree = gens[0].degree
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != group degree %d" % (g.degree, degree))
        self.degree = degree
        # construction order is preserved (callers align data with generator
        # positions); identity and duplicate generators are dropped
        kept = []
        seen = set()
        for g in gens:
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            kept.append(g)
        self.generators = tuple(kept)
        self._chain = None
        self._order = None
        self._nilpotent = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls([], degree=degree)

    # -- stabilizer chain ---------------------------------------------------

    def _build_chain(self, first_base: int | None = None):
        levels = []
        gens = [g.images for g in self.generators]
        degree = self.degree
        while gens:
            moved = sorted({t for g in gens for t in range(degree) if g[t] != t})
            if not moved:
                break
            if first_base is not None and levels == [] and first_base in moved:
                base = first_base
            else:
                base = moved[0]
            level = _ChainLevel(base, sorted(gens))
            levels.append(level)
            gens = sorted(level.schreier_generators())
        return levels

    @property
    def chain(self):
        if self._chain is None:
            self._chain = self._build_chain()
        return self._chain

    def order(self) -> int:
        if self._order is None:
            result = 1
            for level in self.chain:
                result *= len(level.orbit)
            self._order = result
        return self._order

    def _sift(self, images):
        for level in self.chain:
            point = images[level.base]
            if point == level.base:
                continue
            if point not in level.vector:
                return images
            images = tmul(tinv(level.transversal(point)), images)
        return images

    def __contains__(self, perm) -> bool:
        images = perm.images if isinstance(perm, Permutation) else tuple(perm)
        if len(images) != self.degree:
            return False
        residue = self._sift(images)
        return all(i == j for i, j in enumerate(residue))

    # -- predicates ----------------------------------------------------------

    def orbit(self, point: int):
        """Orbit of a point, in BFS discovery order."""
        seen = {point}
        queue = [point]
        out = [point]
        gens = [g.images for g in self.generators]
        while queue:
            current = queue.pop(0)
            for g in gens:
                image = g[current]
                if image not in seen:
                    seen.add(image)
                    out.append(image)
                    queue.append(image)
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order() == self.degree

    def is_semiregular(self) -> bool:
        """True iff no non-identity element fixes a point: equivalently every
        point stabilizer in the chain-with-that-base is trivial."""
        for point in range(self.degree):
            if self.point_stabilizer(point).order() != 1:
                return False
        return True

    def is_abelian(self) -> bool:
        return all(
            tmul(a.images, b.images) == tmul(b.images, a.images)
            for a, b in itertools.combinations(self.generators, 2)
        )

    # -- subgroups -----------------------------------------------------------

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, from a chain rebuilt with that base first."""
        if all(g.images[point] == point for g in self.generators):
            return self
        levels = self._build_chain(first_base=point)
        if not levels or levels[0].base != point:
            return self
        return PermGroup(
            [Permutation(s) for s in levels[0].schreier_generators()], degree=self.degree
        )

    def subgroup(self, perms) -> "PermGroup":
        return PermGroup(list(perms), degree=self.degree)

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup of self containing the seed permutations."""
        closure_gens = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
        closure_gens = [s for s in closure_gens if not s.is_identity()]
        group = PermGroup(closure_gens, degree=self.degree)
        outer = [g.images for g in self.generators]
        changed = True
        while changed:
            changed = False
            for s in list(group.generators):
                for g in outer:
                    conj = tmul(g, tmul(s.images, tinv(g)))
                    if conj not in group:
                        closure_gens.append(Permutation(conj))
                        group = PermGroup(closure_gens, degree=self.degree)
                        changed = True
        return group

    def derived_subgroup(self) -> "PermGroup":
        commutators = []
        gens = self.generators
        for a, b in itertools.combinations(gens, 2):
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity():
                commutators.append(c)
        return self.normal_closure(commutators)

    def is_soluble(self) -> bool:
        if self.order() > SERIES_CAP:
            raise CapExceeded("solubility cap %d exceeded: order %d" % (SERIES_CAP, self.order()))
        current = self
        while current.order() > 1:
            derived = current.derived_subgroup()
            if derived.order() == current.order():
                return False
            current = derived
        return True

    def is_nilpotent(self) -> bool:
        if self.order() > SERIES_CAP:
            raise CapExceeded("nilpotency cap %d exceeded: order %d" % (SERIES_CAP, self.order()))
        if self._nilpotent is None:
            # the lower central series either reaches 1 or stalls above it
            current = self
            while current.order() > 1:
                commutators = []
                for a in self.generators:
                    for b in current.generators:
                        c = a.inverse() * b.inverse() * a * b
                        if not c.is_identity():
                            commutators.append(c)
                lower = self.normal_closure(commutators)
                if lower.order() == current.order():
                    break
                current = lower
            self._nilpotent = current.order() == 1
        return self._nilpotent

    # -- element enumeration --------------------------------------------------

    def elements(self, cap: int = ELEMENTS_CAP):
        """All elements as a list of Permutations, BFS from the identity over
        the sorted generators (deterministic order, identity first)."""
        if self.order() > cap:
            raise CapExceeded("enumeration cap %d exceeded: order %d" % (cap, self.order()))
        identity = tidentity(self.degree)
        seen = {identity}
        out = [identity]
        queue = [identity]
        gens = sorted(g.images for g in self.generators)
        while queue:
            current = queue.pop(0)
            for g in gens:
                product = tmul(current, g)
                if product not in seen:
                    seen.add(product)
                    out.append(product)
                    queue.append(product)
        return [Permutation(p) for p in out]

    def random_element(self, rng):
        """A plain random word in the generators (not uniform; test helper)."""
        if not self.generators:
            return Permutation.identity(self.degree)
        word = tidentity(self.degree)
        for _ in range(rng.randrange(1, 30)):
            word = tmul(word, rng.choice(self.generators).images)
        return Permutation(word)

    def __repr__(self):
        return "PermGroup(degree=%d, ngens=%d)" % (self.degree, len(self.generators))


def group_from_generators(gens) -> PermGroup:
    """Group generated by a nonempty list of same-degree permutations."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list; use PermGroup.trivial(degree)")
    return PermGroup(gens)


def is_regular(group: PermGroup) -> bool:
    return group.is_regular()


def is_semiregular(group: PermGroup) -> bool:
    return group.is_semiregular()


def sylow_subgroup(group: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, by growing a p-subgroup along normalizing p-elements.

    Works by element enumeration, so it is limited to |G| <= ELEMENTS_CAP.
    """
    order = group.order()
    target = 1
    while order % p == 0:
        order //= p
        target *= p
    if target == 1:
        return PermGroup.trivial(group.degree)
    elements = group.elements(cap=ELEMENTS_CAP)
    p_elements = [g for g in elements if g.order() > 1 and g.order() % p == 0]
    p_elements = [g ** (g.order() // (p ** _p_valuation(g.order(), p))) for g in p_elements]
    p_elements = sorted({g.images for g in p_elements})
    current_gens = [p_elements[0]]
    current = PermGroup([Permutation(p_elements[0])], degree=group.degree)
    while current.order() < target:
        for candidate in p_elements:
            if candidate in current:
                continue
            extended = PermGroup(
                [Permutation(t) for t in current_gens + [candidate]], degree=group.degree
            )
            ext_order = extended.order()
            if ext_order == p ** _p_valuation(ext_order, p) and ext_order <= target:
                current_gens.append(candidate)
                current = extended
                break
        else:
            raise RuntimeError("Sylow search stalled (should not happen)")
    return current


def _p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def brute_closure(gens, cap: int = 10**6):
    """Exhaustive product closure of a set of permutations, or None once it
    would exceed cap elements.  Independent of the stabilizer chain; used as
    an oracle in tests and for small searches."""
    gens = [g.images if isinstance(g, Permutation) else tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one permutation")
    identity = tidentity(len(gens[0]))
    seen = {identity}
    queue = [identity]
    while queue:
        current = queue.pop()
        for g in gens:
            product = tmul(current, g)
            if product not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(product)
                queue.append(product)
    return seen


def orbit_minima(items, maps):
    """The least item of each orbit of the group generated by `maps`
    (functions that must permute `items`; ValueError otherwise), in
    increasing order."""
    members = set(items)
    seen = set()
    minima = []
    for item in sorted(members):
        if item in seen:
            continue
        minima.append(item)
        seen.add(item)
        queue = [item]
        for current in queue:  # the queue grows while it is read
            for move in maps:
                image = move(current)
                if image not in seen:
                    if image not in members:
                        raise ValueError("a map leaves the set it acts on")
                    seen.add(image)
                    queue.append(image)
    return minima


def conjugators(group: PermGroup):
    """h -> theta h theta^-1 on permutation tuples, one per generator theta."""
    return [
        lambda h, theta=g.images, theta_inv=tinv(g.images): tmul(theta, tmul(h, theta_inv))
        for g in group.generators
    ]


def reduce_generators(perms, target_order: int):
    """Greedy generating subset of an element list: keep each permutation not
    yet in the group generated so far, until that group has target_order."""
    chosen = []
    current = None
    for p in perms:
        if current is not None and p in current:
            continue
        chosen.append(p)
        current = PermGroup(chosen, degree=p.degree)
        if current.order() == target_order:
            break
    return chosen


def direct_product(groups) -> PermGroup:
    """Direct product acting on the disjoint union of the factors' domains."""
    groups = list(groups)
    total = sum(g.degree for g in groups)
    gens = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            images = list(range(total))
            for t, image in enumerate(gen.images):
                images[offset + t] = offset + image
            gens.append(Permutation(images))
        offset += g.degree
    return PermGroup(gens, degree=total)


def element_orders_multiset(group: PermGroup):
    """Sorted list of the orders of all elements of the group."""
    return sorted(g.order() for g in group.elements(cap=ELEMENTS_CAP))
