"""Group-spec mini-language and constructors for the named groups.

Grammar (case-insensitive, whitespace ignored):

    atom    := C<n> | S<n> | A<n> | D<order> | F<order> | E(p,k)
             | PSL(2,q) | PGL(2,q) | PGammaL(2,q) | PSL(3,2) | PSU(4,2)
    spec    := atom ('x' atom)*

Dihedral and Frobenius atoms are named by group order (D8 is the dihedral
group of order 8; F21 requires an odd prime p with p(p-1)/2 = 21).  Products
act on the disjoint union of the factors' domains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial

from .numtheory import is_prime, least_primitive_root, prime_power
from .perm import PermGroup, Permutation, direct_product
from .projective import projective_group, projective_order, psl3_2
from .su42 import su42_permutation_group

BUILD_ORDER_CAP = 10**6


class SpecError(ValueError):
    """Parse or validation error, with the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class GroupSpec:
    """AST node: an atom (kind, params) or a product of atoms."""

    kind: str
    params: tuple = ()
    factors: tuple = ()

    def is_product(self) -> bool:
        return self.kind == "Product"

    def atoms(self):
        return self.factors if self.is_product() else (self,)

    def __str__(self):
        if self.is_product():
            return "x".join(str(f) for f in self.factors)
        k = self.kind
        if k == "Frobenius":
            p = self.params[0]
            return "F%d" % (p * (p - 1) // 2)
        if k in ("Cyclic", "Sym", "Alt", "Dihedral"):
            return {"Cyclic": "C", "Sym": "S", "Alt": "A", "Dihedral": "D"}[k] + str(self.params[0])
        if k == "ElemAb":
            return "E(%d,%d)" % self.params
        if k in ("PSL2", "PGL2", "PGammaL2"):
            return {"PSL2": "PSL(2,%d)", "PGL2": "PGL(2,%d)", "PGammaL2": "PGammaL(2,%d)"}[k] % self.params[0]
        if k == "PSL3_2":
            return "PSL(3,2)"
        if k == "PSU4_2":
            return "PSU(4,2)"
        return k


_ATOM_RE = re.compile(
    r"""
    (?P<letter>[CSADF])(?P<num>\d+)
    | (?P<e>E)\((?P<ep>\d+),(?P<ek>\d+)\)
    | (?P<proj>PSL|PGL|PGAMMAL|PSU)\((?P<pm>\d+),(?P<pq>\d+)\)
    """,
    re.IGNORECASE | re.VERBOSE,
)


def _parse_atom(text: str, position: int) -> GroupSpec:
    match = _ATOM_RE.fullmatch(text)
    if match is None:
        raise SpecError("unknown atom %r" % text, position)
    if match.group("letter"):
        letter = match.group("letter").upper()
        n = int(match.group("num"))
        if letter == "C":
            if n < 1:
                raise SpecError("C%d: order must be >= 1" % n, position)
            return GroupSpec("Cyclic", (n,))
        if letter == "S":
            if n < 1:
                raise SpecError("S%d: degree must be >= 1" % n, position)
            return GroupSpec("Sym", (n,))
        if letter == "A":
            if n < 3:
                raise SpecError("A%d: degree must be >= 3" % n, position)
            return GroupSpec("Alt", (n,))
        if letter == "D":
            if n < 4 or n % 2:
                raise SpecError("D%d: dihedral order must be even and >= 4" % n, position)
            return GroupSpec("Dihedral", (n,))
        if letter == "F":
            # n = p(p-1)/2 for an odd prime p
            for p in range(3, 2 * n + 2):
                if p * (p - 1) // 2 == n and is_prime(p):
                    return GroupSpec("Frobenius", (p,))
                if p * (p - 1) // 2 > n:
                    break
            raise SpecError(
                "F%d: no odd prime p with p(p-1)/2 = %d" % (n, n), position
            )
    if match.group("e"):
        p, k = int(match.group("ep")), int(match.group("ek"))
        if not is_prime(p):
            raise SpecError("E(%d,%d): %d is not prime" % (p, k, p), position)
        if k < 1:
            raise SpecError("E(%d,%d): exponent must be >= 1" % (p, k), position)
        return GroupSpec("ElemAb", (p, k))
    family = match.group("proj").upper()
    m, q = int(match.group("pm")), int(match.group("pq"))
    if family == "PSU":
        if (m, q) != (4, 2):
            raise SpecError("only PSU(4,2) is supported", position)
        return GroupSpec("PSU4_2")
    if family == "PSL" and (m, q) == (3, 2):
        return GroupSpec("PSL3_2")
    if m != 2:
        raise SpecError("only dimension 2 is supported for %s (and PSL(3,2))" % family, position)
    try:
        prime_power(q)
    except ValueError:
        raise SpecError(
            "%s(2,%d): q must be a prime power >= 2" % (family, q), position
        ) from None
    kind = {"PSL": "PSL2", "PGL": "PGL2", "PGAMMAL": "PGammaL2"}[family]
    return GroupSpec(kind, (q,))


def split_outside_parens(text: str, separators: str):
    """Split text at the separator characters that are not inside
    parentheses (so E(p,k) and PSL(2,q) arguments stay whole)."""
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch in separators and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    return parts


def parse_spec(text: str) -> GroupSpec:
    """Parse a group spec like "A4xC5" or "F21xD8"."""
    stripped = "".join(text.split())
    if not stripped:
        raise SpecError("empty group spec", 0)
    atoms = []
    position = 0
    for part in split_outside_parens(stripped, "xX"):
        if not part:
            raise SpecError("empty factor in product", position)
        atoms.append(_parse_atom(part, position))
        position += len(part) + 1
    if len(atoms) == 1:
        return atoms[0]
    return GroupSpec("Product", factors=tuple(atoms))


# -- construction ---------------------------------------------------------------


def _cyclic(n: int) -> PermGroup:
    if n == 1:
        return PermGroup.trivial(1)
    return PermGroup([Permutation([(t + 1) % n for t in range(n)])])


def _symmetric(n: int) -> PermGroup:
    if n == 1:
        return PermGroup.trivial(1)
    gens = [Permutation.from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(Permutation.from_cycles([list(range(n))], n))
    return PermGroup(gens, degree=n)


def _alternating(n: int) -> PermGroup:
    if n == 3:
        return PermGroup([Permutation.from_cycles([[0, 1, 2]], 3)])
    gens = [Permutation.from_cycles([[0, 1, 2]], n)]
    if n % 2:
        gens.append(Permutation.from_cycles([list(range(n))], n))
    else:
        gens.append(Permutation.from_cycles([list(range(1, n))], n))
    return PermGroup(gens, degree=n)


def _dihedral(order: int) -> PermGroup:
    m = order // 2
    if m == 2:
        return PermGroup([Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])
    rotation = Permutation([(t + 1) % m for t in range(m)])
    reflection = Permutation([(m - t) % m for t in range(m)])
    return PermGroup([rotation, reflection], degree=m)


def _frobenius(p: int) -> PermGroup:
    root = least_primitive_root(p)
    multiplier = root * root % p  # order (p-1)/2
    translation = Permutation([(t + 1) % p for t in range(p)])
    scaling = Permutation([t * multiplier % p for t in range(p)])
    return PermGroup([translation, scaling], degree=p)


def _elem_abelian(p: int, k: int) -> PermGroup:
    return direct_product([_cyclic(p) for _ in range(k)])


def atom_order(spec: GroupSpec) -> int:
    k = spec.kind
    if k == "Cyclic":
        return spec.params[0]
    if k == "Sym":
        return factorial(spec.params[0])
    if k == "Alt":
        return max(factorial(spec.params[0]) // 2, 1)
    if k in ("Dihedral",):
        return spec.params[0]
    if k == "Frobenius":
        p = spec.params[0]
        return p * (p - 1) // 2
    if k == "ElemAb":
        p, e = spec.params
        return p**e
    if k in ("PSL2", "PGL2", "PGammaL2"):
        return projective_order(k, spec.params[0])
    if k == "PSL3_2":
        return 168
    if k == "PSU4_2":
        return 25920
    if k == "Product":
        out = 1
        for f in spec.factors:
            out *= atom_order(f)
        return out
    raise SpecError("unknown spec kind %r" % k)


def build_group(spec: GroupSpec) -> PermGroup:
    """Build the permutation group of a spec (order capped at 10^6)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    expected = atom_order(spec)
    if expected > BUILD_ORDER_CAP:
        raise SpecError("order %d exceeds build cap %d" % (expected, BUILD_ORDER_CAP))
    group = _build(spec)
    if group.order() != expected:
        raise AssertionError(
            "built %s with order %d, expected %d" % (spec, group.order(), expected)
        )
    return group


def _build(spec: GroupSpec) -> PermGroup:
    k = spec.kind
    if k == "Product":
        return direct_product([_build(f) for f in spec.factors])
    if k == "Cyclic":
        return _cyclic(spec.params[0])
    if k == "Sym":
        return _symmetric(spec.params[0])
    if k == "Alt":
        return _alternating(spec.params[0])
    if k == "Dihedral":
        return _dihedral(spec.params[0])
    if k == "Frobenius":
        return _frobenius(spec.params[0])
    if k == "ElemAb":
        return _elem_abelian(*spec.params)
    if k == "PSL2":
        return projective_group("PSL2", spec.params[0])
    if k == "PGL2":
        return projective_group("PGL2", spec.params[0])
    if k == "PGammaL2":
        return projective_group("PGammaL2", spec.params[0])
    if k == "PSL3_2":
        return psl3_2()
    if k == "PSU4_2":
        return su42_permutation_group()
    raise SpecError("unknown spec kind %r" % k)


def known_aut_group(spec: GroupSpec) -> PermGroup:
    """Catalog automorphism groups: Aut(A_n) = S_n (n != 6), Aut(A_6) realized
    as PGammaL2(9), Aut(PSL2(q)) = PGammaL2(q).

    This is catalog data, not a computation; the general path is in isoaut.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "Alt":
        n = spec.params[0]
        if not 5 <= n <= 8:
            raise SpecError("known_aut_group supports Alt n for 5 <= n <= 8")
        if n == 6:
            return projective_group("PGammaL2", 9)
        return _symmetric(n)
    if spec.kind == "PSL2":
        q = spec.params[0]
        if q > 13:
            raise SpecError("known_aut_group supports PSL2(q) for q <= 13")
        return projective_group("PGammaL2", q)
    raise SpecError("no catalog automorphism group for %s" % spec)
