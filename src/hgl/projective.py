"""Projective groups PSL2(q), PGL2(q), PGammaL2(q) on the projective line,
plus PSL3(2) on the Fano plane.

Points of P^1(F_q) are numbered 0..q-1 for the affine points [x:1] (x in field
encoding order) and q for [1:0].  PSL2 is generated by the two elementary
transvections of SL2; PGL2 adds a primitive-root scaling; PGammaL2 adjoins the
entrywise Frobenius of the field.
"""

from __future__ import annotations

from .gf import make_field
from .numtheory import prime_power
from .perm import CapExceeded, PermGroup, Permutation

PROJECTIVE_Q_CAP = 2**14


def _mobius_permutation(field, a, b, c, d) -> Permutation:
    """The map [x:y] -> [ax+by : cx+dy] on the q+1 points of the line."""
    q = field.q
    images = []
    for point in range(q + 1):
        x, y = (point, 1) if point < q else (1, 0)
        nx = field.add(field.mul(a, x), field.mul(b, y))
        ny = field.add(field.mul(c, x), field.mul(d, y))
        if ny == 0:
            images.append(q)
        else:
            images.append(field.mul(nx, field.inv(ny)))
    return Permutation(images)


def _frobenius_permutation(field) -> Permutation:
    q = field.q
    images = []
    for point in range(q + 1):
        if point == q:
            images.append(q)
        else:
            images.append(field.frobenius(point))
    return Permutation(images)


def projective_order(kind: str, q: int) -> int:
    """|PSL2(q)|, |PGL2(q)| or |PGammaL2(q)| (kind in any case) for a prime power q."""
    order = q * (q * q - 1)
    kind = kind.upper()
    if kind == "PSL2":
        return order // (2 if q % 2 else 1)
    if kind == "PGAMMAL2":
        return order * prime_power(q)[1]
    return order


def projective_group(kind: str, q: int) -> PermGroup:
    """PSL2 / PGL2 / PGammaL2 over F_q, acting on the q+1 points of the line.

    PSL2(q) is simple only for q >= 4; smaller q are still constructed.
    """
    if q > PROJECTIVE_Q_CAP:
        raise CapExceeded("q=%d exceeds cap %d" % (q, PROJECTIVE_Q_CAP))
    p, e = prime_power(q)
    field = make_field(p, e)
    # Elementary transvections with coefficients spanning F_q over F_p
    # generate SL2(q); unit coefficients alone only reach SL2(p).
    gens = []
    for i in range(e):
        basis = field.pow(field.x(), i) if e > 1 else 1
        gens.append(_mobius_permutation(field, 1, basis, 0, 1))
        gens.append(_mobius_permutation(field, 1, 0, basis, 1))
    kind = kind.upper()
    if kind in ("PGL2", "PGAMMAL2"):
        if q > 2:
            primitive = field.x()
            gens.append(_mobius_permutation(field, primitive, 0, 0, 1))  # x -> gx
    if kind == "PGAMMAL2":
        gens.append(_frobenius_permutation(field))
    elif kind not in ("PSL2", "PGL2"):
        raise ValueError("unknown kind %r" % kind)
    group = PermGroup(gens, degree=q + 1)
    expected = projective_order(kind, q)
    if group.order() != expected:
        raise AssertionError(
            "%s(%d) has order %d, expected %d" % (kind, q, group.order(), expected)
        )
    return group


def psl3_2() -> PermGroup:
    """PSL3(2) = GL3(2) acting on the 7 points of the Fano plane.

    Points are the nonzero vectors of F_2^3 encoded as bitmasks 1..7
    (point index = bitmask - 1); matrices act on row vectors.
    """
    def apply(matrix_rows, v):
        out = 0
        for i in range(3):
            if v >> i & 1:
                out ^= matrix_rows[i]
        return out

    # rows as bitmasks: transvection e1 -> e1+e2, and the basis 3-cycle
    transvection = [0b011, 0b010, 0b100]
    cycle = [0b010, 0b100, 0b001]
    gens = []
    for rows in (transvection, cycle):
        images = [apply(rows, v) - 1 for v in range(1, 8)]
        gens.append(Permutation(images))
    group = PermGroup(gens, degree=7)
    if group.order() != 168:
        raise AssertionError("PSL3(2) has order %d, expected 168" % group.order())
    return group
