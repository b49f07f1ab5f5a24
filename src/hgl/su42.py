"""SU4(2) over GF(4): the unitary form, its 27 isotropic planes, and the
order-27 regular subgroup generated by two explicit matrices.

Row-vector convention throughout: vectors are rows and matrices act by right
multiplication, so the image of the plane spanned by rows r1, r2 under M is
the row span of r1*M, r2*M.  Planes are canonicalised by reduced row echelon
form over GF(4); the sorted list of RREF keys fixes the point numbering of the
27-point action.
"""

from __future__ import annotations

import itertools
import random

from .gf import GF, MatrixGF, make_field
from .perm import PermGroup, Permutation


def field4() -> GF:
    return make_field(2, 2)


def form_matrix() -> MatrixGF:
    """Gram matrix of the sesquilinear form: (e_i,e_j)=(f_i,f_j)=0,
    (e_i,f_j)=delta_ij, in basis order e1, f1, e2, f2."""
    f4 = field4()
    return MatrixGF(f4, [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])


def form_value(u, v) -> int:
    """(u, v) = u * F * conj(v)^T for row vectors u, v."""
    f4 = field4()
    fm = form_matrix().rows
    acc = 0
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj and fm[i][j]:
                acc = f4.add(acc, f4.mul(ui, f4.mul(fm[i][j], f4.conj(vj))))
    return acc


def su42_contains(m: MatrixGF) -> bool:
    """True iff det M = 1 and M F conj(M)^T = F (M is 4x4 over GF(4))."""
    if m.field != field4() or m.nrows != 4 or m.ncols != 4:
        raise ValueError("expected a 4x4 matrix over GF(4)")
    if m.det() != 1:
        return False
    f = form_matrix()
    return m * f * m.conj_transpose() == f


def order27_generators():
    """The two explicit order-9 / order-3 generators of the regular subgroup."""
    f4 = field4()
    a = MatrixGF.from_strings(f4, [
        ["1", "w", "1", "w2"],
        ["w2", "1", "w", "1"],
        ["1", "w2", "1", "w"],
        ["w2", "w", "w", "w2"],
    ])
    b = MatrixGF.from_strings(f4, [
        ["1", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])
    return a, b


_PLANES_CACHE = None


def isotropic_planes():
    """All 27 totally isotropic 2-dimensional subspaces of GF(4)^4, as RREF
    basis matrices sorted by their row tuples."""
    global _PLANES_CACHE
    if _PLANES_CACHE is not None:
        return _PLANES_CACHE
    f4 = field4()
    planes = []
    for c1, c2 in itertools.combinations(range(4), 2):
        free1 = [c for c in range(c1 + 1, 4) if c != c2]
        free2 = [c for c in range(c2 + 1, 4)]
        for vals1 in itertools.product(f4.elements(), repeat=len(free1)):
            row1 = [0, 0, 0, 0]
            row1[c1] = 1
            for c, v in zip(free1, vals1):
                row1[c] = v
            for vals2 in itertools.product(f4.elements(), repeat=len(free2)):
                row2 = [0, 0, 0, 0]
                row2[c2] = 1
                for c, v in zip(free2, vals2):
                    row2[c] = v
                if (
                    form_value(row1, row1) == 0
                    and form_value(row2, row2) == 0
                    and form_value(row1, row2) == 0
                    and form_value(row2, row1) == 0
                ):
                    planes.append(MatrixGF(f4, [row1, row2]))
    planes.sort(key=lambda p: p.rows)
    _PLANES_CACHE = planes
    return planes


def plane_w() -> MatrixGF:
    """The maximal isotropic subspace W = span(e1, e2)."""
    return MatrixGF(field4(), [[1, 0, 0, 0], [0, 0, 1, 0]])


def action_on_planes(m: MatrixGF) -> Permutation:
    """The permutation of the canonical plane list induced by v -> v*M.

    Right multiplication is a right action, so these permutations compose
    diagrammatically: as Permutation products (which apply right factor
    first), action_on_planes(M * N) == action_on_planes(N) *
    action_on_planes(M).
    """
    if not su42_contains(m):
        raise ValueError("matrix is not in SU4(2)")
    planes = isotropic_planes()
    index = {p.rows: i for i, p in enumerate(planes)}
    images = []
    for p in planes:
        image = (p * m).rref()
        images.append(index[image.rows])
    return Permutation(images)


def unitary_transvection(u) -> MatrixGF:
    """v -> v + (v,u)u for an isotropic row vector u (form-preserving in
    characteristic 2, determinant 1)."""
    f4 = field4()
    rows = []
    for i in range(4):
        e_i = [1 if j == i else 0 for j in range(4)]
        scale = form_value(e_i, u)
        rows.append([f4.add(e_i[j], f4.mul(scale, u[j])) for j in range(4)])
    return MatrixGF(f4, rows)


def isotropic_vectors():
    f4 = field4()
    return [
        v
        for v in itertools.product(f4.elements(), repeat=4)
        if any(v) and form_value(v, v) == 0
    ]


_GROUP_CACHE = None


def su42_permutation_group(seed: int = 0) -> PermGroup:
    """SU4(2) as a permutation group on the 27 isotropic planes.

    Starts from the two explicit matrices and extends by randomly chosen
    unitary transvections (every candidate re-validated by su42_contains)
    until the plane action reaches order 25920.  The seeded RNG makes the
    generator list reproducible.
    """
    global _GROUP_CACHE
    if _GROUP_CACHE is not None and seed == 0:
        return _GROUP_CACHE
    a, b = order27_generators()
    pool = [a, b]
    rng = random.Random(seed)
    vectors = isotropic_vectors()
    gens = [action_on_planes(m) for m in pool]
    group = PermGroup(gens, degree=27)
    attempts = 0
    while group.order() != 25920:
        attempts += 1
        if attempts > 500:
            raise RuntimeError("SU4(2) generator search did not converge")
        candidate = unitary_transvection(vectors[rng.randrange(len(vectors))])
        if not su42_contains(candidate):
            raise AssertionError("transvection left the group (impossible)")
        pool.append(candidate)
        gens.append(action_on_planes(candidate))
        group = PermGroup(gens, degree=27)
    if seed == 0:
        _GROUP_CACHE = group
    return group


def regular_order27_subgroup() -> PermGroup:
    """J = <action(A), action(B)>, regular of order 27 on the planes."""
    a, b = order27_generators()
    return PermGroup([action_on_planes(a), action_on_planes(b)], degree=27)


def plane_w_index() -> int:
    planes = isotropic_planes()
    target = plane_w().rref().rows
    for i, p in enumerate(planes):
        if p.rows == target:
            return i
    raise RuntimeError("W is not isotropic (impossible)")
