import random

import pytest

from hgl.gf import MatrixGF
from hgl.lietables import lie_datum
from hgl.perm import CapExceeded
from hgl.projective import PROJECTIVE_Q_CAP, projective_group, projective_order, psl3_2
from hgl.su42 import (
    action_on_planes,
    field4,
    form_value,
    isotropic_planes,
    order27_generators,
    plane_w,
    plane_w_index,
    regular_order27_subgroup,
    su42_contains,
    su42_permutation_group,
    unitary_transvection,
    isotropic_vectors,
)


@pytest.mark.parametrize(
    "kind,q,order",
    [
        ("PSL2", 7, 168),
        ("PSL2", 4, 60),
        ("PGL2", 5, 120),
        ("PSL2", 8, 504),
        ("PSL2", 9, 360),
        ("PSL2", 11, 660),
        ("PSL2", 13, 1092),
        ("PGammaL2", 9, 1440),
        ("PGammaL2", 8, 1512),
        ("PGL2", 7, 336),
    ],
)
def test_projective_orders(kind, q, order):
    group = projective_group(kind, q)
    assert group.order() == order == projective_order(kind, q)
    assert group.degree == q + 1


def test_projective_q_cap():
    assert projective_order("PSL2", 2**15) == 2**15 * (2**30 - 1)
    with pytest.raises(CapExceeded, match="q=32768 exceeds cap 16384"):
        projective_group("PSL2", 2 * PROJECTIVE_Q_CAP)


def test_psl32():
    group = psl3_2()
    assert group.order() == 168
    assert group.degree == 7


def test_plane_count_and_isotropy():
    planes = isotropic_planes()
    assert len(planes) == 27
    for p in planes:
        r1, r2 = p.rows
        assert form_value(r1, r1) == 0
        assert form_value(r2, r2) == 0
        assert form_value(r1, r2) == 0
        assert form_value(r2, r1) == 0
    w = plane_w().rref()
    assert any(p.rows == w.rows for p in planes)


def test_membership_examples():
    f4 = field4()
    assert su42_contains(MatrixGF.identity(f4, 4))
    a, b = order27_generators()
    assert su42_contains(a) and su42_contains(b)
    w = f4.x()
    scalar = MatrixGF(f4, [[w if i == j else 0 for j in range(4)] for i in range(4)])
    assert not su42_contains(scalar)  # det = w^4 = w != 1
    with pytest.raises(ValueError):
        su42_contains(MatrixGF(f4, [[1, 0], [0, 1]]))


def test_paper_relations():
    a, b = order27_generators()
    identity = MatrixGF.identity(field4(), 4)
    assert a**9 == identity
    assert a**3 != identity
    assert b**3 == identity
    assert b * a == (a**4) * b


def test_w_images_distinct():
    a, b = order27_generators()
    w = plane_w()
    images = {tuple((w * (a**m)).rref().rows) for m in range(9)}
    images.add(tuple((w * b).rref().rows))
    assert len(images) == 10


def test_order27_subgroup_regular():
    j = regular_order27_subgroup()
    assert j.order() == 27
    assert j.is_regular()


def test_action_is_homomorphism_and_group_closed():
    rng = random.Random(3)
    a, b = order27_generators()
    vectors = isotropic_vectors()
    pool = [a, b] + [unitary_transvection(vectors[rng.randrange(len(vectors))]) for _ in range(6)]
    for m in pool:
        assert su42_contains(m)
    for _ in range(25):
        m = pool[rng.randrange(len(pool))]
        n = pool[rng.randrange(len(pool))]
        assert su42_contains(m * n)
        assert su42_contains(m.inverse())
        # right actions compose diagrammatically under left composition
        assert action_on_planes(m * n) == action_on_planes(n) * action_on_planes(m)
        assert action_on_planes(m.inverse()) == action_on_planes(m).inverse()


def test_identity_action():
    identity = MatrixGF.identity(field4(), 4)
    assert action_on_planes(identity).is_identity()


def test_full_group_order_matches_lie_datum():
    group = su42_permutation_group()
    datum = lie_datum("2A", 4, 2)
    assert datum.d == 1
    assert group.order() == datum.t_order == 25920
    assert group.is_transitive()
    h = group.point_stabilizer(plane_w_index())
    assert h.order() == 960  # index 27


def test_action_requires_membership():
    f4 = field4()
    w = f4.x()
    scalar = MatrixGF(f4, [[w if i == j else 0 for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError):
        action_on_planes(scalar)
