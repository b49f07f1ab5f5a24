import math

import pytest

from hgl.catalog import build_group
from hgl.cayley import index_group
from hgl import isoaut
from hgl.isoaut import (
    are_isomorphic,
    automorphism_group,
    automorphism_group_order,
    automorphisms,
    inner_automorphism_group,
)
from hgl.lietables import lie_datum


def test_c4_vs_v4_distinguished():
    assert are_isomorphic(build_group("C4"), build_group("E(2,2)")) is None


def test_psl24_is_a5():
    iso = are_isomorphic(build_group("PSL(2,4)"), build_group("A5"))
    assert iso is not None and iso.verify()


def test_psl25_is_a5():
    iso = are_isomorphic(build_group("PSL(2,5)"), build_group("A5"))
    assert iso is not None and iso.verify()


def test_psl32_is_psl27():
    iso = are_isomorphic(build_group("PSL(3,2)"), build_group("PSL(2,7)"))
    assert iso is not None and iso.verify()


def test_psl29_is_a6():
    iso = are_isomorphic(build_group("PSL(2,9)"), build_group("A6"))
    assert iso is not None and iso.verify()


def test_iso_reflexive_symmetric_and_composes():
    groups = [build_group(s) for s in ["S3", "C6", "D8", "A4"]]
    for g in groups:
        iso = are_isomorphic(g, g)
        assert iso is not None and iso.verify()
    a = build_group("PSL(2,4)")
    b = build_group("A5")
    forward = are_isomorphic(a, b)
    backward = are_isomorphic(b, a)
    assert forward is not None and backward is not None
    # composing forward and backward gives an automorphism of a
    composed = [backward.mapping[forward.mapping[i]] for i in range(60)]
    ai = index_group(a)
    assert all(
        composed[ai.mult(x, y)] == ai.mult(composed[x], composed[y])
        for x in range(0, 60, 7)
        for y in range(60)
    )


def test_non_isomorphic_same_order():
    assert are_isomorphic(build_group("C6"), build_group("S3")) is None
    assert are_isomorphic(build_group("D8"), build_group("C8")) is None
    assert are_isomorphic(build_group("A4"), build_group("D12")) is None


def test_automorphism_orders():
    for spec, order in [("C4", 2), ("S3", 6), ("E(2,2)", 6), ("C9", 6), ("D8", 8), ("C12", 4)]:
        assert automorphism_group(build_group(spec)).order() == order, spec


@pytest.mark.parametrize("p, n, order", [
    (2, 5, 9_999_360), (2, 6, 20_158_709_760), (3, 4, 24_261_120), (5, 3, 1_488_000),
])
def test_elementary_abelian_aut_order_is_gl(p, n, order):
    # |Aut(E(p,n))| = |GL(n,p)| = prod (p^n - p^i), read off the chain's orbit
    # lengths with nothing listed
    assert order == math.prod(p**n - p**i for i in range(n))
    assert automorphism_group_order(build_group("E(%d,%d)" % (p, n))) == order


def test_every_automorphism_respects_table():
    indexed = index_group(build_group("D8"))
    for mapping in automorphisms(indexed):
        assert mapping[0] == 0
        for x in range(8):
            for y in range(8):
                assert mapping[indexed.mult(x, y)] == indexed.mult(mapping[x], mapping[y])


def test_inner_automorphisms_contained_and_out_orders():
    # |Aut| / |Inn| = |Out| matches the Lie-table values
    for spec, family, n, q in [
        ("A5", "A", 2, 4),
        ("PSL(2,7)", "A", 2, 7),
        ("PSL(2,8)", "A", 2, 8),
    ]:
        group = build_group(spec)
        indexed = index_group(group)
        aut = automorphism_group(group)
        inn = inner_automorphism_group(indexed)
        for gen in inn.generators:
            assert gen in aut
        datum = lie_datum(family, n, q)
        assert aut.order() // inn.order() == datum.out_order, spec


def test_aut_cap(monkeypatch):
    monkeypatch.setattr(isoaut, "AUT_CAP", 2000)
    with pytest.raises(ValueError):
        automorphism_group(build_group("S5xS4"))


def test_general_path_agrees_with_catalog():
    # the computed automorphism group and the catalog one must agree in order
    # wherever both apply
    from hgl.catalog import known_aut_group

    for spec in ["A5", "PSL(2,7)", "A6"]:
        assert automorphism_group(build_group(spec)).order() == known_aut_group(spec).order()


def test_conjugacy_classes_computed_once_per_group(monkeypatch):
    real = isoaut.conjugacy_classes
    calls = []

    def counting(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(isoaut, "conjugacy_classes", counting)
    assert are_isomorphic(build_group("A5"), build_group("PSL(2,5)")) is not None
    assert len(calls) == 2
    calls.clear()
    assert len(automorphisms(index_group(build_group("A5")))) == 120
    assert len(calls) == 1
