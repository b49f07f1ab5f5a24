import random

import pytest
from hypothesis import given, strategies as st

from hgl import perm as perm_module
from hgl.catalog import build_group
from hgl.cayley import index_group
from hgl.perm import (
    Permutation,
    PermGroup,
    brute_closure,
    conjugators,
    direct_product,
    element_orders_multiset,
    group_from_generators,
    is_regular,
    is_semiregular,
    orbit_minima,
    sylow_subgroup,
    tmul,
)
from hgl.structure import conjugacy_classes


def perm(text, degree):
    return Permutation.parse(text, degree)


def test_permutation_basics():
    p = perm("(0 1 2)(3 4)", 5)
    assert p(0) == 1 and p(2) == 0 and p(3) == 4
    assert p.order() == 6
    assert (p * p.inverse()).is_identity()
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Permutation.parse("()", 3).is_identity()
    assert p.sign() == -1
    assert perm("(0 1 2)", 3).sign() == 1


def test_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation.parse("(0 1", 3)
    with pytest.raises(ValueError):
        perm("(0 1)", 2) * perm("(0 1 2)", 3)


def test_pow_and_parse_roundtrip():
    p = perm("(0 1 2 3 4)", 5)
    assert p ** 5 == Permutation.identity(5)
    assert p ** -1 == p.inverse()
    assert Permutation.parse(p.cycle_string(), 5) == p


def test_group_orders():
    c5 = group_from_generators([perm("(0 1 2 3 4)", 5)])
    assert c5.order() == 5
    s5 = group_from_generators([perm("(0 1)", 5), perm("(0 1 2 3 4)", 5)])
    assert s5.order() == 120
    assert len(brute_closure(s5.generators)) == 120
    a5 = group_from_generators([perm("(0 1 2)", 5), perm("(0 1 2 3 4)", 5)])
    assert a5.order() == 60
    assert len(brute_closure(a5.generators)) == 60


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        group_from_generators([])
    assert PermGroup.trivial(4).order() == 1


def test_membership_against_brute_closure():
    rng = random.Random(7)
    groups = [
        group_from_generators([perm("(0 1 2 3)", 4)]),
        group_from_generators([perm("(0 1)", 4), perm("(0 1 2 3)", 4)]),
        group_from_generators([perm("(0 1 2)", 6), perm("(3 4 5)", 6)]),
        group_from_generators([perm("(0 1 2 3 4)", 5), perm("(0 1 2)", 5)]),
    ]
    for group in groups:
        closure = brute_closure(group.generators)
        assert group.order() == len(closure)
        for _ in range(20):
            word = group.random_element(rng)
            assert word in group
        # random permutations of the same degree outside the closure
        for _ in range(20):
            images = list(range(group.degree))
            rng.shuffle(images)
            assert (tuple(images) in closure) == (Permutation(images) in group)


def test_regularity_predicates():
    # left translations of C6 on 6 points
    c6_left = group_from_generators([perm("(0 1 2 3 4 5)", 6)])
    assert is_regular(c6_left)
    s3_natural = group_from_generators([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    assert not is_regular(s3_natural)  # order 6 != degree 3
    intransitive = group_from_generators([perm("(0 2 4)(1 3 5)", 6)])
    assert not is_regular(intransitive)
    assert is_semiregular(intransitive)

    assert is_semiregular(group_from_generators([perm("(0 1)(2 3)", 4)]))
    assert not is_semiregular(group_from_generators([perm("(0 1)", 3)]))
    assert is_semiregular(c6_left)  # regular => semiregular


def test_regular_iff_semiregular_and_transitive():
    samples = [
        group_from_generators([perm("(0 1 2 3 4 5)", 6)]),
        group_from_generators([perm("(0 1)(2 3)", 4), perm("(0 2)(1 3)", 4)]),
        group_from_generators([perm("(0 1)", 3), perm("(0 1 2)", 3)]),
        group_from_generators([perm("(0 2 4)(1 3 5)", 6)]),
        group_from_generators([perm("(0 1 2 3)", 4), perm("(0 2)", 4)]),
    ]
    for group in samples:
        assert is_regular(group) == (is_semiregular(group) and group.is_transitive())


def test_point_stabilizer_and_lagrange():
    s5 = group_from_generators([perm("(0 1)", 5), perm("(0 1 2 3 4)", 5)])
    stab = s5.point_stabilizer(4)
    assert stab.order() == 24
    assert all(g(4) == 4 for g in stab.generators)
    assert s5.order() % stab.order() == 0

    a5 = group_from_generators([perm("(0 1 2)", 5), perm("(0 1 2 3 4)", 5)])
    assert a5.point_stabilizer(0).order() == 12


def test_sylow_subgroups():
    c6 = group_from_generators([perm("(0 1 2 3 4 5)", 6)])
    syl3 = sylow_subgroup(c6, 3)
    assert syl3.order() == 3

    a5 = group_from_generators([perm("(0 1 2)", 5), perm("(0 1 2 3 4)", 5)])
    assert sylow_subgroup(a5, 5).order() == 5
    assert sylow_subgroup(a5, 2).order() == 4
    assert sylow_subgroup(a5, 7).order() == 1

    s4 = group_from_generators([perm("(0 1)", 4), perm("(0 1 2 3)", 4)])
    syl2 = sylow_subgroup(s4, 2)
    assert syl2.order() == 8
    assert s4.order() % syl2.order() == 0


def test_element_orders_multiset():
    c4 = group_from_generators([perm("(0 1 2 3)", 4)])
    assert element_orders_multiset(c4) == [1, 2, 4, 4]
    v4 = group_from_generators([perm("(0 1)(2 3)", 4), perm("(0 2)(1 3)", 4)])
    assert element_orders_multiset(v4) == [1, 2, 2, 2]
    s3 = group_from_generators([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    assert element_orders_multiset(s3) == [1, 2, 2, 2, 3, 3]


def test_solubility_and_nilpotency():
    a5 = group_from_generators([perm("(0 1 2)", 5), perm("(0 1 2 3 4)", 5)])
    assert not a5.is_soluble()
    assert not a5.is_nilpotent()

    s4 = group_from_generators([perm("(0 1)", 4), perm("(0 1 2 3)", 4)])
    assert s4.is_soluble()
    assert not s4.is_nilpotent()

    c8 = group_from_generators([perm("(0 1 2 3 4 5 6 7)", 8)])
    assert c8.is_soluble() and c8.is_nilpotent()

    d8 = group_from_generators([perm("(0 1 2 3)", 4), perm("(1 3)", 4)])
    assert d8.order() == 8
    assert d8.is_nilpotent()


def test_nilpotency_is_memoized(monkeypatch):
    s4 = group_from_generators([perm("(0 1)", 4), perm("(0 1 2 3)", 4)])
    c8 = group_from_generators([perm("(0 1 2 3 4 5 6 7)", 8)])
    assert not s4.is_nilpotent() and c8.is_nilpotent()
    monkeypatch.setattr(PermGroup, "normal_closure", lambda *args: pytest.fail("recomputed"))
    assert not s4.is_nilpotent() and c8.is_nilpotent()
    monkeypatch.setattr(perm_module, "SERIES_CAP", 7)
    with pytest.raises(ValueError, match="nilpotency cap 7 exceeded"):
        c8.is_nilpotent()


def test_direct_product():
    a4 = group_from_generators([perm("(0 1 2)", 4), perm("(0 1)(2 3)", 4)])
    c5 = group_from_generators([perm("(0 1 2 3 4)", 5)])
    prod = direct_product([a4, c5])
    assert prod.degree == 9
    assert prod.order() == 60
    assert prod.is_soluble()
    assert not prod.is_nilpotent()


def test_elements_enumeration_deterministic():
    s3 = group_from_generators([perm("(0 1)", 3), perm("(0 1 2)", 3)])
    first = [g.images for g in s3.elements()]
    second = [g.images for g in s3.elements()]
    assert first == second
    assert first[0] == (0, 1, 2)
    assert len(first) == 6


def _permutation_pairs(degree):
    images = st.permutations(range(degree)).map(tuple)
    return st.tuples(images, images)


@given(st.integers(1, 64).flatmap(_permutation_pairs))
def test_tmul_is_composition(pair):
    p, q = pair
    assert tmul(p, q) == tuple(p[t] for t in q)


def test_tmul_degree_one():
    assert tmul((0,), (0,)) == (0,)


@pytest.mark.parametrize("spec", ["S5", "A6", "PSL(2,7)", "S3xS3", "A4xC5"])
def test_orbit_minima_are_least_class_members(spec):
    # the class representatives of the a(G) search, against the indexed
    # conjugacy classes; the identity is the least tuple and its own class
    group = build_group(spec)
    indexed = index_group(group)
    least = sorted(min(indexed.elements[i] for i in c) for c in conjugacy_classes(indexed))
    elements = sorted(g.images for g in group.elements())
    assert least[0] == elements[0] == tuple(range(group.degree))
    assert orbit_minima(elements[1:], conjugators(group)) == least[1:]
