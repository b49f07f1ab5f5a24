import random

import pytest

from hgl import bounds
from hgl.bounds import (
    a_prop_checks,
    check_a_ineq,
    check_vdovin,
    max_abelian_order,
)
from hgl.catalog import build_group, known_aut_group
from hgl.perm import PermGroup

from oracles import max_abelian_brute


SYMMETRIC_VALUES = {3: 3, 4: 4, 5: 6, 6: 9, 7: 12, 8: 18}


def test_a_of_symmetric_groups():
    for m, value in SYMMETRIC_VALUES.items():
        result = max_abelian_order(build_group("S%d" % m))
        assert result.a_value == value, m
        witness_group = PermGroup(result.witness, degree=result.witness[0].degree)
        assert witness_group.is_abelian()
        assert witness_group.order() == value


def test_a_symmetric_closed_forms():
    # a(S_3k) = 3^k, a(S_3k+1) = 4*3^(k-1), a(S_3k+2) = 2*3^k, and the
    # cubed bound a(S_m)^3 <= 3^m
    for m, value in SYMMETRIC_VALUES.items():
        k, r = divmod(m, 3)
        expected = {0: 3**k, 1: 4 * 3 ** (k - 1), 2: 2 * 3**k}[r]
        assert value == expected
        assert value**3 <= 3**m


def test_a_small_groups_against_lattice_oracle():
    for spec in ["S3", "S4", "S5", "A4", "A5", "D12", "C12", "F21", "S3xC5"]:
        group = build_group(spec)
        brute = max_abelian_brute([p.images for p in group.elements()], group.degree)
        assert max_abelian_order(group).a_value == brute, spec


def test_a_named_values():
    assert max_abelian_order(build_group("A5")).a_value == 5
    assert max_abelian_order(build_group("PSL(2,7)")).a_value == 7
    assert max_abelian_order(build_group("PSL(2,8)")).a_value == 9
    for n in (5, 9, 12):
        assert max_abelian_order(build_group("C%d" % n)).a_value == n


def test_a_psl2_closed_form():
    # a(PSL2(q)) = q+1 for even q, q for odd q
    assert max_abelian_order(build_group("PSL(2,4)")).a_value == 5
    assert max_abelian_order(build_group("PSL(2,11)")).a_value == 11
    assert max_abelian_order(build_group("PSL(2,13)")).a_value == 13


def test_monotonicity_on_subgroup_pairs():
    rng = random.Random(19)
    pairs = [("A4", "S4"), ("A5", "S5"), ("C6", "D12"), ("S3", "S5"), ("C4", "D8")]
    for h_spec, g_spec in pairs:
        a_h = max_abelian_order(build_group(h_spec)).a_value
        a_g = max_abelian_order(build_group(g_spec)).a_value
        assert a_h <= a_g
    # 50+ random subgroup pairs across the catalog: point stabilizers and
    # subgroups generated by random element pairs
    checked = 0
    for spec in ["S5", "S6", "A6", "D12", "A5", "PSL(2,7)"]:
        group = build_group(spec)
        a_g = max_abelian_order(group).a_value
        elements = group.elements()
        for _ in range(9):
            if rng.random() < 0.3:
                sub = group.point_stabilizer(rng.randrange(group.degree))
            else:
                sub = PermGroup(
                    [rng.choice(elements), rng.choice(elements)], degree=group.degree
                )
            assert max_abelian_order(sub).a_value <= a_g, spec
            checked += 1
    assert checked >= 50


def test_product_law_exact():
    for h_spec, j_spec in [("S3", "C5"), ("A4", "C5"), ("D8", "S3"), ("C6", "C4")]:
        from hgl.perm import direct_product

        h = build_group(h_spec)
        j = build_group(j_spec)
        a_h = max_abelian_order(h).a_value
        a_j = max_abelian_order(j).a_value
        assert max_abelian_order(direct_product([h, j])).a_value == a_h * a_j


def test_a_prop_checks_composite():
    s4 = build_group("S4")
    a4 = PermGroup(
        [p for p in build_group("A4").generators], degree=4
    )
    report = a_prop_checks(s4, h=a4, n=a4)
    assert report.ok
    assert report.monotone == {"a_h": 4, "a_g": 4, "holds": True}
    assert report.quotient["a_n"] == 4 and report.quotient["a_quotient"] == 2

    report = a_prop_checks(build_group("S3"), h=build_group("S3"), j=build_group("C5"))
    assert report.product["a_product"] == 15


def test_a_prop_rejects_non_normal():
    s3 = build_group("S3")
    h = PermGroup([s3.generators[0]])  # a transposition: not normal
    with pytest.raises(ValueError):
        a_prop_checks(s3, n=h)


def test_aut_bound_from_out():
    # a(Aut T) <= a(T) * |Out T|
    from hgl.lietables import lie_datum

    cases = [("A5", ("A", 2, 4)), ("A6", ("A", 2, 9)), ("PSL(2,7)", ("A", 2, 7)), ("PSL(2,8)", ("A", 2, 8))]
    for spec, (family, n, q) in cases:
        t = build_group(spec)
        aut = known_aut_group(spec)
        a_t = max_abelian_order(t).a_value
        a_aut = max_abelian_order(aut).a_value
        out = lie_datum(family, n, q).out_order
        assert a_aut <= a_t * out, spec


def test_check_a_ineq_a5():
    result = check_a_ineq(build_group("A5"), known_aut_group("A5"))
    assert result.a_t == 5 and result.a_aut == 6
    assert result.lhs == 3 * 30**3 == 81000
    assert result.rhs == 60**3 == 216000
    assert result.holds


def test_check_vdovin():
    result = check_vdovin(build_group("A7"))
    assert not result.excluded
    assert result.holds and result.a_value**3 < 2520

    result = check_vdovin(build_group("A5"))
    assert result.excluded  # A5 = PSL2(4) = PSL2(5)

    result = check_vdovin(build_group("PSL(3,2)"))
    assert result.excluded  # = PSL2(7)

    with pytest.raises(ValueError):
        check_vdovin(build_group("S4"))  # not simple


def test_abelian_search_cap(monkeypatch):
    monkeypatch.setattr(bounds, "ABELIAN_SEARCH_CAP", 10)
    with pytest.raises(ValueError):
        max_abelian_order(build_group("A5"))
