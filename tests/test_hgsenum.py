from fractions import Fraction

import pytest

from hgl import hgsenum
from hgl.catalog import build_group
from hgl.cayley import regular_table
from hgl.hgsenum import (
    BudgetExceeded,
    ComplementaryPair,
    count_hgs,
    delta_p,
    enumerate_regular_subgroups,
    find_complement,
)
from hgl.holomorph import RegularEmbedding, hol_context, hol_group, lambda_embedding
from hgl.isoaut import are_isomorphic
from hgl.perm import Permutation, PermGroup, tmul

from oracles import regular_subgroups_brute


def test_hol_c2_single_subgroup():
    records = enumerate_regular_subgroups("C2")
    assert len(records) == 1
    assert records[0].order == 2


def test_hol_c4_two_types():
    records = enumerate_regular_subgroups("C4", iso_candidates=["C4", "E(2,2)"])
    assert len(records) == 2
    assert sorted(r.iso_spec for r in records) == ["C4", "E(2,2)"]


def test_hol_c9_all_cyclic():
    records = enumerate_regular_subgroups("C9", iso_candidates=["C9", "E(3,2)"])
    assert len(records) == 3
    assert all(r.iso_spec == "C9" for r in records)


def test_lambda_always_appears_and_all_regular():
    for spec in ["C6", "S3", "D8", "C12"]:
        group = build_group(spec)
        ctx = hol_context(group)
        lam_elements = tuple(
            sorted(ctx.element_perm(v) for v in lambda_embedding(ctx).full_map().values())
        )
        records = enumerate_regular_subgroups(spec)
        assert any(r.elements == lam_elements for r in records), spec
        for record in records:
            identity = tuple(range(len(record.elements)))
            gens = [p for p in record.elements if p != identity]
            assert PermGroup(gens, degree=len(identity)).is_regular()


def test_enumeration_matches_brute_lattice_oracle():
    # completeness oracle: all subgroups of Hol(G) of order |G|, filtered for
    # regularity by the independent lattice path
    for spec in ["C2", "C3", "C4", "C5", "C6", "E(2,2)", "S3", "C8", "D8", "C9",
                 "E(3,2)", "C10", "C12", "D12", "A4", "C2xC6"]:
        group = build_group(spec)
        hol = hol_group(group)
        brute = regular_subgroups_brute([p.images for p in hol.elements()], hol.degree)
        records = enumerate_regular_subgroups(spec)
        assert sorted(r.elements for r in records) == brute, spec


COUNT_CASES = [
    # (gamma, g, expected) -- values cross-checked against the lattice oracle
    # and the quotient formula; pq values match the published degree-6 counts
    ("C9", "C9", 3),
    ("C9", "E(3,2)", 0),
    ("C6", "C6", 1),
    ("C6", "S3", 2),
    ("S3", "C6", 3),
    ("S3", "S3", 2),
    ("E(2,2)", "C4", 3),
    ("C4", "C4", 1),
    ("C4", "E(2,2)", 1),
    ("E(2,2)", "E(2,2)", 1),
    ("C8", "C8", 2),
    ("D8", "D8", 6),
]


@pytest.mark.parametrize("gamma,g,expected", COUNT_CASES)
def test_count_hgs_small(gamma, g, expected):
    result = count_hgs(gamma, g)
    assert result.count == expected
    assert result.complete
    assert not result.discrepancy
    assert result.crosscheck == Fraction(expected)
    assert len(result.witnesses) == expected
    for witness in result.witnesses:
        assert witness.certificate["regular"]


def test_witnesses_inequivalent():
    # no two witnesses are conjugate under Aut(G): their orbits were distinct
    result = count_hgs("S3", "C6")
    fingerprints = {tuple(x for x in w.images) for w in result.witnesses}
    assert len(fingerprints) == result.count


def test_byott_crosscheck_formula():
    assert count_hgs("C9", "C9").crosscheck == 3
    assert count_hgs("C2", "C2").crosscheck == 1
    # (V4, C4): one regular V4 in Hol(C4); 6 * 1 / 2 = 3
    assert count_hgs("E(2,2)", "C4").crosscheck == 3


def test_count_hgs_order_mismatch():
    with pytest.raises(ValueError):
        count_hgs("C4", "C6")


def test_count_cap_checked_before_automorphisms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("automorphisms computed before the cap check")

    monkeypatch.setattr(hgsenum, "automorphism_group", refuse)
    monkeypatch.setattr(hgsenum, "automorphisms", refuse)
    with pytest.raises(ValueError, match="enumeration cap 60 exceeded"):
        count_hgs("E(2,6)", "E(2,6)")


TYPES_OF_ORDER = {
    6: ["C6", "S3"],
    8: ["C8", "D8", "E(2,3)", "C2xC4"],
    12: ["C12", "D12", "A4", "C2xC6"],
}


@pytest.mark.parametrize("spec", ["C6", "S3", "D8", "C2xC4", "E(2,3)", "A4", "D12"])
def test_regular_table_matches_permutation_group_path(spec):
    # differential test: the Cayley table read off the elements against the
    # PermGroup of all non-identity elements that the isomorphism tests used
    types = [build_group(t) for t in TYPES_OF_ORDER[build_group(spec).order()]]
    for record in enumerate_regular_subgroups(spec):
        table = regular_table(record.elements)
        rows = table.elements
        n = len(rows)
        assert table.mult(0, 0) == 0 and sorted(rows) == list(record.elements)
        for a in range(n):
            for b in range(n):
                assert rows[table.mult(a, b)] == tmul(rows[a], rows[b])
        identity = tuple(range(n))
        group = PermGroup([p for p in record.elements if p != identity], degree=n)
        for x in types:
            assert (are_isomorphic(table, x) is None) == (are_isomorphic(group, x) is None)


def test_partial_element_list_rejected():
    elements = enumerate_regular_subgroups("C6")[0].elements
    with pytest.raises(ValueError):
        regular_table(elements[:3])
    with pytest.raises(ValueError):
        RegularEmbedding.from_subgroup(hol_context(build_group("C6")), elements[1:])


def test_budget_exhaustion_is_loud():
    with pytest.raises(BudgetExceeded):
        count_hgs("A5", "A5", budget=10)


def test_delta_p_examples():
    # G a p-group: Delta_p = {e}
    ctx = hol_context(build_group("C4"))
    witness = delta_p(lambda_embedding(ctx), 2)
    assert witness.ok and witness.delta_size == 1

    # gamma = C12 = G via lambda, p = 3: Delta_3 is the C4 subgroup
    ctx = hol_context(build_group("C12"))
    witness = delta_p(lambda_embedding(ctx), 3)
    assert witness.ok and witness.delta_size == 4

    # p not dividing |G|: Delta_p = Gamma
    witness = delta_p(lambda_embedding(ctx), 7)
    assert witness.ok and witness.delta_size == 12


def test_delta_p_s3_inside_hol_c6():
    ctx = hol_context(build_group("C6"))
    records = enumerate_regular_subgroups("C6", iso_candidates=["S3", "C6"])
    s3_records = [r for r in records if r.iso_spec == "S3"]
    assert s3_records
    for record in s3_records:
        embedding = RegularEmbedding.from_subgroup(ctx, record.elements)
        witness = delta_p(embedding, 2)
        assert witness.ok and witness.delta_size == 3
        # Delta_2 is the rotation subgroup: all its elements have odd order
        order3 = [g for g in witness.delta_generators if g.order() == 3]
        assert order3


def test_delta_p_requires_nilpotent():
    ctx = hol_context(build_group("S3"))
    with pytest.raises(ValueError):
        delta_p(lambda_embedding(ctx), 2)


def test_find_complement_examples():
    s5 = build_group("S5")
    j = find_complement(s5, s5.point_stabilizer(4))
    assert j is not None and j.order() == 5
    assert ComplementaryPair(s5, s5.point_stabilizer(4), j).verify()

    a6 = build_group("A6")
    assert find_complement(a6, a6.point_stabilizer(5)) is None

    psl27 = build_group("PSL(2,7)")
    stab = psl27.point_stabilizer(0)
    assert stab.order() == 21
    j = find_complement(psl27, stab)
    assert j is not None and j.order() == 8
    assert are_isomorphic(j, build_group("D8")) is not None


def test_complementary_pair_verify():
    s3 = build_group("S3")
    h = PermGroup([Permutation.parse("(0 1)", 3)])
    j = PermGroup([Permutation.parse("(0 1 2)", 3)])
    assert ComplementaryPair(s3, h, j).verify()
    assert not ComplementaryPair(s3, h, h).verify()


def test_record_fingerprint_stable():
    records = enumerate_regular_subgroups("C4")
    fingerprints = [r.fingerprint() for r in records]
    assert fingerprints == [r.fingerprint() for r in enumerate_regular_subgroups("C4")]
    assert len(set(fingerprints)) == len(fingerprints)
