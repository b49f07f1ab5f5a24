from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hgl import hgsenum, isoaut
from hgl.catalog import build_group
from hgl.cayley import regular_table
from hgl.cli import main
from hgl.hgsenum import (
    BudgetExceeded,
    ComplementaryPair,
    count_hgs,
    delta_p,
    enumerate_regular_subgroups,
    find_complement,
    regular_subgroups_of_elements,
    semiregular_element_buckets,
)
from hgl.holomorph import RegularEmbedding, hol_context, hol_group, lambda_embedding
from hgl.isoaut import are_isomorphic, automorphism_group, automorphisms
from hgl.perm import Permutation, PermGroup, tmul

from oracles import (
    automorphisms_full_search,
    regular_cyclic_subgroups_all_points,
    regular_subgroups_brute,
    semiregular_element_buckets_all_pairs,
)


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


# every catalog group of order <= 24 but E(2,4), whose unreduced search
# alone takes minutes (criterion 05 covers it against the Hall property)
CATALOG_UP_TO_24 = [
    "C1", "C2", "C3", "C4", "E(2,2)", "C5", "C6", "S3", "C7", "C8", "C2xC4",
    "E(2,3)", "D8", "C9", "E(3,2)", "C10", "D10", "C11", "C12", "C2xC6", "D12",
    "A4", "C13", "C14", "D14", "C15", "C16", "C2xC8", "C4xC4", "C2xC2xC4",
    "D8xC2", "D16", "C17", "C18", "C3xC6", "D18", "C3xS3", "C19", "C20",
    "C2xC10", "D20", "C21", "F21", "C22", "D22", "C23", "C24", "C2xC12",
    "C2xC2xC6", "S4", "A4xC2", "D24", "S3xC4", "D12xC2", "C3xD8",
]


def _hol_search_input(spec):
    ctx = hol_context(build_group(spec))
    aut = automorphism_group(ctx.group)
    return semiregular_element_buckets(ctx, [g.images for g in aut.elements()], aut), ctx.n, aut


@pytest.mark.parametrize("spec", CATALOG_UP_TO_24)
def test_root_orbit_reduction_matches_unreduced_search(spec):
    # differential test: the Aut(G)-reduced search plus the conjugation
    # rebuild against the full backtrack over the same buckets
    buckets, n, aut = _hol_search_input(spec)
    reduced = regular_subgroups_of_elements(buckets, n, symmetry=aut)
    assert reduced == regular_subgroups_of_elements(buckets, n)


@pytest.mark.parametrize("spec", CATALOG_UP_TO_24 + ["E(3,3)", "E(5,2)", "S3xS3", "A5"])
def test_chain_listing_and_conjugated_buckets_match_full_builds(spec):
    # differential test: Aut(G) from the base-image chain against every leaf
    # of the full backtrack, and the buckets filled by conjugation against
    # the cycle test of every [g, alpha]
    ctx = hol_context(build_group(spec))
    aut_maps = automorphisms(ctx.group)
    assert aut_maps == automorphisms_full_search(ctx.group)
    buckets = semiregular_element_buckets(ctx, aut_maps, automorphism_group(ctx.group))
    assert buckets == semiregular_element_buckets_all_pairs(ctx, aut_maps)


@pytest.mark.parametrize("spec", ["C9", "C16", "C25", "C27", "C49", "C81", "E(2,2)", "E(2,3)",
                                  "D8", "C2xC4", "C2xC6", "C2xC8", "C9xC3", "E(3,3)", "S3"])
def test_cyclic_orbit_walk_matches_all_points_walk(spec):
    # differential test: one point per Aut(G)-orbit plus the conjugation
    # rebuild against the walk over every [g, alpha]
    ctx = hol_context(build_group(spec))
    aut = automorphism_group(ctx.group)
    aut_maps = [g.images for g in aut.elements()]
    expected = regular_cyclic_subgroups_all_points(ctx, aut_maps)
    assert hgsenum._regular_cyclic_subgroups(ctx, aut_maps, aut) == expected


_SMALL_SPECS = ["C4", "E(2,2)", "C6", "S3", "C8", "C2xC4", "E(2,3)", "D8", "E(3,2)",
                "D10", "C12", "C2xC6", "D12", "A4"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_SPECS), st.lists(st.integers(min_value=0), max_size=3))
def test_any_subgroup_of_aut_is_a_valid_symmetry(spec, picks):
    # every subgroup of Aut(G) fixes 0 and preserves the semiregular elements,
    # so each one (the trivial group included) must give the unreduced list
    buckets, n, aut = _hol_search_input(spec)
    elements = aut.elements()
    gens = [elements[i % len(elements)] for i in picks]
    symmetry = PermGroup(gens, degree=n)
    reduced = regular_subgroups_of_elements(buckets, n, symmetry=symmetry)
    assert reduced == regular_subgroups_of_elements(buckets, n)


def test_symmetry_moving_zero_rejected():
    buckets, n, _ = _hol_search_input("C4")
    translation = PermGroup([Permutation([1, 2, 3, 0])])
    with pytest.raises(ValueError, match="fix the point 0"):
        regular_subgroups_of_elements(buckets, n, symmetry=translation)


def test_symmetry_leaving_the_candidates_rejected():
    # (2 3) fixes 0 and 1 but does not normalize Hol(C4) = D8 on 4 points
    buckets, n, _ = _hol_search_input("C4")
    swap = PermGroup([Permutation([0, 1, 3, 2])])
    with pytest.raises(ValueError, match="leaves the set"):
        regular_subgroups_of_elements(buckets, n, symmetry=swap)


def test_enumeration_accepts_a_hol_context():
    ctx = hol_context(build_group("D8"))
    records = enumerate_regular_subgroups(ctx)
    assert [r.elements for r in records] == [r.elements for r in enumerate_regular_subgroups("D8")]
    with pytest.raises(ValueError, match="enumeration cap 60 exceeded"):
        enumerate_regular_subgroups(hol_context(build_group("C61")))


def test_reduced_search_stops_on_budget(monkeypatch, capsys):
    monkeypatch.delenv("HGL_CACHE_DIR", raising=False)
    assert main(["--budget", "500", "enumerate-regular", "--g", "E(3,3)"]) == 3
    assert "search budget exhausted" in capsys.readouterr().err


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

    # every Aut(G) search builds an isoaut._AutomorphismChain
    monkeypatch.setattr(isoaut, "_AutomorphismChain", refuse)
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
