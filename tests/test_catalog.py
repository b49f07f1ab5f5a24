import pytest

from hgl.catalog import (
    SpecError,
    atom_order,
    build_group,
    known_aut_group,
    parse_spec,
)
from hgl.lietables import lie_datum


def test_parse_product():
    spec = parse_spec("A4xC5")
    assert spec.is_product()
    assert [f.kind for f in spec.factors] == ["Alt", "Cyclic"]
    assert str(spec) == "A4xC5"


def test_parse_frobenius_times_dihedral():
    spec = parse_spec("F21xD8")
    assert [f.kind for f in spec.factors] == ["Frobenius", "Dihedral"]
    assert spec.factors[0].params == (7,)
    assert str(spec) == "F21xD8"


def test_parse_atoms_case_and_whitespace():
    assert parse_spec("c9").kind == "Cyclic"
    assert parse_spec(" A4 x C5 ").is_product()
    assert parse_spec("psl(2,7)").kind == "PSL2"
    assert parse_spec("PGammaL(2,9)").kind == "PGammaL2"
    assert parse_spec("E(5,2)").params == (5, 2)
    assert parse_spec("PSU(4,2)").kind == "PSU4_2"
    assert parse_spec("PSL(3,2)").kind == "PSL3_2"


@pytest.mark.parametrize(
    "bad",
    [
        "F20", "C9x", "xA4", "Q8", "A4 y C5", "PSL(4,2)", "PSU(4,3)", "D7", "D2", "E(4,2)", "",
        "A2", "PSL(2,12)", "PGL(2,6)", "PGammaL(2,12)",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_build_orders():
    for spec, order in [
        ("F21", 21),
        ("A4xC5", 60),
        ("D8", 8),
        ("C9", 9),
        ("E(5,2)", 25),
        ("S4xC7", 168),
        ("F21xD8", 168),
        ("PSL(2,7)", 168),
        ("PSL(3,2)", 168),
        ("D4", 4),
        ("C1", 1),
    ]:
        group = build_group(spec)
        assert group.order() == order == atom_order(parse_spec(spec)), spec


def test_frobenius_group_shape():
    f21 = build_group("F21")
    assert f21.degree == 7
    assert not f21.is_abelian()
    assert f21.is_soluble() and not f21.is_nilpotent()


def test_product_order_is_product_of_atom_orders():
    for text in ["A4xC5", "S3xS3", "C2xC3xC5", "F21xD8", "S4xC7"]:
        spec = parse_spec(text)
        product = 1
        for atom in spec.atoms():
            product *= atom_order(atom)
        assert build_group(spec).order() == product


def test_known_aut_orders_match_lie_data():
    # |Aut(T)| = |T| * d * eps * g
    assert known_aut_group("A5").order() == 120  # 60 * |Out(A5)| = 60 * 2
    assert known_aut_group("A6").order() == 1440  # 360 * 4
    assert known_aut_group("A7").order() == 5040
    assert known_aut_group("A8").order() == 40320
    psl28 = lie_datum("A", 2, 8)
    assert known_aut_group("PSL(2,8)").order() == psl28.t_order * psl28.out_order == 1512
    psl27 = lie_datum("A", 2, 7)
    assert known_aut_group("PSL(2,7)").order() == psl27.t_order * psl27.out_order == 336


def test_known_aut_conjugation_preserves_t():
    # T sits inside its catalog automorphism group; conjugation by each
    # generator of Aut maps T to T
    cases = [("A5", "S5"), ("A6", None), ("PSL(2,8)", None)]
    for t_spec, _ in cases:
        t = build_group(t_spec)
        aut = known_aut_group(t_spec)
        assert aut.degree == t.degree or t_spec == "A6"
        if t_spec == "A6":
            # realized as PGammaL2(9) on 10 points; identify T = PSL2(9)
            from hgl.projective import projective_group

            t = projective_group("PSL2", 9)
        for theta in aut.generators:
            for gen in t.generators:
                assert theta * gen * theta.inverse() in t


def test_known_aut_unsupported():
    with pytest.raises(SpecError):
        known_aut_group("PSU(4,2)")
    with pytest.raises(SpecError):
        known_aut_group("A9")
    with pytest.raises(SpecError):
        known_aut_group("C9")


def test_build_cap():
    with pytest.raises(SpecError):
        build_group("C2000000")
