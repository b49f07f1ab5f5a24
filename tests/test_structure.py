import pytest

from hgl import structure
from hgl.catalog import build_group
from hgl.cayley import index_group
from hgl.perm import PermGroup
from hgl.structure import (
    composition_factors,
    conjugacy_classes,
    is_simple_indexed,
    structure_report,
)


def test_a4xc5_report():
    report = structure_report(build_group("A4xC5"))
    assert report.order == 60
    assert report.is_soluble and not report.is_nilpotent
    assert report.composition_factors == ((2, "C2"), (2, "C2"), (3, "C3"), (5, "C5"))


def test_a5_report():
    report = structure_report(build_group("A5"))
    assert not report.is_soluble
    assert report.composition_factors == ((60, "A5"),)
    assert report.has_nonabelian_simple_factor()


def test_c8_report():
    report = structure_report(build_group("C8"))
    assert report.is_nilpotent and report.is_soluble and report.is_abelian


def test_factor_orders_multiply_to_group_order():
    for spec in ["S4", "A5", "D12", "F21", "C9xC3", "S3xS3", "A4xC5"]:
        report = structure_report(build_group(spec))
        product = 1
        for order in report.factor_orders():
            product *= order
        assert product == report.order, spec


def test_factors_are_simple():
    # every reported composition factor passes the brute simplicity check:
    # simple factors of soluble groups are prime cyclic; A5's factor is itself
    report = structure_report(build_group("S4"))
    assert all(order in (2, 3) for order, _ in report.composition_factors)
    a5 = index_group(build_group("A5"))
    assert is_simple_indexed(a5)
    a4 = index_group(build_group("A4"))
    assert not is_simple_indexed(a4)


def test_nilpotent_implies_soluble_on_catalog():
    specs = [
        "C2", "C6", "C8", "C12", "C16", "D8", "E(2,3)", "C2xC4", "C4xC4",
        "E(3,2)", "S3", "S4", "A4", "D12", "F21", "A5", "A6", "S5", "S6",
        "D8xC2", "A4xC5", "S3xC5", "C9xC3", "C15", "E(2,4)", "C2xC6",
    ]
    for spec in specs:
        group = build_group(spec)
        if group.order() > 360:
            continue
        if group.is_nilpotent():
            assert group.is_soluble(), spec


def test_conjugacy_classes_partition():
    indexed = index_group(build_group("S4"))
    classes = conjugacy_classes(indexed)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    covered = sorted(x for c in classes for x in c)
    assert covered == list(range(24))


def test_composition_factors_psl27():
    report = structure_report(build_group("PSL(2,7)"))
    assert report.composition_factors == ((168, "PSL(3,2)"),)


def test_composition_factors_psu42():
    # exercises the large-group path: 25920 elements, on-demand Cayley table
    report = structure_report(build_group("PSU(4,2)"))
    assert report.composition_factors == ((25920, "PSU(4,2)"),)
    assert not report.is_soluble


def test_series_cap(monkeypatch):
    monkeypatch.setattr(structure, "FACTORS_CAP", 10)
    monkeypatch.setattr(PermGroup, "is_soluble", lambda self: pytest.fail("series before the cap"))
    with pytest.raises(ValueError):
        structure_report(build_group("A5"))
