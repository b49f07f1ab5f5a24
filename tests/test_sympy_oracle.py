"""sympy as an outside oracle for the in-house Schreier-Sims and number theory.

Skipped when sympy is not installed.  The library never imports sympy; these
tests only compare its answers with hgl's on the catalog groups up to order
~1000 and on every integer up to 2048.
"""

import pytest

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation as SymPermutation
from sympy.combinatorics import PermutationGroup as SymPermutationGroup
from sympy.ntheory import factorint, isprime, primitive_root

from hgl.catalog import build_group
from hgl.numtheory import (
    is_prime,
    least_primitive_root,
    prime_factors,
    prime_power,
    prime_powers_up_to,
)
from hgl.perm import sylow_subgroup
from hgl.structure import structure_report

CATALOG = [
    "C1", "C12", "C30", "S3", "S4", "S5", "S6", "A4", "A5", "A6",
    "D8", "D12", "D30", "F21", "F55", "F253", "E(2,3)", "E(3,3)", "E(5,2)",
    "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PGL(2,5)", "PGL(2,7)", "PGammaL(2,4)",
    "PSL(3,2)", "A4xC5", "S3xS3", "C2xC2xC4", "D8xC2", "F21xD8",
]

N_MAX = 2048


def _sympy_group(group):
    gens = [SymPermutation(list(g.images)) for g in group.generators]
    if not gens:
        gens = [SymPermutation(list(range(group.degree)))]
    return SymPermutationGroup(gens)


def _factor_orders(series):
    return sorted(a.order() // b.order() for a, b in zip(series, series[1:]))


@pytest.mark.parametrize("spec", CATALOG)
def test_catalog_group_against_sympy(spec):
    group = build_group(spec)
    oracle = _sympy_group(group)
    order = group.order()
    assert order == oracle.order()
    report = structure_report(group)
    assert report.is_soluble == oracle.is_solvable
    assert report.is_nilpotent == oracle.is_nilpotent
    assert report.is_abelian == oracle.is_abelian
    if oracle.is_solvable:  # sympy builds composition series of soluble groups only
        assert sorted(report.factor_orders()) == _factor_orders(oracle.composition_series())
    for p in prime_factors(order):
        assert sylow_subgroup(group, p).order() == oracle.sylow_subgroup(p).order() == (
            p ** factorint(order)[p]
        )


def test_primality_and_factors_against_sympy():
    for n in range(N_MAX + 1):
        assert is_prime(n) == isprime(n), n
    for n in range(1, N_MAX + 1):
        assert prime_factors(n) == sorted(factorint(n)), n


def test_prime_powers_against_sympy():
    expected = []
    for q in range(2, N_MAX + 1):
        factors = factorint(q)
        if len(factors) == 1:
            expected.append(q)
            assert prime_power(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(ValueError):
                prime_power(q)
    assert prime_powers_up_to(N_MAX) == expected
    for q in (-4, 0, 1):
        with pytest.raises(ValueError):
            prime_power(q)


def test_least_primitive_root_against_sympy():
    for p in range(2, N_MAX + 1):
        if isprime(p):
            assert least_primitive_root(p) == primitive_root(p), p
