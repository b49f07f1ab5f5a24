"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Counts without a published closed form were frozen after the
enumeration and the independent lattice oracle (oracles.py) agreed on them.
"""

import time
from fractions import Fraction

from hgl.bounds import check_a_ineq, max_abelian_order
from hgl.catalog import build_group, known_aut_group
from hgl.constructions import (
    an_gen_embedding,
    sol_insol_verify,
    untangle_embedding,
)
from hgl.gf import MatrixGF
from hgl.hgsenum import count_hgs, enumerate_regular_subgroups
from hgl.holomorph import hol_context, hol_group
from hgl.isoaut import automorphism_group, are_isomorphic
from hgl.lietables import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    alt_lemma_check,
    helper_bound_e_cubed,
    lie_datum,
    prime_powers_up_to,
    psl2_lemma_check,
    sweep_ineq3,
)
from hgl.perm import PermGroup, Permutation, tidentity, tmul
from hgl.su42 import (
    action_on_planes,
    field4,
    isotropic_planes,
    order27_generators,
    plane_w_index,
    su42_permutation_group,
)

from oracles import regular_subgroups_brute


def report(criterion, ok, elapsed, detail=""):
    line = "criterion %2s: %s (%.1fs)" % (criterion, "PASS" if ok else "FAIL", elapsed)
    if detail:
        line += " -- " + detail
    print(line, flush=True)
    assert ok, line


def heisenberg27() -> PermGroup:
    """The exponent-3 nonabelian group of order 27: upper unitriangular 3x3
    matrices over GF(3) acting on the 27 column vectors."""
    def apply(a12, a13, a23, v):
        x, y, z = v
        return ((x + a12 * y + a13 * z) % 3, (y + a23 * z) % 3, z)

    points = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for a12, a13, a23 in [(1, 0, 0), (0, 0, 1)]:
        gens.append(Permutation([index[apply(a12, a13, a23, v)] for v in points]))
    group = PermGroup(gens, degree=27)
    assert group.order() == 27 and not group.is_abelian()
    return group


def modular27() -> PermGroup:
    """The exponent-9 nonabelian group of order 27 = C9 x| C3, acting on
    Z9 x Z3: s (a,b) = (a+1, b), t (a,b) = (4a, b+1); t s t^-1 = s^4."""
    points = [(a, b) for a in range(9) for b in range(3)]
    index = {v: i for i, v in enumerate(points)}
    s = Permutation([index[((a + 1) % 9, b)] for a, b in points])
    t = Permutation([index[((4 * a) % 9, (b + 1) % 3)] for a, b in points])
    group = PermGroup([s, t], degree=27)
    assert group.order() == 27 and not group.is_abelian()
    assert (t * s * t.inverse()) == s ** 4
    return group


# all count-hgs instances of criteria 1-4, shared (memoized) with criterion 6
_COUNT_INSTANCES = {
    "C9,C9": lambda: count_hgs("C9", "C9"),
    "C9,C3^2": lambda: count_hgs("C9", "E(3,2)"),
    "C25,C25": lambda: count_hgs("C25", "C25"),
    "C27,C27": lambda: count_hgs("C27", "C27"),
    "C27,C9xC3": lambda: count_hgs("C27", "C9xC3"),
    "C27,C3^3": lambda: count_hgs("C27", "E(3,3)"),
    "C27,heis": lambda: count_hgs(build_group("C27"), heisenberg27()),
    "C27,mod": lambda: count_hgs(build_group("C27"), modular27()),
    "A5,A5": lambda: count_hgs("A5", "A5"),
    "C6,C6": lambda: count_hgs("C6", "C6"),
    "C6,S3": lambda: count_hgs("C6", "S3"),
    "S3,C6": lambda: count_hgs("S3", "C6"),
    "S3,S3": lambda: count_hgs("S3", "S3"),
    "C5^2,C5^2": lambda: count_hgs("E(5,2)", "E(5,2)"),
}
_COUNT_CACHE = {}


def counted(key):
    if key not in _COUNT_CACHE:
        _COUNT_CACHE[key] = _COUNT_INSTANCES[key]()
    return _COUNT_CACHE[key]


def test_criterion_01_cyclic_prime_power_counts():
    started = time.monotonic()
    expected = {
        "C9,C9": 3, "C9,C3^2": 0, "C25,C25": 5, "C27,C27": 9,
        "C27,C9xC3": 0, "C27,C3^3": 0, "C27,heis": 0, "C27,mod": 0,
    }
    results = {k: counted(k) for k in expected}
    ok = all(results[k].count == v for k, v in expected.items())
    ok = ok and all(not r.discrepancy for r in results.values())
    elapsed = time.monotonic() - started
    detail = " ".join("%s=%d" % (k, results[k].count) for k in expected)
    report(1, ok and elapsed < 300, elapsed, detail)


def test_criterion_02_simple_group_count():
    started = time.monotonic()
    result = counted("A5,A5")
    elapsed = time.monotonic() - started
    ok = result.count == 2 and result.complete and not result.discrepancy
    report(2, ok and elapsed < 900, elapsed, "count=%d complete=%s" % (result.count, result.complete))


def _oracle_count(gamma_spec, g_spec) -> Fraction:
    """Independent degree-pq count: lattice-oracle regular subgroups of
    hol_group(G), filtered by isomorphism type, through the class-counting
    quotient formula."""
    gamma = build_group(gamma_spec)
    g = build_group(g_spec)
    hol = hol_group(g)
    subgroup_sets = regular_subgroups_brute([p.images for p in hol.elements()], hol.degree)
    matching = 0
    for elements in subgroup_sets:
        gens = [Permutation(p) for p in elements if p != tidentity(hol.degree)]
        if are_isomorphic(PermGroup(gens, degree=hol.degree), gamma) is not None:
            matching += 1
    aut_gamma = automorphism_group(gamma).order()
    aut_g = automorphism_group(g).order()
    return Fraction(aut_gamma * matching, aut_g)


def test_criterion_03_degree_pq_counts():
    started = time.monotonic()
    ok = True
    details = []
    for gamma in ("C6", "S3"):
        for g in ("C6", "S3"):
            result = counted("%s,%s" % (gamma, g))
            oracle = _oracle_count(gamma, g)
            ok = ok and result.count >= 1 and oracle == result.count and not result.discrepancy
            details.append("(%s,%s)=%d" % (gamma, g, result.count))
    elapsed = time.monotonic() - started
    report(3, ok, elapsed, " ".join(details))


def test_criterion_04_elementary_abelian_lower_bound():
    started = time.monotonic()
    result = counted("C5^2,C5^2")
    elapsed = time.monotonic() - started
    ok = result.count == 25 and not result.discrepancy and elapsed < 600
    report(4, ok, elapsed, "count=%d (== p^2 = 25, Byott 1996)" % result.count)


NILPOTENT_CATALOG_16 = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C13", "C14", "C15", "C16",
    "E(2,2)", "E(2,3)", "E(2,4)", "E(3,2)",
    "C2xC4", "C2xC6", "C2xC8", "C4xC4", "C2xC2xC4",
    "D8", "D16", "D8xC2",
]


def test_criterion_05_delta_p_hall_property():
    started = time.monotonic()
    failures = []
    total_subgroups = 0
    for spec in NILPOTENT_CATALOG_16:
        group = build_group(spec)
        assert group.order() <= 16 and group.is_nilpotent(), spec
        ctx = hol_context(group)
        n = ctx.n
        orders = ctx.group.element_orders()
        primes = sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)})
        hp_sets = {}
        expected = {}
        for p in primes:
            hp_sets[p] = frozenset(i for i in range(n) if orders[i] % p)
            size = n
            while size % p == 0:
                size //= p
            expected[p] = size
        records = enumerate_regular_subgroups(group)
        total_subgroups += len(records)
        identity = tidentity(n)
        for record in records:
            for p in primes:
                delta = [e for e in record.elements if e[0] in hp_sets[p]]
                if len(delta) != expected[p]:
                    failures.append((spec, p, "size", record.fingerprint()))
                    continue
                dset = set(delta)
                if any(tmul(a, b) not in dset for a in delta for b in delta):
                    failures.append((spec, p, "not closed", record.fingerprint()))
            gens = _reduced_gens(record.elements, identity)
            n_group = PermGroup(gens, degree=n) if gens else PermGroup.trivial(n)
            if not n_group.is_soluble():
                failures.append((spec, None, "insoluble", record.fingerprint()))
    elapsed = time.monotonic() - started
    report(
        5,
        not failures,
        elapsed,
        "%d groups, %d regular subgroups, %d failures" % (
            len(NILPOTENT_CATALOG_16), total_subgroups, len(failures)
        ),
    )


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _reduced_gens(elements, identity):
    gens = []
    current = None
    for p in elements:
        if p == identity:
            continue
        perm = Permutation(p)
        if current is not None and perm in current:
            continue
        gens.append(perm)
        current = PermGroup(gens, degree=len(p))
        if current.order() == len(elements):
            break
    return gens


LATTICE_ORACLE_SPECS = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "E(2,2)", "E(2,3)", "E(3,2)", "C2xC4", "C2xC6", "D8", "D10", "D12", "S3", "A4",
]


def test_criterion_06_oracle_equivalence():
    started = time.monotonic()
    ok = True
    for spec in LATTICE_ORACLE_SPECS:
        group = build_group(spec)
        hol = hol_group(group)
        brute = regular_subgroups_brute([p.images for p in hol.elements()], hol.degree)
        records = enumerate_regular_subgroups(spec)
        if sorted(r.elements for r in records) != brute:
            ok = False
            print("  oracle mismatch for", spec)
    # crosscheck agreement on every instance from criteria 1-4
    for key in _COUNT_INSTANCES:
        result = counted(key)
        if result.crosscheck != result.count or result.discrepancy:
            ok = False
            print("  crosscheck mismatch for", key)
    elapsed = time.monotonic() - started
    report(6, ok, elapsed, "%d lattice groups, %d crosschecked counts" % (
        len(LATTICE_ORACLE_SPECS), len(_COUNT_INSTANCES)))


def test_criterion_07_a_value_table():
    started = time.monotonic()
    values = {}
    for m, expected in [(3, 3), (4, 4), (5, 6), (6, 9), (7, 12), (8, 18)]:
        values["S%d" % m] = (max_abelian_order(build_group("S%d" % m)).a_value, expected)
    values["A5"] = (max_abelian_order(build_group("A5")).a_value, 5)
    values["PSL(2,7)"] = (max_abelian_order(build_group("PSL(2,7)")).a_value, 7)
    values["PSL(2,8)"] = (max_abelian_order(build_group("PSL(2,8)")).a_value, 9)
    ok = all(got == want for got, want in values.values())
    elapsed = time.monotonic() - started
    report(7, ok, elapsed, " ".join("a(%s)=%d" % (k, got) for k, (got, _) in values.items()))


def test_criterion_08_a_ineq_spot_checks():
    started = time.monotonic()
    failures = []
    details = []
    for spec in ["A5", "A6", "A7", "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)"]:
        t = build_group(spec)
        aut = known_aut_group(spec)
        result = check_a_ineq(t, aut)
        details.append("%s: 3(%d*%d)^3 %s %d^3" % (
            spec, result.a_t, result.a_aut, "<" if result.holds else ">=", result.t_order,
        ))
        if not result.holds:
            failures.append(spec)
    elapsed = time.monotonic() - started
    report(8, not failures and elapsed < 1800, elapsed, "; ".join(details))


def test_criterion_09_lie_sweeps():
    started = time.monotonic()
    datum = lie_datum("2A", 4, 2)
    constructed = su42_permutation_group().order()
    ok = datum.d == 1 and datum.t_order == 25920 == constructed
    classical = sweep_ineq3(CLASSICAL_FAMILIES, n_max=8, q_max=64)
    exceptional = sweep_ineq3(EXCEPTIONAL_FAMILIES, q_max=64)
    ok = ok and classical["pass"] and exceptional["pass"]
    psl2_all = all(
        psl2_lemma_check(q)["pass"] for q in prime_powers_up_to(1024) if q >= 4
    )
    alt_all = all(alt_lemma_check(n) for n in range(5, 65))
    helper = helper_bound_e_cubed(1024)["pass"]
    ok = ok and psl2_all and alt_all and helper
    elapsed = time.monotonic() - started
    report(9, ok, elapsed, "classical rows=%d exceptional rows=%d" % (
        len(classical["rows"]), len(exceptional["rows"])))


def test_criterion_10_psu42_computation():
    started = time.monotonic()
    planes = isotropic_planes()
    a, b = order27_generators()
    identity = MatrixGF.identity(field4(), 4)
    relations = (
        a**9 == identity and b**3 == identity and a**3 != identity
        and b * a == (a**4) * b
    )
    j = PermGroup([action_on_planes(a), action_on_planes(b)], degree=27)
    group = su42_permutation_group()
    h = group.point_stabilizer(plane_w_index())
    from hgl.hgsenum import ComplementaryPair

    embedding = untangle_embedding(ComplementaryPair(group, h, j))
    ok = (
        len(planes) == 27
        and relations
        and j.order() == 27
        and j.is_regular()
        and embedding.certificate["regular"]
        and embedding.certificate["source_order"] == 25920
    )
    elapsed = time.monotonic() - started
    report(10, ok and elapsed < 300, elapsed,
           "planes=%d |J|=%d embedding=%s" % (len(planes), j.order(), embedding.certificate["regular"]))


def test_criterion_11_sol_insol():
    started = time.monotonic()
    ok = True
    details = []
    r1 = sol_insol_verify("i")
    ok = ok and r1.ok and r1.g_report.composition_factors == ((60, "A5"),)
    details.append("i: gamma soluble=%s, G factors=%s" % (
        r1.gamma_report.is_soluble, [t for _, t in r1.g_report.composition_factors]))
    r2 = sol_insol_verify("ii")
    ok = ok and r2.ok and r2.g_report.composition_factors == ((168, "PSL(3,2)"),)
    ok = ok and r2.iso_checks["h_is_s4"]
    details.append("ii: H~S4=%s" % r2.iso_checks["h_is_s4"])
    r3 = sol_insol_verify("iii", p=7)
    ok = ok and r3.ok and r3.iso_checks["h_is_f21"] and r3.iso_checks["j_is_d8"]
    details.append("iii: H~F21=%s J~D8=%s" % (r3.iso_checks["h_is_f21"], r3.iso_checks["j_is_d8"]))
    for r in (r1, r2, r3):
        ok = ok and r.gamma_report.is_soluble and r.g_report.has_nonabelian_simple_factor()
        ok = ok and r.factors_differ
    elapsed = time.monotonic() - started
    report(11, ok, elapsed, "; ".join(details))


def test_criterion_12_negative_controls():
    started = time.monotonic()
    from hgl.hgsenum import find_complement
    from itertools import permutations

    a6 = build_group("A6")
    no_complement = find_complement(a6, a6.point_stabilizer(5)) is None

    identity = tuple(range(6))
    odd_involutions = True
    count = 0
    for p in permutations(range(6)):
        if p != identity and all(p[p[i]] == i and p[i] != i for i in range(6)):
            count += 1
            if Permutation(p).sign() != -1:
                odd_involutions = False
    rejects = False
    try:
        an_gen_embedding(6)
    except ValueError:
        rejects = True
    ok = no_complement and odd_involutions and count == 15 and rejects
    elapsed = time.monotonic() - started
    report(12, ok, elapsed,
           "no regular order-6 in A6=%s; %d fpf involutions all odd=%s; an-gen(6) rejected=%s"
           % (no_complement, count, odd_involutions, rejects))


def test_criterion_13_scale_construction():
    started = time.monotonic()
    embedding = an_gen_embedding(8)
    cert = embedding.certificate
    ok = (
        cert["regular"]
        and cert["degree"] == 20160
        and cert["source_order"] == 20160
        and are_isomorphic(
            PermGroup(list(embedding.source.generators[-3:]), degree=embedding.source.degree),
            build_group("E(2,3)"),
        ) is not None
    )
    elapsed = time.monotonic() - started
    report(13, ok and elapsed < 600, elapsed, "degree=%d regular=%s" % (cert["degree"], cert["regular"]))
