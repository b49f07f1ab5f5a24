import pytest

from hgl import holomorph
from hgl.catalog import build_group
from hgl.cayley import index_group, regular_permutation_group
from hgl.constructions import an_gen_embedding, untangle_embedding
from hgl.hgsenum import ComplementaryPair, find_complement
from hgl.holomorph import (
    RegularEmbedding,
    conjugation_aut,
    hol_context,
    hol_group,
    homomorphism_map,
    lambda_embedding,
    rho_embedding,
)
from hgl.isoaut import automorphisms
from hgl.perm import PermGroup, Permutation, brute_closure, tuple_order
from oracles import homomorphism_map_all_generators, image_orbit_size_bfs


def test_index_group_shapes():
    c3 = index_group(build_group("C3"))
    assert c3.n == 3
    assert [c3.mult(0, j) for j in range(3)] == [0, 1, 2]
    s3 = index_group(build_group("S3"))
    assert s3.n == 6
    assert sum(1 for i in range(6) if s3.element_order(i) == 2) == 3
    a5 = index_group(build_group("A5"))
    assert a5.n == 60


def test_identity_is_index_zero_and_table_is_group():
    for spec in ["S3", "D8", "C9"]:
        indexed = index_group(build_group(spec))
        n = indexed.n
        for i in range(n):
            assert indexed.mult(0, i) == i == indexed.mult(i, 0)
            assert indexed.mult(i, indexed.inv(i)) == 0
        # associativity, exhaustive at these sizes
        for a in range(n):
            for b in range(n):
                for c in range(0, n, 2):
                    assert indexed.mult(indexed.mult(a, b), c) == indexed.mult(a, indexed.mult(b, c))


def test_associativity_random_above_exhaustive_sizes():
    import random

    rng = random.Random(23)
    for spec in ["A5", "PSL(2,7)"]:
        indexed = index_group(build_group(spec))
        n = indexed.n
        for _ in range(300):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert indexed.mult(indexed.mult(a, b), c) == indexed.mult(a, indexed.mult(b, c))


def test_hol_mult_is_eq1_and_matches_action():
    # [g1,a1][g2,a2] = [g1 a1(g2), a1 a2]; action of a product is the
    # composite action.  Exhaustive for |G| <= 24.
    for spec in ["S3", "C4", "A4"]:
        ctx = hol_context(build_group(spec))
        auts = [ctx.intern_alpha(a) for a in automorphisms(ctx.group)]
        elements = [(g, a) for g in range(ctx.n) for a in auts]
        for x in elements:
            for y in elements:
                xy = ctx.mult(x, y)
                assert xy[0] == ctx.group.mult(x[0], ctx.alpha_tuple(x[1])[y[0]])
                for t in range(ctx.n):
                    assert ctx.act(xy, t) == ctx.act(x, ctx.act(y, t))


def test_lambda_rho_translation_forms():
    ctx = hol_context(build_group("S3"))
    for g in range(6):
        lam = ctx.lam(g)
        for t in range(6):
            assert ctx.act(lam, t) == ctx.group.mult(g, t)
        rho = ctx.rho(g)
        for t in range(6):
            assert ctx.act(rho, t) == ctx.group.mult(t, ctx.group.inv(g))
    # [0, alpha] acts as alpha
    auts = automorphisms(ctx.group)
    for alpha in auts:
        aid = ctx.intern_alpha(alpha)
        assert all(ctx.act((0, aid), t) == alpha[t] for t in range(6))


def test_lambda_rho_commute_elementwise():
    for spec in ["S3", "D8", "A4"]:
        ctx = hol_context(build_group(spec))
        for g in range(ctx.n):
            for h in range(ctx.n):
                assert ctx.mult(ctx.lam(g), ctx.rho(h)) == ctx.mult(ctx.rho(h), ctx.lam(g))


def test_conjugation_examples():
    ctx = hol_context(build_group("S3"))
    assert conjugation_aut(ctx, 0) == tuple(range(6))
    three_cycle = next(i for i in range(6) if ctx.group.element_order(i) == 3)
    assert tuple_order(conjugation_aut(ctx, three_cycle)) == 3
    abelian = hol_context(build_group("C6"))
    assert all(conjugation_aut(abelian, g) == tuple(range(6)) for g in range(6))


def test_hol_group_orders():
    assert hol_group(build_group("C4")).order() == 8
    assert hol_group(build_group("C9")).order() == 54
    assert hol_group(build_group("S3")).order() == 36
    assert hol_group(build_group("E(2,2)")).order() == 24


def test_unique_factorization_decode():
    # every permutation in hol_group(G) decodes to a unique [g, alpha] pair
    # whose alpha is an automorphism
    group = build_group("S3")
    ctx = hol_context(group)
    hol = hol_group(group)
    seen = set()
    for perm in hol.elements():
        pair = ctx.decode_perm(perm.images)
        assert pair not in seen
        seen.add(pair)
        assert ctx.element_perm(pair) == perm.images
        assert ctx.is_automorphism(ctx.alpha_tuple(pair[1]))
    assert len(seen) == 36


def test_lambda_rho_are_regular_embeddings():
    for spec in ["S3", "C9", "A4", "C12"]:
        ctx = hol_context(build_group(spec))
        for emb in (lambda_embedding(ctx), rho_embedding(ctx)):
            cert = emb.verify()
            assert cert["regular"] and cert["homomorphism"]


def test_embedding_serialization():
    ctx = hol_context(build_group("C4"))
    emb = lambda_embedding(ctx)
    data = emb.serialize()
    assert data["images"][0] == {"g": 1, "alpha": [0, 1, 2, 3]}


def test_from_subgroup_inclusion():
    group = build_group("C6")
    ctx = hol_context(group)
    lam = lambda_embedding(ctx)
    perms = [ctx.element_perm(v) for v in lam.full_map().values()]
    emb = RegularEmbedding.from_subgroup(ctx, perms)
    assert emb.verify()["regular"]


def test_bad_generator_images_rejected():
    # S3 = <a, b | a^2, b^3, ...>: sending the order-3 generator to an
    # order-2 image breaks b^3 = e and must be caught by the edge check
    group = build_group("S3")
    ctx = hol_context(group)
    order2 = next(i for i in range(6) if ctx.group.element_order(i) == 2)
    images = []
    for gen in group.generators:
        images.append(ctx.lam(ctx.group.index[gen.images] if gen.order() == 2 else order2))
    emb = RegularEmbedding(group, ctx, images)
    with pytest.raises(ValueError):
        emb.verify()


def test_non_injective_hom_is_not_regular():
    # a legitimate homomorphism with small image: C4 -> Hol(C4) through an
    # order-2 translation; verify() proves the law but reports regular=False
    group = build_group("C4")
    ctx = hol_context(group)
    order2 = next(i for i in range(4) if ctx.group.element_order(i) == 2)
    emb = RegularEmbedding(group, ctx, [ctx.lam(order2)])
    cert = emb.verify()
    assert cert["homomorphism"] and not cert["regular"]
    assert cert["orbit_size"] == 2


def test_regular_permutation_group_roundtrip():
    indexed = index_group(build_group("S3"))
    regular = regular_permutation_group(indexed)
    assert regular.order() == 6
    assert regular.is_regular()


# -- the generating-subset walk against the all-generator BFS ------------------


def _all_elements_source(ctx):
    """G generated by all n - 1 of its non-identity elements."""
    return PermGroup(ctx.group.elements[1:], degree=ctx.group.source.degree)


def _complementary_untangle(spec):
    group = build_group(spec)
    h = group.point_stabilizer(0)  # Schreier generators, some of them redundant
    return untangle_embedding(ComplementaryPair(group, h, find_complement(group, h)))


def _differential_cases():
    s3 = build_group("S3")
    yield "untangle S3", untangle_embedding(ComplementaryPair(
        s3, PermGroup([Permutation.parse("(0 1)", 3)]), PermGroup([Permutation.parse("(0 1 2)", 3)])
    ))
    for spec in ("S4", "S5"):
        yield "untangle %s over its point stabilizer" % spec, _complementary_untangle(spec)
    for n in (4, 5):  # n = 6 is 2 mod 4: A5 has no complement in A6
        yield "an_gen %d" % n, an_gen_embedding(n)
    for spec in ("S3", "D8", "A4", "C2xC4"):
        ctx = hol_context(build_group(spec))
        source = _all_elements_source(ctx)
        yield "lambda %s, all elements" % spec, lambda_embedding(ctx, source)
        yield "rho %s, all elements" % spec, rho_embedding(ctx, source)


def _greedy_kept(source):
    """The generators the walk keeps: each one outside the closure of the
    ones kept before it."""
    kept, closure = [], {tuple(range(source.degree))}
    for gen in source.generators:
        if gen.images not in closure:
            kept.append(gen.images)
            closure = brute_closure(kept)
    return kept


@pytest.mark.parametrize("name,emb", list(_differential_cases()))
def test_generating_subset_walk_matches_all_generator_bfs(name, emb):
    ctx = emb.ctx
    calls = []

    def counted_mult(x, y):
        calls.append(None)
        return ctx.mult(x, y)

    expected = homomorphism_map_all_generators(emb.source, emb.images, ctx.mult, ctx.identity)
    mapping = homomorphism_map(emb.source, emb.images, counted_mult, ctx.identity)
    assert mapping == expected
    assert emb.full_map() == expected
    assert emb.image_orbit_size() == image_orbit_size_bfs(ctx, emb.images)
    assert emb.verify()["source_order"] == len(expected)
    # every (element, kept generator) edge is checked exactly once
    assert len(calls) == len(expected) * len(_greedy_kept(emb.source))


def test_redundant_generators_are_dropped():
    ctx = hol_context(build_group("D8"))
    source = _all_elements_source(ctx)
    assert len(source.generators) == 7 and len(_greedy_kept(source)) == 2


@pytest.mark.parametrize("spec", ["S3", "D8", "A4"])
def test_wrong_image_on_dropped_or_kept_generator_rejected(spec):
    ctx = hol_context(build_group(spec))
    source = _all_elements_source(ctx)
    images = lambda_embedding(ctx, source).images
    kept = _greedy_kept(source)
    positions = [i for i, g in enumerate(source.generators) if g.images not in kept]
    positions.append(0)  # the first generator is always kept
    for position in positions:
        wrong = list(images)
        wrong[position] = ctx.identity  # lambda(g) for g != 1 is not the identity
        with pytest.raises(ValueError, match="do not define a homomorphism"):
            homomorphism_map(source, wrong, ctx.mult, ctx.identity)
        with pytest.raises(ValueError):
            homomorphism_map_all_generators(source, wrong, ctx.mult, ctx.identity)


def test_embedding_map_cap(monkeypatch):
    ctx = hol_context(build_group("S3"))
    monkeypatch.setattr(holomorph, "EMBEDDING_MAP_CAP", 5)
    with pytest.raises(ValueError, match="embedding map cap 5 exceeded"):
        lambda_embedding(ctx).verify()
    monkeypatch.setattr(holomorph, "EMBEDDING_MAP_CAP", 6)
    assert lambda_embedding(ctx).verify()["source_order"] == 6
