"""Independent brute-force oracles for the test suite.

These deliberately share no code path with the library's searches: subgroups
come from exhaustive lattice growth over explicit element lists, and the
abelian maximum scans that lattice.  The embedding oracles check the Cayley
edge of every element for every generator, and find the orbit of the
identity index by a BFS over the action.  The cyclic-subgroup oracle walks
every pair [g, alpha] of Hol(G), with no orbit reduction, and so does the
bucket oracle.  The Aut(G) oracle keeps every leaf of the full generator-image
backtrack that the isomorphism test runs, with no stabilizer chain.  Desk
scale only.
"""

from hgl.isoaut import _CandidateData, _Search
from hgl.perm import tidentity, tmul


def closure_capped(gens, degree, cap):
    identity = tidentity(degree)
    seen = {identity}
    queue = [identity]
    while queue:
        current = queue.pop()
        for g in gens:
            product = tmul(current, g)
            if product not in seen:
                if len(seen) + 1 > cap:
                    return None
                seen.add(product)
                queue.append(product)
    return frozenset(seen)


def all_subgroups_up_to(elements, degree, max_order):
    """Every subgroup of order <= max_order of the group with the given
    element list, by lattice growth from cyclic subgroups."""
    elements = [tuple(p) for p in elements]
    subgroups = set()
    frontier = []
    identity = tidentity(degree)
    subgroups.add(frozenset([identity]))
    for p in elements:
        cyc = closure_capped([p], degree, max_order)
        if cyc is not None and cyc not in subgroups:
            subgroups.add(cyc)
            frontier.append(cyc)
    while frontier:
        current = frontier.pop()
        current_gens = list(current)
        for p in elements:
            if p in current:
                continue
            extended = closure_capped(current_gens + [p], degree, max_order)
            if extended is not None and extended not in subgroups:
                subgroups.add(extended)
                frontier.append(extended)
    return subgroups


def regular_subgroups_brute(elements, degree):
    """Regular subgroups of the given element list: order = degree, transitive,
    trivial point stabilizers, all checked directly."""
    out = []
    for subgroup in all_subgroups_up_to(elements, degree, degree):
        if len(subgroup) != degree:
            continue
        # semiregular: no non-identity element fixes a point
        identity = tidentity(degree)
        if any(p != identity and any(i == j for i, j in enumerate(p)) for p in subgroup):
            continue
        orbit = {0}
        for p in subgroup:
            orbit.add(p[0])
        if len(orbit) == degree:
            out.append(tuple(sorted(subgroup)))
    return sorted(out)


def max_abelian_brute(elements, degree, order_cap=10**6):
    """a(G) by scanning every abelian subgroup in the full lattice."""
    best = 1
    for subgroup in all_subgroups_up_to(elements, degree, order_cap):
        members = list(subgroup)
        abelian = all(
            tmul(a, b) == tmul(b, a) for i, a in enumerate(members) for b in members[i + 1:]
        )
        if abelian:
            best = max(best, len(members))
    return best


def homomorphism_map_all_generators(source, gen_images, mult, identity):
    """The homomorphism given by generator images, by a BFS that checks the
    Cayley edge of every element for every generator (ValueError if the
    images do not define a homomorphism)."""
    gens = [(g.images, image) for g, image in zip(source.generators, gen_images)]
    start = tidentity(source.degree)
    mapping = {start: identity}
    queue = [start]
    for current in queue:
        image = mapping[current]
        for gen_perm, gen_image in gens:
            product = tmul(current, gen_perm)
            product_image = mult(image, gen_image)
            known = mapping.get(product)
            if known is None:
                mapping[product] = product_image
                queue.append(product)
            elif known != product_image:
                raise ValueError("generator images do not define a homomorphism")
    return mapping


def image_orbit_size_bfs(ctx, images):
    """Orbit size of the identity index under hol pairs and their inverses,
    by a BFS over the action."""
    seen = {0}
    queue = [0]
    moves = list(images) + [ctx.inv(x) for x in images]
    while queue:
        t = queue.pop()
        for x in moves:
            u = ctx.act(x, t)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen)


def regular_cyclic_subgroups_all_points(ctx, aut_maps):
    """Regular cyclic subgroups of Hol(G), as sorted element tuples, by
    walking the cycle of 0 under every [g, alpha] with g != 1 and keeping the
    spans of the n-cycles."""
    n = ctx.n
    if n == 1:
        return [(tidentity(1),)]
    found = set()
    for alpha in aut_maps:
        for g in range(1, n):
            point = 0
            length = 0
            while True:
                point = ctx.group.mult(g, alpha[point])
                length += 1
                if point == 0 or length > n:
                    break
            if length != n:
                continue
            perm = ctx.action_perm(g, alpha)
            elements = [tidentity(n)]
            power = perm
            while power != elements[0]:
                elements.append(power)
                power = tmul(power, perm)
            found.add(tuple(sorted(elements)))
    return sorted(found)


def automorphisms_full_search(indexed):
    """All automorphisms of an indexed group, as sorted index-map tuples:
    every map of the unprefixed generator-image backtrack."""
    data = _CandidateData(indexed)
    return sorted(tuple(m) for m in _Search(data, data).maps())


def semiregular_element_buckets_all_pairs(ctx, aut_maps):
    """The action permutations of all [g, alpha] with g != 1 whose cycles
    all have one length, bucketed by g and sorted."""
    buckets = {g: [] for g in range(1, ctx.n)}
    for alpha in aut_maps:
        for g in range(1, ctx.n):
            perm = ctx.action_perm(g, alpha)
            lengths = set()
            seen = set()
            for start in range(ctx.n):
                length = 0
                point = start
                while point not in seen:
                    seen.add(point)
                    point = perm[point]
                    length += 1
                if length:
                    lengths.add(length)
            if len(lengths) == 1:
                buckets[g].append(perm)
    for bucket in buckets.values():
        bucket.sort()
    return buckets
