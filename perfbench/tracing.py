"""Spans and counters for one traced CLI call into the hgl package.

The tracer patches the package from outside: each module's entry points are
wrapped in spans (name, start, end, parent), and hot leaf calls (``tmul``,
``CayleyIndexedGroup.mult``, ``HolContext.mult``/``act``, ``_dimino_extend``,
``MatrixGF.__mul__``) only bump counters, because a span per call would cost
more than the call.  Every module-level binding of a wrapped function is
replaced, so ``from .perm import tmul`` in another module is counted too.

A layer is a module of the package.  Its self time is the time of its spans
minus the time their child spans cover; the self times of all layers add up
to the time of the root spans (one ``cli.main`` per job).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (layer, module, qualified name) of every function that gets a span.
SPANS = [
    ("cli", "hgl.cli", "main"),
    ("catalog", "hgl.catalog", "build_group"),
    ("catalog", "hgl.catalog", "known_aut_group"),
    ("projective", "hgl.projective", "projective_group"),
    ("projective", "hgl.projective", "psl3_2"),
    ("hgsenum", "hgl.hgsenum", "enumerate_regular_subgroups"),
    ("hgsenum", "hgl.hgsenum", "regular_subgroups_of_elements"),
    ("hgsenum", "hgl.hgsenum", "semiregular_element_buckets"),
    ("hgsenum", "hgl.hgsenum", "count_hgs"),
    ("hgsenum", "hgl.hgsenum", "delta_p"),
    ("hgsenum", "hgl.hgsenum", "find_complement"),
    ("isoaut", "hgl.isoaut", "are_isomorphic"),
    ("isoaut", "hgl.isoaut", "automorphisms"),
    ("isoaut", "hgl.isoaut", "automorphism_group"),
    ("isoaut", "hgl.isoaut", "inner_automorphism_group"),
    ("structure", "hgl.structure", "conjugacy_classes"),
    ("structure", "hgl.structure", "structure_report"),
    ("structure", "hgl.structure", "is_simple_indexed"),
    ("structure", "hgl.structure", "composition_factors"),
    ("perm", "hgl.perm", "PermGroup._build_chain"),
    ("perm", "hgl.perm", "PermGroup.elements"),
    ("perm", "hgl.perm", "PermGroup.point_stabilizer"),
    ("perm", "hgl.perm", "PermGroup.normal_closure"),
    ("perm", "hgl.perm", "sylow_subgroup"),
    ("cayley", "hgl.cayley", "CayleyIndexedGroup.__init__"),
    ("cayley", "hgl.cayley", "CayleyIndexedGroup.element_orders"),
    ("cayley", "hgl.cayley", "regular_permutation_group"),
    ("holomorph", "hgl.holomorph", "hol_context"),
    ("holomorph", "hgl.holomorph", "RegularEmbedding.from_subgroup"),
    ("holomorph", "hgl.holomorph", "RegularEmbedding.full_map"),
    ("holomorph", "hgl.holomorph", "RegularEmbedding.image_orbit_size"),
    ("holomorph", "hgl.holomorph", "RegularEmbedding.verify"),
    ("constructions", "hgl.constructions", "an_gen_embedding"),
    ("constructions", "hgl.constructions", "an_complementary_pair"),
    ("constructions", "hgl.constructions", "untangle_embedding"),
    ("su42", "hgl.su42", "su42_permutation_group"),
    ("su42", "hgl.su42", "isotropic_planes"),
    ("su42", "hgl.su42", "isotropic_vectors"),
    ("su42", "hgl.su42", "order27_generators"),
    ("su42", "hgl.su42", "action_on_planes"),
    ("su42", "hgl.su42", "su42_contains"),
    ("su42", "hgl.su42", "plane_w_index"),
    ("gf", "hgl.gf", "make_field"),
    ("gf", "hgl.gf", "MatrixGF.rref"),
    ("bounds", "hgl.bounds", "max_abelian_order"),
    ("bounds", "hgl.bounds", "check_a_ineq"),
]

LAYERS = sorted({layer for layer, _, _ in SPANS})

COUNTS = (
    "bounds.calls", "catalog.build_calls", "cayley.index_calls",
    "cayley.indexed_elements", "cayley.mult_calls", "gf.matmul_calls",
    "hgsenum.closures", "hgsenum.closures_kept", "hgsenum.semiregular_elements",
    "hgsenum.subgroups", "holomorph.act_calls", "holomorph.alphas_interned",
    "holomorph.mult_calls", "isoaut.aut_maps", "isoaut.iso_calls",
    "isoaut.iso_found", "perm.chain_builds", "perm.elements_listed",
    "perm.tmul_calls",
)

# Inclusive times of single entry points, counted once per outermost call.
INCLUSIVE = {
    "hgsenum.search_s": "hgl.hgsenum.regular_subgroups_of_elements",
    "hgsenum.buckets_s": "hgl.hgsenum.semiregular_element_buckets",
    "perm.chain_s": "hgl.perm.PermGroup._build_chain",
    "holomorph.full_map_s": "hgl.holomorph.RegularEmbedding.full_map",
    "holomorph.orbit_s": "hgl.holomorph.RegularEmbedding.image_orbit_size",
}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, function, kind) for a module function or method,
    or None when the package no longer has it."""
    try:
        module = importlib.import_module(module_name)
        if "." not in qualname:
            return module, qualname, getattr(module, qualname), "function"
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        return None
    if isinstance(raw, classmethod):
        return owner, attr, raw.__func__, "classmethod"
    return owner, attr, raw, "method"


class Tracer:
    """Spans and counters of one call; install() patches the package."""

    def __init__(self):
        # span: (name, layer, start, end, parent index, tmul before, tmul after)
        self.spans = []
        self.stack = []
        self.counts = {name: [0] for name in COUNTS}
        self.tmul = self.counts["perm.tmul_calls"]
        # entry points the package no longer has, or whose results the
        # counters can no longer read
        self.missing = []

    # -- patching ---------------------------------------------------------------

    def _replace(self, module_name, qualname, make_wrapper):
        resolved = _resolve(module_name, qualname)
        if resolved is None:
            self.missing.append(module_name + "." + qualname)
            return
        owner, attr, fn, kind = resolved
        if inspect.isgeneratorfunction(fn):
            raise TypeError("cannot time the generator function %s" % qualname)
        wrapper = make_wrapper(fn)
        if kind == "function":
            # rebind every module-level alias made by `from .x import f`
            for name, module in list(sys.modules.items()):
                if name == "hgl" or name.startswith("hgl."):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
        elif kind == "classmethod":
            setattr(owner, attr, classmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)

    def _span(self, layer, name, on_result=None):
        spans, stack, tmul, clock = self.spans, self.stack, self.tmul, time.perf_counter
        missing = self.missing

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                stack.append(index)
                parent = stack[-2] if len(stack) > 1 else -1
                before = tmul[0]
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, layer, start, end, parent, before, tmul[0])
                if on_result is not None:
                    try:
                        on_result(args, result)
                    except Exception:  # a changed result type must not fail the call
                        if name not in missing:
                            missing.append(name)
                return result
            return wrapper
        return make

    def _counter(self, metric):
        cell = self.counts[metric]

        def make(fn):
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
            return wrapper
        return make

    def _add(self, metric, amount):
        self.counts[metric][0] += amount

    def install(self):
        """Wrap the entry points and hot calls of the (imported) package.

        An entry point the package no longer has is skipped and listed in
        ``missing``; its spans and counters stay empty.  So is one whose
        result a counter cannot read, for its counter."""
        add = self._add
        on_result = {
            "hgl.catalog.build_group": lambda a, r: add("catalog.build_calls", 1),
            "hgl.hgsenum.regular_subgroups_of_elements":
                lambda a, r: add("hgsenum.subgroups", len(r)),
            "hgl.hgsenum.semiregular_element_buckets":
                lambda a, r: add("hgsenum.semiregular_elements", sum(map(len, r.values()))),
            "hgl.isoaut.are_isomorphic": self._count_iso,
            "hgl.isoaut.automorphisms": lambda a, r: add("isoaut.aut_maps", len(r)),
            "hgl.perm.PermGroup._build_chain": lambda a, r: add("perm.chain_builds", 1),
            "hgl.perm.PermGroup.elements": lambda a, r: add("perm.elements_listed", len(r)),
            "hgl.cayley.CayleyIndexedGroup.__init__": self._count_index,
            "hgl.bounds.max_abelian_order": lambda a, r: add("bounds.calls", 1),
            "hgl.bounds.check_a_ineq": lambda a, r: add("bounds.calls", 1),
        }
        for layer, module, qualname in SPANS:
            name = module + "." + qualname
            self._replace(module, qualname, self._span(layer, name, on_result.get(name)))
        self._replace("hgl.perm", "tmul", self._counter("perm.tmul_calls"))
        self._replace("hgl.cayley", "CayleyIndexedGroup.mult", self._counter("cayley.mult_calls"))
        self._replace("hgl.holomorph", "HolContext.mult", self._counter("holomorph.mult_calls"))
        self._replace("hgl.holomorph", "HolContext.act", self._counter("holomorph.act_calls"))
        self._replace("hgl.gf", "MatrixGF.__mul__", self._counter("gf.matmul_calls"))
        self._replace("hgl.holomorph", "HolContext.intern_alpha", self._count_interned)
        self._replace("hgl.hgsenum", "_dimino_extend", self._count_closures)

    def _count_iso(self, args, result):
        self._add("isoaut.iso_calls", 1)
        self._add("isoaut.iso_found", result is not None)

    def _count_index(self, args, result):
        self._add("cayley.index_calls", 1)
        self._add("cayley.indexed_elements", args[0].n)

    def _count_interned(self, fn):
        cell = self.counts["holomorph.alphas_interned"]

        def wrapper(ctx, alpha):
            known = len(getattr(ctx, "_alphas", ()))
            result = fn(ctx, alpha)
            cell[0] += len(getattr(ctx, "_alphas", ())) - known
            return result
        return wrapper

    def _count_closures(self, fn):
        closures = self.counts["hgsenum.closures"]
        kept = self.counts["hgsenum.closures_kept"]

        def wrapper(*args):
            closures[0] += 1
            result = fn(*args)
            if result is not None:
                kept[0] += 1
            return result
        return wrapper

    # -- results ----------------------------------------------------------------

    def summary(self):
        """Flat sums: per-layer self time and self tmul calls, inclusive
        entry-point times, counters, root-span time and span count.  The
        summaries of several calls add up key by key."""
        spans = self.spans
        if self.stack or any(s is None for s in spans):
            raise RuntimeError("summary() called with spans still open")
        covered = [0.0] * len(spans)
        covered_tmul = [0] * len(spans)
        for name, layer, start, end, parent, before, after in spans:
            if parent >= 0:
                covered[parent] += end - start
                covered_tmul[parent] += after - before
        out = {name: cell[0] for name, cell in self.counts.items()}
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
            out[layer + ".self_tmul_calls"] = 0
        for metric in INCLUSIVE:
            out[metric] = 0.0
        inclusive = {span: metric for metric, span in INCLUSIVE.items()}
        out["trace.root_s"] = 0.0
        out["trace.spans"] = len(spans)
        for index, (name, layer, start, end, parent, before, after) in enumerate(spans):
            out[layer + ".self_s"] += (end - start) - covered[index]
            out[layer + ".self_tmul_calls"] += (after - before) - covered_tmul[index]
            if parent < 0:
                out["trace.root_s"] += end - start
            if name in inclusive:
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != name:
                    ancestor = spans[ancestor][4]
                if ancestor < 0:
                    out[inclusive[name]] += end - start
        return out
