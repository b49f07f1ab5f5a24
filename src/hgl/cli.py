"""Command-line front end: every verification and enumeration as a subcommand.

Output contract: stdout carries a single JSON document (schema 1, keys
sorted, no timing fields) so identical invocations with identical seeds are
byte-identical; human-readable logs and wall time go to stderr.  Exit codes:
0 pass/success, 1 verification failure, 2 usage error, 3 budget exhaustion,
4 input refused by a size cap (perm.CapExceeded).

Results are cached as content-addressed JSON files keyed by (command,
canonical inputs, tool version, sha256 of the package sources) under
--cache-dir or $HGL_CACHE_DIR; entries written by another tool version or
other source code are ignored, and unreadable entries are misses (with a
warning on stderr).  Entries are written whole or not at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .bounds import check_a_ineq, max_abelian_order
from .catalog import SpecError, build_group, known_aut_group, parse_spec, split_outside_parens
from .constructions import (
    an_gen_embedding,
    sol_insol_verify,
    untangle_embedding,
)
from .gf import MatrixGF
from .hgsenum import (
    BudgetExceeded,
    ComplementaryPair,
    DEFAULT_BUDGET,
    count_hgs,
    delta_p,
    enumerate_regular_subgroups,
    find_complement,
)
from .holomorph import RegularEmbedding, hol_context, lambda_embedding
from .isoaut import are_isomorphic, find_isomorphic_subgroup
from .lietables import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    alt_lemma_check,
    helper_bound_e_cubed,
    psl2_lemma_check,
    sweep_ineq3,
)
from .numtheory import prime_factors
from .perm import CapExceeded, PermGroup, sylow_subgroup
from .structure import structure_report
from .su42 import (
    action_on_planes,
    field4,
    isotropic_planes,
    order27_generators,
    plane_w,
    plane_w_index,
    su42_contains,
    su42_permutation_group,
)

SCHEMA = 1


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def source_digest() -> str:
    """sha256 over the name and sha256 of every .py file of the package."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                content = hashlib.sha256(handle.read()).hexdigest()
            digest.update(("%s %s\n" % (name, content)).encode())
    return digest.hexdigest()


class Cache:
    def __init__(self, directory: str | None):
        self.directory = directory
        self.source = None  # hashed only when there is a cache to read
        if directory:
            os.makedirs(directory, exist_ok=True)
            self.source = source_digest()

    def key(self, command: str, inputs: dict) -> str:
        blob = _canonical_json(
            {"command": command, "inputs": inputs, "version": __version__, "source": self.source}
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def load(self, key: str):
        if not self.directory:
            return None
        path = os.path.join(self.directory, key + ".json")
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):  # unreadable, not text, or truncated JSON
            record = None
        if not (
            isinstance(record, dict)
            and isinstance(record.get("ok"), bool)
            and isinstance(record.get("document"), str)
        ):
            print("warning: ignoring unreadable cache entry %s" % path, file=sys.stderr)
            return None
        if record.get("version") != __version__ or record.get("source") != self.source:
            return None
        return record

    def store(self, key: str, record: dict):
        if not self.directory:
            return
        path = os.path.join(self.directory, key + ".json")
        partial = "%s.%d.tmp" % (path, os.getpid())
        with open(partial, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(partial, path)


def _spec_arg(text: str) -> str:
    # canonicalise through the parser so cache keys ignore spelling
    return str(parse_spec(text))


# -- subcommand handlers -------------------------------------------------------
# each returns (result dict, ok flag, complete flag)


def _cmd_count_hgs(args):
    result = count_hgs(args.gamma, args.g, budget=args.budget)
    ok = not result.discrepancy
    return result.as_dict(), ok, result.complete


def _cmd_enumerate_regular(args):
    parts = split_outside_parens(args.candidates or "", ",")
    candidates = [p.strip() for p in parts if p.strip()]
    records = enumerate_regular_subgroups(
        args.g, budget=args.budget, iso_candidates=candidates
    )
    payload = {
        "g": args.g,
        "count": len(records),
        "subgroups": [
            {
                "order": r.order,
                "fingerprint": r.fingerprint(),
                "iso": r.iso_spec,
            }
            for r in records
        ],
    }
    return payload, True, True


def _cmd_delta_p(args):
    group = build_group(args.g)
    ctx = hol_context(group)
    reports = []
    if args.all_embeddings:
        records = enumerate_regular_subgroups(ctx, budget=args.budget)
        for record in records:
            embedding = RegularEmbedding.from_subgroup(ctx, record.elements)
            witness = delta_p(embedding, args.p)
            reports.append(
                {"subgroup": record.fingerprint(), "delta": witness.as_dict(), "ok": witness.ok}
            )
    else:
        witness = delta_p(lambda_embedding(ctx), args.p)
        reports.append({"subgroup": "lambda(G)", "delta": witness.as_dict(), "ok": witness.ok})
    ok = all(r["ok"] for r in reports)
    return {"g": args.g, "p": args.p, "reports": reports}, ok, True


def _cmd_a_value(args):
    result = max_abelian_order(build_group(args.group))
    payload = result.as_dict()
    payload["group"] = args.group
    return payload, True, True


def _cmd_check_a_ineq(args):
    t = build_group(args.t)
    aut = known_aut_group(args.t)
    result = check_a_ineq(t, aut)
    payload = result.as_dict()
    payload["t"] = args.t
    payload["aut_order"] = aut.order()
    return payload, result.holds, True


def _cmd_lie_sweep(args):
    families = [f for f in args.families.split(",") if f]
    for family in families:
        if family not in CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES:
            raise SpecError("unknown family %r" % family)
    report = sweep_ineq3(families, n_max=args.max_n, q_max=args.max_q)
    helper = helper_bound_e_cubed(args.max_q)
    payload = {
        "families": families,
        "max_n": args.max_n,
        "max_q": args.max_q,
        "rows": report["rows"] if args.rows else len(report["rows"]),
        "failures": report["failures"],
        "skipped": report["skipped"],
        "e_cubed_bound": helper,
        "pass": report["pass"] and helper["pass"],
    }
    return payload, payload["pass"], True


def _cmd_psl2_check(args):
    if args.q < 4 or len(prime_factors(args.q)) != 1:
        raise SpecError("psl2-check needs a prime power q >= 4, not %d" % args.q)
    result = psl2_lemma_check(args.q)
    return result, result["pass"], True


def _cmd_alt_check(args):
    if args.n < 5:
        raise SpecError("alt-check needs n >= 5, not %d" % args.n)
    holds = alt_lemma_check(args.n)
    return {"n": args.n, "pass": holds}, holds, True


def _cmd_untangle(args):
    group = build_group(args.g)
    h = _resolve_h(group, args.h)
    j = _resolve_j(group, h, args.j, args.budget)
    if j is None:
        return (
            {"g": args.g, "h_order": h.order(), "j": None, "reason": "no complement exists"},
            False,
            True,
        )
    pair = ComplementaryPair(group, h, j)
    if not pair.verify():
        return (
            {"g": args.g, "h_order": h.order(), "j_order": j.order(), "reason": "not complementary"},
            False,
            True,
        )
    embedding = untangle_embedding(pair)
    payload = {
        "g": args.g,
        "h_order": h.order(),
        "j_order": j.order(),
        "certificate": embedding.certificate,
        "embedding": embedding.serialize() if args.witness else None,
    }
    return payload, embedding.certificate["regular"], True


def _resolve_h(group: PermGroup, text: str) -> PermGroup:
    if text == "stab":
        return group.point_stabilizer(0)
    if text.startswith("stab:"):
        return group.point_stabilizer(int(text.split(":", 1)[1]))
    target = build_group(text)
    found = find_isomorphic_subgroup(group, target)
    if found is None:
        raise SpecError("no subgroup of %s isomorphic to %s found" % (group, text))
    return found


def _resolve_j(group: PermGroup, h: PermGroup, text: str, budget: int):
    if text == "search":
        return find_complement(group, h, budget=budget)
    if text.startswith("sylow:"):
        return sylow_subgroup(group, int(text.split(":", 1)[1]))
    target = build_group(text)
    j = find_complement(group, h, budget=budget)
    if j is None:
        return None
    if are_isomorphic(j, target) is None:
        raise SpecError("found complement is not isomorphic to %s" % text)
    return j


def _cmd_an_gen(args):
    if args.n % 4 == 2:
        return (
            {"n": args.n, "reason": "n = 2 mod 4: no complementary subgroup"},
            False,
            True,
        )
    embedding = an_gen_embedding(args.n)
    payload = {
        "n": args.n,
        "gamma_order": embedding.certificate["source_order"],
        "certificate": embedding.certificate,
    }
    return payload, embedding.certificate["regular"], True


def _cmd_psu42_verify(args):
    a, b = order27_generators()
    identity = MatrixGF.identity(field4(), 4)
    planes = isotropic_planes()
    j_a, j_b = action_on_planes(a), action_on_planes(b)
    j = PermGroup([j_a, j_b], degree=27)
    relations = {
        "A9": a**9 == identity,
        "B3": b**3 == identity,
        "A3_ne_I": a**3 != identity,
        "BA_eq_A4B": b * a == (a**4) * b,
    }
    w = plane_w()
    images = {tuple((w * (a**m)).rref().rows) for m in range(9)}
    images.add(tuple((w * b).rref().rows))
    group = su42_permutation_group(seed=args.seed)
    payload = {
        "planes": len(planes),
        "a_in_g": su42_contains(a),
        "b_in_g": su42_contains(b),
        "relations": relations,
        "w_images_distinct": len(images),
        "j_order": j.order(),
        "regular": j.is_regular(),
        "group_order": group.order(),
        "h_order": group.point_stabilizer(plane_w_index()).order(),
    }
    ok = (
        payload["planes"] == 27
        and payload["a_in_g"]
        and payload["b_in_g"]
        and all(relations.values())
        and payload["w_images_distinct"] == 10
        and payload["j_order"] == 27
        and payload["regular"]
        and payload["group_order"] == 25920
    )
    if args.embedding:
        h = group.point_stabilizer(plane_w_index())
        pair = ComplementaryPair(group, h, j)
        embedding = untangle_embedding(pair)
        payload["embedding"] = embedding.certificate
        ok = ok and embedding.certificate["regular"]
    return payload, ok, True


def _cmd_sol_insol(args):
    report = sol_insol_verify(args.case, p=args.p, allow_large=args.allow_large)
    payload = report.as_dict()
    return payload, report.ok, True


def _cmd_structure(args):
    report = structure_report(build_group(args.group))
    payload = report.as_dict()
    payload["group"] = args.group
    return payload, True, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgl",
        allow_abbrev=False,
        description="Holomorphs, regular embeddings and Hopf-Galois structure counts.",
        epilog=(
            "Group specs: C9, S5, A6, D8 (dihedral by order), F21 (Frobenius by "
            "order), E(5,2) for C5^2, PSL(2,7), PGL(2,9), PGammaL(2,9), PSL(3,2), "
            "PSU(4,2); products with x, e.g. A4xC5."
        ),
    )
    parser.add_argument("--cache-dir", default=os.environ.get("HGL_CACHE_DIR"))
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="search node budget (exhaustion exits 3)")
    parser.add_argument("--seed", type=int, default=0)
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", default=True)
    fmt.add_argument("--text", dest="as_json", action="store_false")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-hgs", help="count Hopf-Galois structures of type G")
    p.add_argument("--gamma", required=True, type=_spec_arg)
    p.add_argument("--g", required=True, type=_spec_arg)
    p.set_defaults(handler=_cmd_count_hgs)

    p = sub.add_parser("enumerate-regular", help="regular subgroups of Hol(G)")
    p.add_argument("--g", required=True, type=_spec_arg)
    p.add_argument("--candidates", default="", help="comma-separated iso-type specs")
    p.set_defaults(handler=_cmd_enumerate_regular)

    p = sub.add_parser("delta-p", help="Hall p'-subgroup extraction Delta_p")
    p.add_argument("--g", required=True, type=_spec_arg)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--all-embeddings", action="store_true")
    p.set_defaults(handler=_cmd_delta_p)

    p = sub.add_parser("a-value", help="maximal abelian subgroup order a(G)")
    p.add_argument("--group", required=True, type=_spec_arg)
    p.set_defaults(handler=_cmd_a_value)

    p = sub.add_parser("check-a-ineq", help="cubed check of 3^(1/3) a(T) a(Aut T) < |T|")
    p.add_argument("--t", required=True, type=_spec_arg)
    p.set_defaults(handler=_cmd_check_a_ineq)

    p = sub.add_parser("lie-sweep", help="3 d |Out|^3 < |G| over parameter windows")
    p.add_argument("--families", default=",".join(CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES))
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-q", type=int, default=64)
    p.add_argument("--rows", action="store_true", help="include per-datum rows")
    p.set_defaults(handler=_cmd_lie_sweep)

    p = sub.add_parser("psl2-check", help="reduced PSL2 inequality for one q")
    p.add_argument("--q", required=True, type=int)
    p.set_defaults(handler=_cmd_psl2_check)

    p = sub.add_parser("alt-check", help="alternating-group inequality for one n")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(handler=_cmd_alt_check)

    p = sub.add_parser("untangle", help="regular embedding from a complementary pair")
    p.add_argument("--g", required=True, type=_spec_arg)
    p.add_argument("--h", required=True,
                   help='"stab", "stab:P", or a spec to locate up to isomorphism')
    p.add_argument("--j", required=True,
                   help='"search", "sylow:P", or a spec the found complement must match')
    p.add_argument("--witness", action="store_true", help="include the embedding images")
    p.set_defaults(handler=_cmd_untangle)

    p = sub.add_parser("an-gen", help="A_{n-1} x C_2^e x C_m into Hol(A_n)")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(handler=_cmd_an_gen)

    p = sub.add_parser("psu42-verify", help="the unitary 27-point computation")
    p.add_argument("--embedding", action="store_true", default=True)
    p.add_argument("--no-embedding", dest="embedding", action="store_false")
    p.set_defaults(handler=_cmd_psu42_verify)

    p = sub.add_parser("sol-insol", help="soluble Galois group, insoluble type")
    p.add_argument("--case", required=True, choices=["i", "ii", "iii"])
    p.add_argument("--p", type=int, default=7)
    p.add_argument("--allow-large", action="store_true",
                   help="permit Mersenne p > 7 in case iii (slow)")
    p.set_defaults(handler=_cmd_sol_insol)

    p = sub.add_parser("structure", help="order, solubility, composition factors")
    p.add_argument("--group", required=True, type=_spec_arg)
    p.set_defaults(handler=_cmd_structure)

    return parser


def _inputs_of(args) -> dict:
    skip = {"handler", "command", "cache_dir", "as_json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _render_text(payload: dict, out):
    for key, value in payload.items():
        if key in ("schema", "version"):
            continue
        print("%s: %s" % (key, json.dumps(value, sort_keys=True)), file=out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        cache = Cache(args.cache_dir)
    except OSError as exc:  # e.g. --cache-dir names a file
        print("error: unusable --cache-dir: %s" % exc, file=sys.stderr)
        return 2
    inputs = _inputs_of(args)
    key = cache.key(args.command, inputs)
    started = time.monotonic()
    cached = cache.load(key)
    if cached is not None:
        ok = cached["ok"]
        document = cached["document"]
        if args.as_json:
            sys.stdout.write(document)
        else:
            _render_text(json.loads(document)["result"], sys.stdout)
            print("ok: %s" % ok, file=sys.stdout)
        print("cache hit (%s)" % key[:12], file=sys.stderr)
        return 0 if ok else 1
    try:
        payload, ok, complete = args.handler(args)
    except BudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, NotImplementedError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    envelope = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "inputs": inputs,
        "complete": complete,
        "ok": ok,
        "result": payload,
    }
    document = _canonical_json(envelope) + "\n"
    cache.store(
        key,
        {
            "version": __version__,
            "source": cache.source,
            "command": args.command,
            "inputs": inputs,
            "complete": complete,
            "ok": ok,
            "wall_time": elapsed,
            "cache_key": key,
            "document": document,
        },
    )
    if args.as_json:
        sys.stdout.write(document)
    else:
        _render_text(envelope["result"], sys.stdout)
        print("ok: %s" % ok, file=sys.stdout)
    print("wall time %.2fs" % elapsed, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
