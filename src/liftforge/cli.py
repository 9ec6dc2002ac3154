"""Command-line interface.

Exit status: 0 on success / verified, 1 on a mathematical mismatch, 2 on
usage errors.  --long gates only ``landscapes`` (counts past k = 15 and
listings past k = 12).  Stdout stays machine-readable; stderr carries only
errors, the search6 summary and the closure's budget note.  Nothing prints
progress yet.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import catalog as catalog_mod
from . import corefn, diffunif, exprlang, families, landscape, lifting, search6

MISMATCH = 1


def _emit(args, doc, text_lines, csv_rows=None) -> None:
    """Print one result in the chosen format: ``doc`` as JSON (a list as one
    object per line), or the text lines.  CSV gets ``csv_rows`` (header
    first) where given, else the text lines split at tabs."""
    if args.format == "json":
        for d in doc if isinstance(doc, list) else [doc]:
            print(json.dumps(d, sort_keys=True))
    elif args.format == "csv":
        rows = csv_rows if csv_rows is not None else (line.split("\t") for line in text_lines)
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in text_lines:
            print(line)


def _expr_rule(text: str) -> corefn.Rule:
    return exprlang.eval_expr(exprlang.parse_expr(text))


def _maybe_ascii(s: str, args) -> str:
    return s.replace("★", "*").replace("∘", "o") if args.ascii else s


def cmd_parse(args) -> int:
    e = exprlang.parse_expr(args.expr)
    r = exprlang.eval_expr(e)
    doc = {
        "expr": exprlang.print_expr(e, ascii=args.ascii),
        "rule": r.text(),
        "k": r.k,
        "degree": corefn.degree(r),
        "balanced": corefn.is_balanced(r),
        "anf": corefn.render_anf(corefn.to_anf(r)),
        "class": corefn.canonicalize(r).text(),
    }
    _emit(args, doc, [f"{k}\t{v}" for k, v in doc.items()])
    return 0


def cmd_verify(args) -> int:
    r = _expr_rule(args.expr)
    verdict = lifting.decide_proper(r, method="pair-graph" if args.exact else "finite-scan")
    lines, row = [verdict.decision], [verdict.decision, verdict.method, "", "", ""]
    w = verdict.witness
    if w is not None:
        lines.append(f"collision at n={w.n}: {w.bits(w.x)} and {w.bits(w.y)}")
        row[2:] = [w.n, w.bits(w.x), w.bits(w.y)]
    _emit(args, verdict.as_dict(), lines, [("decision", "method", "n", "x", "y"), row])
    return 0 if verdict.proper else MISMATCH


def cmd_compose(args) -> int:
    r = _expr_rule("∘".join(f"({e})" for e in args.exprs))
    doc = {"rule": r.text(), "k": r.k, "shift": r.shift, "anf": corefn.render_anf(corefn.to_anf(r))}
    _emit(args, doc, [f"{k}\t{v}" for k, v in doc.items()])
    return 0


def cmd_expand(args) -> int:
    out = lifting.expand(_expr_rule(args.expr), args.stride)
    doc = {"rule": out.text(), "k": out.k}
    _emit(args, doc, [f"{k}\t{v}" for k, v in doc.items()])
    return 0


def cmd_landscapes(args) -> int:
    if (args.k > 15 or (args.list and args.k > 12)) and not args.long:
        print("counts past k = 15 and listings past k = 12 require --long", file=sys.stderr)
        return 2
    res = landscape.enumerate_conserved(args.k, include_list=args.list)
    doc = res.to_json()
    listing = []
    rows = [["k", "count", "classes"], [args.k, res.count, res.class_count]]
    if args.list:
        listing = [_maybe_ascii(l.symbols, args) for l in res.landscapes]
        doc["landscapes"] = listing
        rows = [["landscape"]] + [[l] for l in listing]
    _emit(args, doc, listing + [f"count={res.count} classes={res.class_count}"], rows)
    return 0


def cmd_search6(args) -> int:
    pooled = search6.search_all(include_complemented=args.complemented)
    rows = []
    for s in (2, 3, 4, 5):
        for inv in pooled.by_offset[s].involutions:
            rows.append(
                {
                    "s": inv.s,
                    "rule": inv.rule.text(),
                    "class": inv.class_id.text(),
                    "anf": corefn.render_anf(corefn.to_anf(inv.rule)),
                }
            )
    lines = [f"s={row['s']}\t{row['rule']}\t{row['class']}\t{row['anf']}" for row in rows]
    fields = ("s", "rule", "class", "anf")
    _emit(args, rows, lines, [fields] + [[row[f] for f in fields] for row in rows])
    if args.format != "json":
        print(f"functions={pooled.function_count} classes={pooled.class_count}", file=sys.stderr)
    return 0


def cmd_families(args) -> int:
    if args.r is not None:
        params = families.ChainFamilyParams(args.r)
        r = families.build_chain(params)
        claim = ("chain", args.r, args.r)
        ok = families.verify_order_claim(r, args.r, args.r)
    else:
        if args.k is None or args.j is None or args.set is None:
            print("need either --r or all of --k --j --set", file=sys.stderr)
            return 2
        try:
            members = frozenset(int(v) for v in args.set.split(","))
        except ValueError:
            msg = f"bad --set {args.set!r}; expected integers, comma-separated"
            raise families.InvalidParamsError("subset-syntax", msg) from None
        params = families.symmetric_params(args.k, args.j, members)
        r = families.build_symmetric(params)
        claim = ("symmetric", 1 << params.r_exp, params.j)
        ok = families.verify_order_claim(r, 1 << params.r_exp, params.j)
    verdict = lifting.decide_proper(r)
    doc = {
        "family": claim[0],
        "rule": r.text(),
        "k": r.k,
        "anf": corefn.render_anf(corefn.to_anf(r)),
        "proper": verdict.proper,
        "order_power": claim[1],
        "order_verified": ok,
    }
    _emit(args, doc, [f"{k}\t{v}" for k, v in doc.items()])
    return 0 if ok and verdict.proper else MISMATCH


def _parse_range(spec: str) -> tuple[int, int]:
    lo_s, sep, hi_s = spec.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise diffunif.LengthRangeError(f"bad length range {spec!r}; expected N or N..M") from None
    if lo > hi:
        raise diffunif.LengthRangeError(f"empty length range {spec!r}")
    return lo, hi


def cmd_du(args) -> int:
    lo, hi = _parse_range(args.n)
    rep = diffunif.du_profile(_expr_rule(args.expr), lo, hi)
    vals = [e.scaled_str() for e in rep.entries] if args.scaled else [str(e.raw) for e in rep.entries]
    rows = [("n", "raw", "scaled")] + [(e.n, e.raw, e.scaled_str()) for e in rep.entries]
    _emit(args, rep.to_json(), [" ".join(vals)], rows)
    return 0


def cmd_catalog(args) -> int:
    entries = catalog_mod.load_catalog()
    if args.list:
        lo, hi = catalog_mod.DU_RANGE
        docs, lines, rows = [], [], [["expr", "degree"] + [f"du{n}" for n in range(lo, hi + 1)]]
        for e in entries:
            expr, du = _maybe_ascii(e.text, args), list(e.stated_du or ())
            docs.append({"expr": expr, "degree": e.stated_degree, "du": du or None})
            lines.append(f"{expr}\t{e.stated_degree}\t" + (",".join(map(str, du)) or "-"))
            rows.append([expr, e.stated_degree] + (du or [""] * (hi - lo + 1)))
        _emit(args, {"entries": docs}, lines, rows)
        return 0
    rep = catalog_mod.verify_catalog(entries, check_du=args.du)
    rows = [("index", "kind", "detail")] + [(p.index, p.kind, p.detail) for p in rep.problems]
    _emit(args, {"ok": rep.ok, "problems": [str(p) for p in rep.problems]}, rep.summary().splitlines(), rows)
    return 0 if rep.ok else MISMATCH


def cmd_closure(args) -> int:
    res = catalog_mod.closure_search(args.diameter, budget=args.budget)
    doc = {
        "max_diameter": res.max_diameter,
        "found_classes": res.found_count,
        "discovered_classes": res.discovered_classes,
        "compositions": res.compositions,
        "exhausted": res.exhausted,
    }
    _emit(args, doc, [f"{k}\t{v}" for k, v in doc.items()])
    if res.exhausted:
        print(
            f"note: budget of {args.budget} compositions ran out before the fixpoint; "
            "the classes are a lower bound",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liftforge",
        description="local rules of reversible cellular automata: construct, decide, classify, evaluate",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--long", action="store_true", help="allow landscape counts past k = 15 and listings past k = 12")
    p.add_argument("--ascii", action="store_true", help="ASCII output (star as *, compose as o)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("parse", help="parse an expression and show the compiled rule")
    q.add_argument("expr")
    q.set_defaults(fn=cmd_parse)

    q = sub.add_parser("verify", help="decide whether an expression is a proper lifting")
    q.add_argument("expr")
    q.add_argument("--scan", dest="exact", action="store_false", help="finite-scan heuristic instead of the pair graph")
    q.set_defaults(fn=cmd_verify, exact=True)

    q = sub.add_parser("compose", help="compose expressions left to right")
    q.add_argument("exprs", nargs="+")
    q.set_defaults(fn=cmd_compose)

    q = sub.add_parser("expand", help="stride-expand a rule's window")
    q.add_argument("expr")
    q.add_argument("--stride", type=int, required=True)
    q.set_defaults(fn=cmd_expand)

    q = sub.add_parser(
        "landscapes",
        help="enumerate conserved landscapes of a diameter",
        description="Count the conserved landscapes of length --k and their classes under reversal and "
        "complement, in one process; counts past k = 15 and listings past k = 12 require --long, "
        "and --list stops at k = 15.",
    )
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--list", action="store_true", help="print one landscape per line")
    q.set_defaults(fn=cmd_landscapes)

    q = sub.add_parser("search6", help="exhaustive diameter-6 involution search")
    q.add_argument("--complemented", action="store_true", help="also scan the all-zero/all-one swap branch")
    q.set_defaults(fn=cmd_search6)

    q = sub.add_parser("families", help="build a parametric proper lifting and verify its order")
    q.add_argument("--k", type=int)
    q.add_argument("--j", type=int)
    q.add_argument("--set", type=str, help="comma-separated members of S")
    q.add_argument("--r", type=int, help="chain-family parameter (diameter 2r)")
    q.set_defaults(fn=cmd_families)

    q = sub.add_parser("du", help="differential uniformity over a range of lengths")
    q.add_argument("expr")
    q.add_argument("--n", required=True, help="length or range, e.g. 6..12")
    q.add_argument("--scaled", action="store_true", help="report 2^(9-n)-scaled values")
    q.set_defaults(fn=cmd_du)

    q = sub.add_parser("catalog", help="verify the bundled 120-entry table")
    q.add_argument("--du", action="store_true", help="also check the stated differential uniformities, n = 6..12")
    q.add_argument("--list", action="store_true", help="print the raw entries")
    q.set_defaults(fn=cmd_catalog)

    q = sub.add_parser(
        "closure",
        help="chain closure of the conserved-landscape generators",
        description="Compose one generator on either side of every known class, keeping results "
        "of diameter <= --diameter, until nothing new appears or the budget runs out; report the "
        "diameter-<=6, degree->=2 classes found.",
    )
    q.add_argument("--diameter", type=int, default=7, help="intermediate diameter cap")
    q.add_argument("--budget", type=int, default=600_000, help="composition budget")
    q.set_defaults(fn=cmd_closure)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except corefn.LiftforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
