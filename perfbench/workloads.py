"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), runs one round of
fixed work through liftforge's public functions (``run``, the timed part)
and checks the outputs of a round apart from the timed code (``check``).  A
round is ``ops_per_round`` operations; ``check`` returns how many of them
failed.  Every workload imports liftforge, so ``sys.path`` must already
lead to the checkout's ``src``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

import liftforge as lf
from liftforge import catalog, families, landscape, search6
from liftforge.diffunif import ddt_max

from closure_reference import chain_closure_bfs, found_subset, load_reference, small_generators
from landscape_reference import listing_digest
from landscape_reference import load_reference as load_landscape_reference


def _fail(workload: str, msg: str) -> None:
    print(f"{workload}: check failed: {msg}", file=sys.stderr)


def _rotation(n: int, c: int) -> np.ndarray:
    """The map x -> y with y_i = x_{i+c} (indices mod n) on packed states,
    where x_{i+1} sits at bit i."""
    c %= n
    x = np.arange(1 << n, dtype=np.uint32)
    if c == 0:
        return x
    return ((x >> np.uint32(c)) | (x << np.uint32(n - c))) & np.uint32((1 << n) - 1)


def _iterate(rule: lf.Rule, n: int, power: int) -> np.ndarray:
    """The power-fold iterate of the induced map, on lf.induce arrays."""
    f = lf.induce(rule, n).as_array()
    g = np.arange(1 << n, dtype=np.uint32)
    for _ in range(power):
        g = f[g]
    return g


def _collision_free(rule: lf.Rule, n_to: int) -> bool:
    return all(lf.is_lifting(rule, n) for n in range(rule.k, n_to + 1))


def _image_bit(rule: lf.Rule, n: int, x: int, i: int) -> int:
    window = 0
    for j in range(rule.k):
        window |= ((x >> ((i + j) % n)) & 1) << j
    return (rule.table >> window) & 1


def _same_image(rule: lf.Rule, n: int, x: int, y: int) -> bool:
    """Pointwise F(x) == F(y) straight from the truth table."""
    return all(_image_bit(rule, n, x, i) == _image_bit(rule, n, y, i) for i in range(n))


# ---------------------------------------------------------------------------
# catalog-du: the Appendix A reproduction with DU tables to n = 12


@dataclass
class CatalogInputs:
    entries: list
    du_sample: list  # (entry index, n) pairs for the unrestricted DDT check


class CatalogDu:
    """One operation is the verification of one of the 120 catalog rows."""

    name = "catalog-du"
    ops_per_round = catalog.CATALOG_SIZE
    du_sample_entries = 6
    du_check_lengths = (6, 7, 8, 9, 10)

    def setup(self, seed: int) -> CatalogInputs:
        entries = catalog.load_catalog()
        rng = random.Random(seed)
        picked = rng.sample(range(len(entries)), self.du_sample_entries)
        return CatalogInputs(entries, [(i, rng.choice(self.du_check_lengths)) for i in picked])

    def run(self, inp: CatalogInputs):
        return catalog.verify_catalog(inp.entries, check_du=True, du_to=12)

    def check(self, inp: CatalogInputs, report) -> int:
        bad_rows: set[int] = set()
        for p in report.problems:
            _fail(self.name, str(p))
            bad_rows.update(range(len(inp.entries)) if p.index < 0 else [p.index])
        if report.checked_du_range != catalog.DU_RANGE:
            _fail(self.name, f"DU checked over {report.checked_du_range}, want {catalog.DU_RANGE}")
            bad_rows.update(range(len(inp.entries)))
        rules = [e.rule() for e in inp.entries]
        classes = {lf.canonicalize(r) for r in rules}
        per_degree = Counter(lf.degree(r) for r in rules)
        if len(classes) != catalog.CATALOG_SIZE or per_degree != {3: 1, 4: 42, 5: 77}:
            _fail(self.name, f"{len(classes)} classes, degree counts {per_degree}")
            bad_rows.update(range(len(inp.entries)))
        for i, n in inp.du_sample:
            full, _ = ddt_max(rules[i], n, restrict_necklaces=False)
            neck, _ = ddt_max(rules[i], n)
            stated = inp.entries[i].stated_du[n - catalog.DU_RANGE[0]]
            if not full == neck == stated:
                _fail(self.name, f"row {i} n={n}: full DDT {full}, necklace {neck}, stated {stated}")
                bad_rows.add(i)
        return len(bad_rows)


# ---------------------------------------------------------------------------
# closure: two chain closures, both at their fixpoint


@dataclass
class ClosureInputs:
    small_gens: list  # 18 diameter-4/5 generators
    all_gens: list  # 90 default generators


class Closure:
    """One operation is one closure search."""

    name = "closure"
    ops_per_round = 2
    scan_to = 12

    def setup(self, seed: int) -> ClosureInputs:
        gens = catalog.default_generators()
        return ClosureInputs(small_generators(gens), gens)

    def run(self, inp: ClosureInputs):
        return (
            catalog.closure_search(8, generators=inp.small_gens),
            catalog.closure_search(6, generators=inp.all_gens),
        )

    def _class_ok(self, cid) -> bool:
        r = cid.rule()
        return r.k <= 6 and lf.degree(r) >= 2 and lf.decide_proper(r).proper and _collision_free(r, self.scan_to)

    def check(self, inp: ClosureInputs, output) -> int:
        d8, d6 = output
        bad: set[str] = set()  # the failed searches, "D=8" and "D=6"
        for res, label in ((d8, "D=8"), (d6, "D=6")):
            if res.exhausted:
                _fail(self.name, f"{label}: budget ran out before the fixpoint")
                bad.add(label)
            invalid = [c.text() for c in res.found_classes if not self._class_ok(c)]
            if invalid:
                _fail(self.name, f"{label}: invalid found classes {invalid}")
                bad.add(label)
        ref = load_reference()
        got = sorted(c.text() for c in d8.found_classes)
        if d8.discovered_classes != len(ref["classes"]) or got != ref["found"]:
            _fail(self.name, f"D=8: {d8.discovered_classes} classes, found {got}; the reference differs")
            bad.add("D=8")
        lower = [catalog.closure_search(D, generators=inp.small_gens) for D in (6, 7)]
        if not lower[0].found_classes <= lower[1].found_classes <= d8.found_classes:
            _fail(self.name, "found sets do not nest across D = 6, 7, 8")
            bad.add("D=8")
        bfs7 = chain_closure_bfs(inp.small_gens, 7)
        if lower[1].discovered_classes != len(bfs7) or lower[1].found_classes != found_subset(bfs7):
            _fail(self.name, f"D=7: closure_search has {lower[1].discovered_classes} classes, BFS {len(bfs7)}")
            bad.add("D=8")
        # compositions of proper rules are proper, and a proper rule of
        # diameter >= 2 is nonlinear, so at D = 6 every class is found
        if d6.found_count != d6.discovered_classes:
            _fail(self.name, f"D=6: {d6.found_count} found of {d6.discovered_classes} classes")
            bad.add("D=6")
        bfs6 = chain_closure_bfs(inp.all_gens, 6)
        if d6.discovered_classes != len(bfs6) or d6.found_classes != found_subset(bfs6):
            _fail(self.name, f"D=6: closure_search has {d6.discovered_classes} classes, BFS {len(bfs6)}")
            bad.add("D=6")
        return len(bad)


# ---------------------------------------------------------------------------
# search6: the exhaustive diameter-6 involution search


@dataclass
class Search6Inputs:
    lengths: tuple  # circular lengths at which every involution is re-checked


class Search6:
    """One operation is one complete search (offsets 2..5)."""

    name = "search6"
    ops_per_round = 1

    def setup(self, seed: int) -> Search6Inputs:
        return Search6Inputs(tuple(sorted(random.Random(seed).sample(range(6, 15), 3))))

    def run(self, inp: Search6Inputs):
        return search6.search_all(jobs=1)

    def check(self, inp: Search6Inputs, found) -> int:
        ok = True
        if found.function_count != 152 or found.class_count != 40:
            _fail(self.name, f"{found.function_count} functions in {found.class_count} classes, want 152 in 40")
            ok = False
        for s in (2, 3, 4, 5):
            res = found.by_offset[s]
            for inv in getattr(res, "involutions", res):
                for n in inp.lengths:
                    # F o F shifts every sequence by 2(s-1): y_i = x_{i+2s-2}
                    if not np.array_equal(_iterate(inv.rule, n, 2), _rotation(n, 2 * s - 2)):
                        _fail(self.name, f"s={s} {inv.rule.text()}: F o F at n={n} is not the rotation")
                        ok = False
        catalog_classes = {lf.canonicalize(e.rule()) for e in catalog.load_catalog()}
        if not found.class_ids <= catalog_classes:
            _fail(self.name, f"{len(found.class_ids - catalog_classes)} classes missing from the catalog")
            ok = False
        return int(not ok)


# ---------------------------------------------------------------------------
# wide-rules: properness at diameter 10..12


# (k, j, S) symmetric-family members with order power 4, and chain-family r.
# Fixed, because an order check costs from 0.06 s to 100 s per member (a
# k = 11 member takes 5 s in a fresh process).
SYMMETRIC_MEMBERS = ((10, 4, (1, 10)), (10, 4, (1, 3, 8, 10)), (10, 5, (1, 4, 7, 10)))
CHAIN_MEMBERS = (5,)
RANDOM_DIAMETERS = (10, 10, 10, 10, 11, 11, 11, 12)
LANDSCAPE_LENGTH = 12
# Decided in every round.  Fixed, because the pair-graph cost of a k = 12
# landscape varies from 2.6 s to 4.8 s between landscapes.
DECIDED_LANDSCAPE = "100000★00001"
LISTING_SAMPLES = 8  # seeded picks from the listing, checked after the round


@dataclass
class WideInputs:
    members: list  # (rule, order power, star)
    random_rules: list
    landscape: landscape.Landscape
    listing_picks: list  # fractions in [0, 1) choosing listed landscapes
    lengths: tuple  # circular lengths for the iterate check


@dataclass
class WideOutputs:
    orders: list
    member_verdicts: list
    random_verdicts: list
    landscape_verdict: lf.PropernessVerdict
    listing_count: int
    listing: tuple  # the symbols of every listed landscape


class WideRules:
    """One operation is one properness decision (family members with their
    order claim, seeded random rules, one conserved landscape) or the
    enumeration of the length-12 conserved landscapes."""

    name = "wide-rules"
    ops_per_round = len(SYMMETRIC_MEMBERS) + len(CHAIN_MEMBERS) + len(RANDOM_DIAMETERS) + 2
    scan_to = 14

    def setup(self, seed: int) -> WideInputs:
        members = []
        for k, j, S in SYMMETRIC_MEMBERS:
            params = families.symmetric_params(k, j, S)
            members.append((families.build_symmetric(params), 1 << params.r_exp, j))
        for r in CHAIN_MEMBERS:
            members.append((families.build_chain(families.ChainFamilyParams(r)), r, r))
        rng = np.random.default_rng(seed)
        random_rules = []
        for k in RANDOM_DIAMETERS:
            table = np.zeros(1 << k, dtype=np.uint8)
            table[rng.permutation(1 << k)[: 1 << (k - 1)]] = 1  # balanced
            random_rules.append(lf.rule_from_table(k, table))
        picks = [float(u) for u in rng.random(LISTING_SAMPLES)]
        lengths = tuple(int(n) for n in rng.choice(np.arange(12, 17), 2, replace=False))
        return WideInputs(members, random_rules, lf.parse_landscape(DECIDED_LANDSCAPE), picks, lengths)

    def run(self, inp: WideInputs) -> WideOutputs:
        orders = [families.verify_order_claim(r, power, star) for r, power, star in inp.members]
        member_verdicts = [lf.decide_proper(r) for r, _, _ in inp.members]
        random_verdicts = [lf.decide_proper(r) for r in inp.random_rules]
        landscape_verdict = lf.decide_proper(lf.compile_landscape(inp.landscape))
        enum = lf.enumerate_conserved(LANDSCAPE_LENGTH)
        # symbol strings pickle in 0.07 s, the Landscape objects in 0.6 s;
        # taking them costs about 13 ms of the round
        listing = tuple(l.symbols for l in enum.landscapes)
        return WideOutputs(orders, member_verdicts, random_verdicts, landscape_verdict, enum.count, listing)

    def check(self, inp: WideInputs, out: WideOutputs) -> int:
        failed = 0
        for (r, power, star), order_ok, verdict in zip(inp.members, out.orders, out.member_verdicts):
            ok = order_ok and verdict.proper and _collision_free(r, self.scan_to)
            for n in inp.lengths:
                # F^P shifts every sequence by P(star-1): y_i = x_{i+P(star-1)}
                ok = ok and np.array_equal(_iterate(r, n, power), _rotation(n, power * (star - 1)))
            if not ok:
                _fail(self.name, f"family member k={r.k} {r.text()}: order {order_ok}, {verdict.to_json()}")
            failed += not ok
        for r, verdict in zip(inp.random_rules, out.random_verdicts):
            w = verdict.witness
            if verdict.proper:
                ok = _collision_free(r, self.scan_to)
            else:
                ok = w is not None and w.x != w.y and lf.replay_witness(r, w) and _same_image(r, w.n, w.x, w.y)
            if not ok:
                _fail(self.name, f"random rule k={r.k}: {verdict.to_json()} does not hold")
            failed += not ok
        rule = lf.compile_landscape(inp.landscape)
        if not (lf.is_conserved(inp.landscape) and out.landscape_verdict.proper and _collision_free(rule, self.scan_to)):
            _fail(self.name, f"landscape {inp.landscape.symbols}: {out.landscape_verdict.to_json()}")
            failed += 1
        # the enumeration: its listing equals the reference found by filtering
        # every candidate, and a listed landscape is conserved, so its rule
        # is collision-free
        ref = load_landscape_reference()
        listing = out.listing
        listing_ok = (out.listing_count == len(listing) == len(set(listing)) == ref["count"]
                      and listing_digest(listing) == ref["sha256"])
        if not listing_ok:
            _fail(self.name, f"count {out.listing_count}, {len(listing)} listed, {len(set(listing))} distinct; "
                             f"the reference has {ref['count']} or another digest")
        sample = [lf.parse_landscape(listing[int(u * len(listing))]) for u in inp.listing_picks] if listing else []
        bad = [l.symbols for l in sample
               if not (lf.is_conserved(l) and _collision_free(lf.compile_landscape(l), self.scan_to))]
        if bad:
            _fail(self.name, f"listed landscapes not conserved or not collision-free: {bad}")
        failed += not (listing_ok and not bad)
        return failed


WORKLOADS = {w.name: w for w in (CatalogDu(), Closure(), Search6(), WideRules())}
