"""Induced circular maps, lifting tests, exact properness, composition.

A rule f of diameter k induces, for every circular length n >= k, the
shift-invariant map F(x)_i = f(x_i, ..., x_{i+k-1}) with indices mod n
(offset-0 convention).  States are packed integers with x_{i+1} at bit i;
the cyclic right shift of the sequence is therefore a left bit-rotation.
``sigma`` is the one rotation of packed circular states in the package, on
ints and on arrays, and ``necklace_representatives`` (the least rotation of
each necklace, which ``diffunif`` and ``search6`` read) is built on it.

F is built on the composition kernel: the window array of f over n bits
(``corefn._windows``) holds the n - k + 1 outputs whose windows do not
wrap, and each further block of outputs, from position c on, is the same
array read at sigma(x, n, -c), the state with bits c.. first.  The spread
rule of ``expand`` is the table of f broadcast along its variables' axes,
and ``check_shift_product`` in :mod:`liftforge.landscape` reads its
shifted products from one window array as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .corefn import (
    ArityCapError,
    CapExceededError,
    MAX_DIAMETER,
    InvalidRuleError,
    LiftforgeError,
    Rule,
    _TAKE_BITS,
    _compose_table,
    _normalize,
    _windows,
    array_to_table,
    bitmask,
    is_identity,
    table_to_array,
)

# a 2**n-state induced map is 64 MiB of uint32 at n = 24
N_CAP = 24
# a raw composite of K variables is a 2**K-byte table; 26, not MAX_DIAMETER,
# because a raw composite past 24 can trim to a Rule of 24 or less: the
# symmetric member k=12, j=6, S={1,2,11,12} verifies its order through raw
# widths 25 and 26
ARITY_CAP = 26
DEFAULT_SCAN_LIMIT = 16


def sigma(x: int | np.ndarray, n: int, c: int | np.ndarray = 1) -> int | np.ndarray:
    """Cyclic right shift of the sequence by c: (sigma x)_i = x_{i-c}.

    x is an int or an array of non-negative integers below 2**n, c an int
    or an integer array broadcasting against x; sigma(x, n, -c) puts bits
    c.. first."""
    c = c % n
    return ((x << c) | (x >> (n - c))) & bitmask(n)


@lru_cache(maxsize=32)
def necklace_representatives(n: int) -> tuple[int, ...]:
    """Lexicographically-least rotation representatives of n-bit necklaces,
    in ascending order."""
    x = np.arange(1 << n, dtype=np.uint32)
    best = x.copy()
    for c in range(1, n):
        np.minimum(best, sigma(x, n, c), out=best)
    return tuple(np.flatnonzero(best == x).tolist())


def _induced_arrays(tables: np.ndarray, k: int, n: int) -> np.ndarray:
    """Materialize F over all 2**n states for each raw k-variable table of
    a stack (one row of 2**k bits each), shape (rows, 2**n).

    ``_windows`` gives the m = n - k + 1 outputs whose windows do not wrap;
    the state sigma(x, n, -c) gives outputs c..c+m-1 the same way.  The
    blocks start at c = 0, m, 2m, ..., the last clamped to n - m, so that
    none wraps and overlapping blocks write equal bits.  States go in
    slices of at most the ``_take`` bound over the whole stack, so no
    full-size rotation or gather is held.
    """
    m = n - k + 1
    lin = _windows(tables, k, m)
    starts = [min(c, n - m) for c in range(m, n, m)]
    size = 1 << n
    step = max(1, (1 << _TAKE_BITS) // len(lin))
    out = lin.astype(np.uint32)
    for x0 in range(0, size, step):
        x = np.arange(x0, min(x0 + step, size), dtype=np.uint32)
        acc = out[:, x0 : x0 + step]
        for c in starts:
            acc |= np.take(lin, sigma(x, n, -c), axis=1).astype(np.uint32) << np.uint32(c)
    return out


def _raw_induced_array(table: int, k: int, n: int) -> np.ndarray:
    """F over all 2**n states for one raw k-variable table."""
    return _induced_arrays(table_to_array(table, k)[None], k, n)[0]


@dataclass(frozen=True)
class InducedMap:
    """The circular-length-n map induced by a rule (offset-0 convention).

    The map of the raw window the rule was normalized from is
    ``sigma(induce(r, n).as_array(), n, r.shift)``.
    """

    rule: Rule
    n: int

    @cached_property
    def _array(self) -> np.ndarray:
        # single points (``__call__``) need no table, so only the table is capped
        if self.n > N_CAP:
            raise CapExceededError(f"n={self.n} above cap {N_CAP}")
        return _raw_induced_array(self.rule.table, self.rule.k, self.n)

    def as_array(self) -> np.ndarray:
        return self._array

    def __call__(self, x: int) -> int:
        # single-point evaluation without materializing the table
        n, k = self.n, self.rule.k
        out = 0
        for i in range(n):
            out |= self.rule.bit(sigma(x, n, -i) & bitmask(k)) << i
        return out

    def is_bijective(self) -> bool:
        arr = self._array  # checks the cap before ``seen`` is allocated
        seen = np.zeros(1 << self.n, dtype=bool)
        seen[arr] = True
        return bool(seen.all())


def induce(r: Rule, n: int) -> InducedMap:
    if n < r.k:
        raise InvalidRuleError(f"circular length {n} below diameter {r.k}")
    return InducedMap(r, n)


def is_lifting(r: Rule, n: int) -> bool:
    """True iff the induced map on n-bit circular states is a bijection."""
    return induce(r, n).is_bijective()


# ---------------------------------------------------------------------------
# composition and friends


def compose(g: Rule, f: Rule) -> Rule:
    """The rule of G o F (f applied first), normalized with shift tracked."""
    K = g.k + f.k - 1
    if K > ARITY_CAP:
        raise ArityCapError(f"composition needs {K} variables, cap is {ARITY_CAP}")
    raw = _compose_table(g.table_array(), g.k, f.table_array(), f.k)
    return _normalize(K, raw, g.shift + f.shift)


def compose_chain(rules) -> Rule:
    """Fold a composition chain (leftmost applied last).

    Composition is associative, so adjacent pairs are folded smallest
    raw arity first to keep intermediate tables narrow.
    """
    items = list(rules)
    if not items:
        raise InvalidRuleError("empty composition chain")
    while len(items) > 1:
        best = min(range(len(items) - 1), key=lambda i: items[i].k + items[i + 1].k)
        items[best : best + 2] = [compose(items[best], items[best + 1])]
    return items[0]


def expand(f: Rule, s: int) -> Rule:
    """Spread the rule's window by stride s: f_s(x) = f(x_1, x_{s+1}, ...).

    f keeps both end variables, so f_s has tight diameter (k-1)s+1; past
    MAX_DIAMETER no Rule holds it."""
    if s < 1:
        raise InvalidRuleError("stride must be >= 1")
    if s == 1:
        return f
    K = (f.k - 1) * s + 1
    if K > MAX_DIAMETER:
        raise ArityCapError(f"expansion needs {K} variables, cap is {MAX_DIAMETER}")
    # variable j of f is bit j*s of the spread window: every s-th axis of its table
    shape = [1] * K
    shape[::s] = [2] * f.k
    spread = np.broadcast_to(f.table_array().reshape(shape), (2,) * K)
    return _normalize(K, array_to_table(spread.reshape(-1)), f.shift)


def iterate_order(r: Rule, max_power: int) -> Optional[int]:
    """Smallest m <= max_power whose m-fold self-composition is a pure shift.

    The m-fold composite normalizing to the identity rule means F^m acts as
    a cyclic rotation on every circle, i.e. the automaton iterate is the
    identity up to the window-indexing convention.  Raises ArityCapError if
    an intermediate table outgrows the cap before a verdict is reached.
    """
    acc = r
    for m in range(1, max_power + 1):
        if is_identity(acc):
            return m
        if m == max_power:
            break
        acc = compose(acc, r)
    return None


def divisor_check(r: Rule, n: int, m: int) -> bool:
    """Whether 'lifting at n implies lifting at m' held for this rule (m | n)."""
    if n % m != 0 or m < r.k:
        raise InvalidRuleError(f"need m | n and m >= k, got n={n} m={m} k={r.k}")
    if not is_lifting(r, n):
        return True
    return is_lifting(r, m)


# ---------------------------------------------------------------------------
# exact properness via the pair graph
#
# Nodes are pairs (u, v) of (k-1)-bit windows; appending bits (a, b) moves to
# (u', v') when the two completed k-windows get equal rule output.  The rule
# fails to be injective on the full shift exactly when some non-diagonal node
# lies on a bi-infinite path, and for binary one-dimensional automata that is
# also equivalent to a collision on some circular length (the diagonal
# subgraph is a de Bruijn graph, hence strongly connected, so any such path
# closes into a cycle through a non-diagonal node).
#
# The nodes on bi-infinite paths are the greatest set in which every node has
# a successor and a predecessor; it does not depend on the order in which
# nodes without one are removed.  The kernel decides a stack of R rules of one
# diameter at once, on an (R, W, W) alive array whose row t is the graph of
# rule t.  With H = W/2 the successor of (u, v) under (a, b) is
# (aH + u//2, bH + v//2), so the successors of all nodes of a row under (a, b)
# are the block alive[t, aH:(a+1)H, bH:(b+1)H] with every row and column
# doubled, read through an (R, H, 2, H, 2) view of the node array.  The
# predecessor under (c, d) is (2(u mod H) + c, 2(v mod H) + d): the slice
# alive[t, c::2, d::2] repeated twice along each axis, read through an
# (R, 2, H, 2, H) view.  Each node keeps its live out-edges and in-edges as
# 4-bit sets (bit 2a+b, bit 2c+d).  Dense sweeps recompute both sets from the
# alive array while they remove many nodes; once a sweep over the whole stack
# removes less than 1/_PEEL_SHARE of the stack's alive nodes, one frontier
# peel takes over for the whole stack: it clears the edge bits that the
# removed nodes leave behind in their neighbours only, and removes the
# neighbours whose set became empty.  The peel's flat node index is
# t·W² + u·W + v; a node's neighbours lie in its own row, so each neighbour
# index keeps the row base dead & ~(W²-1).  A table stack goes to the kernel
# in slices of at most _STACK_NODES nodes or of one row (from k = 10 up), so
# a slice's arrays are never larger than one graph's from k = 10 up, and at
# most a few MiB below.

_PEEL_SHARE = 8
_PEEL_CHUNK = 1 << 16
_STACK_NODES = 1 << 18
# Bytes per node at the peak of the pair graph: the alive array, the next
# alive array and the two edge-set arrays, one byte each, plus the removed
# nodes' indices when the peel starts (8 bytes for each of at most 1/8 of the
# nodes).
_PAIR_GRAPH_BYTES_PER_NODE = 5
# Bytes per removed node of one peel chunk, on top of that: its row base and
# its four successor and four predecessor indices (72 bytes in intp), the
# temporaries and edge-bit masks beside them, and the candidates, the few
# neighbours whose edge set became empty (at most 77 bytes in all, measured
# with tracemalloc on balanced random rules of diameter 11 and 12).  A chunk
# holds up to _PEEL_CHUNK nodes whatever the graph's size, so below k = 13
# this fixed part is a large share of the peak: about 4.7 MiB beside the
# 5 MiB of a k = 11 graph.
_PEEL_BYTES_PER_NODE = 96
_PAIR_GRAPH_MAX_BYTES = 2 << 30


def _pair_graph_bytes(k: int) -> int:
    """An upper bound on the peak bytes of the pair graph of one rule of
    diameter k (see above)."""
    return (_PAIR_GRAPH_BYTES_PER_NODE << (2 * k - 2)) + _PEEL_BYTES_PER_NODE * _PEEL_CHUNK


@dataclass(frozen=True)
class Witness:
    """Two distinct circular states with equal image."""

    n: int
    x: int
    y: int

    def bits(self, v: int) -> str:
        return format(v, f"0{self.n}b")[::-1]  # x_1 first

    def to_json(self) -> dict:
        return {"n": self.n, "x": self.bits(self.x), "y": self.bits(self.y)}


@dataclass(frozen=True)
class PropernessVerdict:
    decision: str  # "proper" | "not-proper"
    method: str  # "pair-graph" | "finite-scan"
    witness: Optional[Witness] = None

    @property
    def proper(self) -> bool:
        return self.decision == "proper"

    def as_dict(self) -> dict:
        doc = {"decision": self.decision, "method": self.method}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _edge_labels(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks whose XOR has bit 2a+b set iff o[..., a, u] == o[..., b, v].

    o[..., a, u] is the rule output on window u joined with bit a (appended
    for successors, prepended for predecessors); the first mask is indexed
    by u, the second by v.
    """
    o0, o1 = o[..., 0, :], o[..., 1, :]
    return o0 * 3 | o1 * 12, (o0 * 5 | o1 * 10) ^ 15


def _alive_edges(g: np.ndarray) -> np.ndarray:
    """(R, H, H) 4-bit sets with bit 2a+b = g[t, a, i, b, j], from a boolean view."""
    g = g.view(np.uint8)
    return g[:, 0, :, 0] | g[:, 0, :, 1] << 1 | g[:, 1, :, 0] << 2 | g[:, 1, :, 1] << 3


def _pair_graph_alive(tables: np.ndarray, k: int) -> np.ndarray:
    """Boolean (R, W, W) array: row t holds the pair-graph nodes of the raw
    k-variable table ``tables[t]`` that lie on bi-infinite paths."""
    R = len(tables)
    W = 1 << (k - 1)
    H = W >> 1
    succ_first, succ_second = _edge_labels(tables.reshape(R, 2, W))  # window u, then bit a
    pred_first, pred_second = _edge_labels(tables.reshape(R, W, 2).transpose(0, 2, 1))  # bit c, then window u
    succ_first = succ_first.reshape(R, H, 2, 1, 1)
    succ_second = succ_second.reshape(R, 1, 1, H, 2)
    pred_first = pred_first.reshape(R, 2, H, 1, 1)
    pred_second = pred_second.reshape(R, 1, 1, 2, H)

    alive = np.ones((R, W, W), dtype=bool)
    nxt = np.empty_like(alive)
    succ = np.empty((R, W, W), dtype=np.uint8)  # live out-edges (a, b), bit 2a+b
    pred = np.empty((R, W, W), dtype=np.uint8)  # live in-edges (c, d), bit 2c+d
    succ4 = succ.reshape(R, H, 2, H, 2)  # [t, i, r, j, s] is node (2i + r, 2j + s) of row t
    pred4 = pred.reshape(R, 2, H, 2, H)  # [t, r, i, s, j] is node (rH + i, sH + j) of row t
    n_alive = alive.size
    while True:
        # [t, a, i, b, j] is the successor (aH + i, bH + j) of the nodes (2i + r, 2j + s)
        blocks = alive.reshape(R, 2, H, 2, H)
        np.bitwise_xor(succ_first, succ_second, out=succ4)
        succ4 &= _alive_edges(blocks)[:, :, None, :, None]
        # [t, c, i, d, j] is the predecessor (2i + c, 2j + d) of the nodes (rH + i, sH + j)
        slices = alive.reshape(R, H, 2, H, 2).transpose(0, 2, 1, 4, 3)
        np.bitwise_xor(pred_first, pred_second, out=pred4)
        pred4 &= _alive_edges(slices)[:, None, :, None, :]
        np.logical_and(succ, pred, out=nxt)
        nxt &= alive
        n_next = np.count_nonzero(nxt)
        removed = n_alive - n_next
        if removed == 0:
            return nxt
        if removed * _PEEL_SHARE < n_alive:
            break
        alive, nxt = nxt, alive
        n_alive = n_next
    # the edge sets still count the nodes this sweep removed
    np.not_equal(alive, nxt, out=alive)
    dead = np.flatnonzero(alive)
    del alive
    _peel(nxt.reshape(-1), succ.reshape(-1), pred.reshape(-1), dead, k)
    return nxt


def _peel(alive: np.ndarray, succ: np.ndarray, pred: np.ndarray, dead: np.ndarray, k: int) -> None:
    """Remove, in place, every node left without a live successor or
    predecessor once the nodes ``dead`` (flat indices t·W² + u·W + v,
    already cleared in ``alive``) are gone.  ``succ`` and ``pred`` hold the
    flat edge sets, which still count ``dead``."""
    W = 1 << (k - 1)
    H = W >> 1
    node = W * W - 1  # the bits of u·W + v; the higher bits are the row base
    succ_offsets = np.array([0, H, H * W, H * W + H])  # aH * W + bH for (a, b) = 00, 01, 10, 11
    pred_offsets = np.array([0, 1, W, W + 1])  # c * W + d for (c, d) = 00, 01, 10, 11
    pending = [dead]
    while pending:
        dead = pending.pop()
        if dead.size > _PEEL_CHUNK:  # bounds the neighbour index arrays
            pending.append(dead[_PEEL_CHUNK:])
            dead = dead[:_PEEL_CHUNK]
        base = dead & ~node
        # all four successors (aH + u//2, bH + v//2) lose in-edge 2(u mod 2) + v mod 2;
        # (u//2)·W + v//2 is u·W + v shifted down by one with bit k-2 (u mod 2) cleared
        to_succ = ((base | (dead >> 1) & (node >> 1 & ~H))[:, None] + succ_offsets).reshape(-1)
        keep_bits = (15 ^ (1 << ((dead >> (k - 2) & 2) | dead & 1))).astype(np.uint8)
        np.bitwise_and.at(pred, to_succ, np.repeat(keep_bits, 4))
        # all four predecessors (2(u mod H) + c, 2(v mod H) + d) lose out-edge 2(u//H) + v//H;
        # 2(u mod H)·W + 2(v mod H) is u·W + v without its bits 2k-3 and k-2, shifted up by one
        to_pred = ((base | (dead & (node & ~(H * W | H))) << 1)[:, None] + pred_offsets).reshape(-1)
        keep_bits = (15 ^ (1 << ((dead >> (2 * k - 4) & 2) | dead >> (k - 2) & 1))).astype(np.uint8)
        np.bitwise_and.at(succ, to_pred, np.repeat(keep_bits, 4))
        cand = np.concatenate([to_succ[pred[to_succ] == 0], to_pred[succ[to_pred] == 0]])
        cand = np.sort(cand[alive[cand]])
        if cand.size:
            dead = cand[np.r_[True, cand[1:] != cand[:-1]]]
            alive[dead] = False
            pending.append(dead)


def _first_off_diagonal(alive: np.ndarray) -> tuple[int, int]:
    """The first alive non-diagonal node in row-major order (there must be one).

    The diagonal is always alive, so it is cleared for the search and
    restored after; no index array is built.
    """
    W = alive.shape[0]
    flat = alive.reshape(-1)
    flat[:: W + 1] = False
    u0, v0 = divmod(int(np.argmax(flat)), W)
    flat[:: W + 1] = True
    return u0, v0


def _walk(start: tuple[int, int], edges, alive: np.ndarray) -> tuple[list, int, Optional[int]]:
    """Follow the first live edge ``edges`` gives from ``start`` until a
    diagonal node or a repeated node.  Returns the edge bits (a, b) taken,
    the window u of the last node, and the position in the bits where the
    repeated cycle starts (None if the walk ended at a diagonal node)."""
    node = start
    bits = []
    seen = {start: 0}
    while True:
        u, v, a, b = next(e for e in edges(*node) if alive[e[0], e[1]])
        bits.append((a, b))
        node = (u, v)
        if u == v:
            return bits, u, None
        if node in seen:
            return bits, u, seen[node]
        seen[node] = len(bits)


def _walk_witness(tab: np.ndarray, k: int, alive: np.ndarray) -> Witness:
    """Build a circular collision of the raw k-variable table ``tab`` from a
    closed walk through a non-diagonal node of its alive pair graph (always
    possible when one is alive)."""
    W = 1 << (k - 1)

    def succ_edges(u, v):
        for a in range(2):
            for b in range(2):
                w1 = u | (a << (k - 1))
                w2 = v | (b << (k - 1))
                if tab[w1] == tab[w2]:
                    yield (w1 >> 1, w2 >> 1, a, b)

    def pred_edges(u, v):
        for c in range(2):
            for d in range(2):
                w1 = (u << 1) | c
                w2 = (v << 1) | d
                if tab[w1 & bitmask(k)] == tab[w2 & bitmask(k)]:
                    yield (w1 & (W - 1), w2 & (W - 1), (w1 >> (k - 1)) & 1, (w2 >> (k - 1)) & 1)

    start = _first_off_diagonal(alive)
    fwd_bits, _, i = _walk(start, succ_edges, alive)
    if i is not None:
        bits = fwd_bits[i:]
    else:
        bwd_bits, bwd_end, i = _walk(start, pred_edges, alive)
        if i is not None:
            bits = bwd_bits[i:][::-1]
        else:
            # the backward path (reversed) into the start node, the forward
            # path to a diagonal node, and a diagonal splice to the backward
            # walk's diagonal node feeding its k-1 window bits
            splice = [((bwd_end >> t) & 1,) * 2 for t in range(k - 1)]
            bits = bwd_bits[::-1] + fwd_bits + splice

    bits *= -(-max(k, 2) // len(bits))  # pump short cycles up to at least the diameter
    x = sum(a << i for i, (a, _) in enumerate(bits))
    y = sum(b << i for i, (_, b) in enumerate(bits))
    return Witness(len(bits), x, y)


def decide_proper(
    r: Rule,
    method: str = "pair-graph",
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> PropernessVerdict:
    """Exact properness decision (pair graph) or finite-scan heuristic.

    The pair-graph method is exact for all circular lengths at once; the
    finite scan refutes with the first circular collision found and can only
    report "proper" in the weak sense of no collision up to scan_limit.  It
    builds a 2**n-entry map for each n, so a scan_limit above N_CAP raises
    ``CapExceededError`` before the first one, and one below r.k, which
    scans no length, raises ``InvalidRuleError`` from ``induce``.
    """
    if method == "finite-scan":
        if scan_limit > N_CAP:
            raise CapExceededError(f"scan limit n={scan_limit} above cap {N_CAP}")
        for n in range(min(r.k, scan_limit), scan_limit + 1):
            fm = induce(r, n)
            arr = fm.as_array()
            order = np.argsort(arr, kind="stable")
            vals = arr[order]
            dup = np.nonzero(vals[1:] == vals[:-1])[0]
            if dup.size:
                i = int(dup[0])
                w = Witness(n, int(order[i]), int(order[i + 1]))
                return PropernessVerdict("not-proper", "finite-scan", w)
        return PropernessVerdict("proper", "finite-scan", None)
    if method != "pair-graph":
        raise LiftforgeError(f"unknown method {method!r}")
    return _pair_graph_verdicts(r.table_array()[None], r.k)[0]


def _pair_graph_verdicts(tables: np.ndarray, k: int) -> list[PropernessVerdict]:
    """The pair-graph verdict of each raw k-variable table of a stack, in
    order (``decide_proper`` for a whole stack).  The cap is checked before
    any graph is built; then the stack goes in slices of at most
    ``_STACK_NODES`` nodes, and a row that is not proper gets its witness
    from its own row of the slice's alive array."""
    need = _pair_graph_bytes(k)
    if need > _PAIR_GRAPH_MAX_BYTES:
        raise CapExceededError(
            f"pair graph of diameter {k} needs about {need >> 20} MiB, cap is {_PAIR_GRAPH_MAX_BYTES >> 20} MiB"
        )
    if k == 1:  # a graph needs two variables: read each row as a table of x1, x2 that ignores x2
        return _pair_graph_verdicts(np.tile(tables, 2), 2)
    verdicts = [PropernessVerdict("proper", "pair-graph", None)] * len(tables)  # unless its graph shows otherwise
    W = 1 << (k - 1)
    step = max(1, _STACK_NODES // (W * W))
    for s in range(0, len(tables), step):
        alive = _pair_graph_alive(tables[s : s + step], k)
        # not proper: a node is alive beside the W diagonal nodes (the de
        # Bruijn graph), which always are
        for j in np.flatnonzero(np.count_nonzero(alive.reshape(len(alive), -1), axis=1) > W):
            verdicts[s + j] = PropernessVerdict("not-proper", "pair-graph", _walk_witness(tables[s + j], k, alive[j]))
        del alive  # freed before the next slice is built
    return verdicts


def replay_witness(r: Rule, w: Witness) -> bool:
    """Check that a witness reproduces a genuine collision."""
    if w.x == w.y or w.n < r.k:
        return False
    fm = induce(r, w.n)
    return fm(w.x) == fm(w.y)
