"""Two parametric constructions of proper liftings for arbitrary diameters.

The symmetric family takes a mirror-symmetric support set S and flips x_j
when x_{k+1-j} = 0 and every variable in S is 1; its induced map satisfies
F^(2^r) = I for a computable r.  The chain family on 2r variables moves a
lone zero through a run of ones and satisfies F^(r) = I.

Both are x_s XOR cubes of literals (one cube for a symmetric member,
2(r-1) disjoint cubes for a chain member), written by ``corefn.cube_table``,
which refuses a diameter past MAX_DIAMETER before the table exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corefn import LiftforgeError, Rule, _normalize, array_to_table, bitmask, cube_table, is_identity
from .lifting import compose


class InvalidParamsError(LiftforgeError):
    def __init__(self, clause: str, msg: str):
        super().__init__(f"{clause}: {msg}")
        self.clause = clause


@dataclass(frozen=True)
class SymmetricFamilyParams:
    k: int
    j: int
    members: frozenset  # the set S

    def __post_init__(self):
        k, j, S = self.k, self.j, self.members
        if not 2 <= j <= k // 2:
            raise InvalidParamsError("j-range", f"need 2 <= j <= k/2, got j={j}, k={k}")
        if not S or not all(isinstance(l, int) and 1 <= l <= k for l in S):
            raise InvalidParamsError("subset-range", f"S must be a nonempty subset of 1..{k}")
        if any(k + 1 - l not in S for l in S):
            raise InvalidParamsError("asymmetric", "S must satisfy l in S iff k+1-l in S")
        if 1 not in S:
            raise InvalidParamsError("missing-1", "S must contain 1")
        if j in S:
            raise InvalidParamsError("contains-j", f"S must not contain j={j}")
        if not any(t % self.xi == j % self.xi for t in S):
            raise InvalidParamsError(
                "no-valid-t", f"no t in S with t = j (mod {self.xi})"
            )

    @property
    def xi(self) -> int:
        return self.k + 1 - 2 * self.j

    @property
    def t(self) -> int:
        """Smallest member above j in j's residue class mod xi."""
        cands = [t for t in self.members if t % self.xi == self.j % self.xi and t > self.j]
        return min(cands)

    @property
    def r_exp(self) -> int:
        return math.ceil(math.log2((self.t - self.j) // self.xi + 1))


def symmetric_params(k: int, j: int, members) -> SymmetricFamilyParams:
    return SymmetricFamilyParams(k, j, frozenset(members))


def build_symmetric(params: SymmetricFamilyParams) -> Rule:
    """f(x) = x_j + (x_{k+1-j} + 1) * prod_{l in S} x_l, tight diameter k."""
    k, j, S = params.k, params.j, params.members
    cube = (sum(1 << (l - 1) for l in S), 1 << (k - j))
    r = _normalize(k, array_to_table(cube_table(k, j, [cube])))
    if r.k != k:
        raise LiftforgeError("internal: symmetric-family rule is not tight at the stated diameter")
    return r


@dataclass(frozen=True)
class ChainFamilyParams:
    r: int

    def __post_init__(self):
        if self.r < 2:
            raise InvalidParamsError("r-range", f"need r >= 2, got {self.r}")


def build_chain(params: ChainFamilyParams) -> Rule:
    """The 2r-variable rule whose induced maps satisfy F^(r) = I.

    f(x) = x_r + sum_{j=1}^{r-1} (x_j+1)(x_{r+j+1}+1)
           (prod_{m=1..j} x_{r+m}) (prod_{m=j+1..r} (x_m+1) + prod x_m)
    """
    r = params.r
    k = 2 * r
    # each term j is two cubes (x_{j+1..r} all 0, all 1), and term j needs
    # x_{r+j+1} = 0 where every later term needs it 1: the 2(r-1) cubes are
    # disjoint, so their sum is their OR
    cubes = []
    for j in range(1, r):
        zeros = 1 << (j - 1) | 1 << (r + j)  # x_j, x_{r+j+1}
        ones = bitmask(j) << r  # x_{r+1..r+j}
        tail = bitmask(r - j) << j  # x_{j+1..r}
        cubes += [(ones, zeros | tail), (ones | tail, zeros)]
    rule = _normalize(k, array_to_table(cube_table(k, r, cubes)))
    if rule.k != k:
        raise LiftforgeError("internal: chain-family rule is not tight at diameter 2r")
    return rule


def verify_order_claim(rule: Rule, power: int, star: int) -> bool:
    """Exact check that the power-fold iterate is the identity automaton
    under the window convention that centers the rule at position ``star``.

    Equivalent to the raw power-fold self-composition equaling the
    projection onto variable power*(star-1)+1.
    """
    if rule.shift != 0:
        rule = Rule(rule.k, rule.table, 0)
    acc = rule
    for _ in range(power - 1):
        acc = compose(acc, rule)
    return is_identity(acc) and acc.shift == -power * (star - 1)


def valid_symmetric_params(k: int):
    """All parameter sets accepted for diameter k (scan helper)."""
    out = []
    for j in range(2, k // 2 + 1):
        pairs = sorted({frozenset((l, k + 1 - l)) for l in range(1, k + 1)}, key=min)
        base = frozenset((1, k))
        optional = [p for p in pairs if p != base and j not in p]
        for pick in range(1 << len(optional)):
            S = set(base)
            for i, p in enumerate(optional):
                if (pick >> i) & 1:
                    S |= p
            try:
                out.append(symmetric_params(k, j, S))
            except InvalidParamsError:
                continue
    return out
