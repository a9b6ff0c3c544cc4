"""Deciding the cellularity (>>) and acyclicity (>) relations.

Both relations only depend on the interval multiset of a complex.  The
cellular class of a non-contractible complex is determined by the
lex-least interval pair (i, j), and one generator is cellular over
another exactly when the pairs compare in lex order.  The acyclicity
relation over these rings reduces to comparing bottom degrees of the
minimal models (the unique prime is the maximal ideal, so localization
sees every nonzero module).  Contractible complexes sit at the top of
the lattice: they are cellular over everything, and nothing
non-contractible is cellular over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

from .complexes import ChainComplex, require_valid
from .errors import UsageError
from .reduce import MinimizeResult, _r_parts, _row_ranks, bottom_degree, minimize
from .ring import check_same_ring


@dataclass
class Verdict:
    holds: bool
    rule: str
    min_pair_x: Optional[tuple] = None
    min_pair_a: Optional[tuple] = None
    beta_x: Optional[int] = None
    beta_a: Optional[int] = None

    def to_json(self) -> dict:
        out = {"holds": self.holds, "rule": self.rule}
        if self.min_pair_a is not None:
            out["minPairA"] = list(self.min_pair_a)
        if self.min_pair_x is not None:
            out["minPairX"] = list(self.min_pair_x)
        if self.beta_x is not None:
            out["betaX"] = self.beta_x
        if self.beta_a is not None:
            out["betaA"] = self.beta_a
        return out


def min_pair(X: ChainComplex) -> Optional[tuple]:
    """Lex-least interval (i, j) of X; None when X is contractible.

    i is the bottom degree of the minimal model.  Nothing lies below it, so
    rho(i, i+L) counts the intervals at i of length >= L, and j is the
    first L where that row of the table drops (top - i if it never does).
    """
    return _min_pair(minimize(X))


def _min_pair(mr: MinimizeResult) -> Optional[tuple]:
    """``min_pair`` read off a minimization result."""
    i = mr.bottom
    if i is None:
        return None
    row = _row_ranks(mr.minimal, _r_parts(mr.minimal), i)
    for j, (here, longer) in enumerate(pairwise(row)):
        if longer < here:
            return (i, j)
    return (i, mr.minimal.top - i)


def generator_relation(i: int, j: int, i2: int, j2: int) -> bool:
    """(i, j) <= (i2, j2) in lex order; the generator cellularity relation."""
    if min(i, j, i2, j2) < 0:
        raise UsageError("generator parameters must be >= 0")
    return (i, j) <= (i2, j2)


def is_cellular(X: ChainComplex, A: ChainComplex) -> Verdict:
    """Decide X >> A (X belongs to the cellular class of A)."""
    check_same_ring(X, A)
    return _cellular_verdict(min_pair(X), min_pair(A))


def _cellular_verdict(mx: Optional[tuple], ma: Optional[tuple]) -> Verdict:
    """``is_cellular`` from the min pairs of X and A."""
    if mx is None:
        return Verdict(True, "x-contractible", min_pair_x=None)
    if ma is None:
        return Verdict(False, "a-contractible", min_pair_x=mx, min_pair_a=None)
    return Verdict(ma <= mx, "lex", min_pair_x=mx, min_pair_a=ma)


def is_acyclic_over(X: ChainComplex, A: ChainComplex) -> Verdict:
    """Decide X > A (X belongs to the acyclic class of A)."""
    check_same_ring(X, A)
    require_valid(A)  # refused even when X is contractible and A is not read
    bx = bottom_degree(X)
    if bx is None:
        return Verdict(True, "x-contractible")
    ba = bottom_degree(A)
    if ba is None:
        return Verdict(False, "a-contractible", beta_x=bx)
    return Verdict(bx >= ba, "bottom", beta_x=bx, beta_a=ba)
