"""Expected answers computed from the known summands, without chaincell.

Every benchmark input is a scrambled direct sum of named summands:
intervals ``("I", i, j)`` (rank one in degrees i..i+j) and disks
``("D", n)`` (identity from degree n to n-1).  Homology, the lattice
verdicts and the barcode of a tensor product follow from the summand
list alone, so these functions are the answer key the benchmark checks
chaincell against.
"""

from collections import Counter
from functools import lru_cache


def intervals_of(summands):
    return Counter((s[1], s[2]) for s in summands if s[0] == "I")


def disks_of(summands):
    return Counter(s[1] for s in summands if s[0] == "D")


def ranks_of(summands):
    top = max((s[1] + s[2] if s[0] == "I" else s[1] for s in summands), default=-1)
    ranks = [0] * (top + 1)
    for s in summands:
        degrees = range(s[1], s[1] + s[2] + 1) if s[0] == "I" else (s[1] - 1, s[1])
        for n in degrees:
            ranks[n] += 1
    return ranks


def homology(summands):
    """[free rank, residue rank] per degree: R for a sphere, k at both ends otherwise."""
    out = [[0, 0] for _ in ranks_of(summands)]
    for (i, j), mult in intervals_of(summands).items():
        if j == 0:
            out[i][0] += mult
        else:
            out[i][1] += mult
            out[i + j][1] += mult
    return out


def min_pair(summands):
    intervals = intervals_of(summands)
    return min(intervals) if intervals else None


def is_cellular(xs, as_):
    """X >> A: X contractible, or A's least interval is lex-below X's."""
    mx, ma = min_pair(xs), min_pair(as_)
    return mx is None or (ma is not None and ma <= mx)


def is_acyclic_over(xs, as_):
    """X > A: X contractible, or X's homology starts no lower than A's."""
    mx, ma = min_pair(xs), min_pair(as_)
    return mx is None or (ma is not None and mx[0] >= ma[0])


# ---------------------------------------------------------------------------
# barcode of a tensor product of intervals


def _rank_mod(rows, p):
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] % p:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@lru_cache(maxsize=None)
def tensor_pair_barcode(j, k, p):
    """Intervals of interval(0, j) (x) interval(0, k) over a ring with residue field F_p.

    The tensor of minimal complexes is minimal with d = r*B, where B
    sends the basis vector (s, t) of degree s+t to (s-1, t) plus
    (-1)^s (s, t-1), the Koszul sign of chaincell's tensor convention.
    The barcode then follows from the ranks of composites of B over F_p.
    """
    top = j + k
    basis = [[(s, d - s) for s in range(j + 1) if 0 <= d - s <= k] for d in range(top + 1)]

    def B(d):  # degree d -> degree d-1
        index = {v: r for r, v in enumerate(basis[d - 1])}
        out = [[0] * len(basis[d]) for _ in basis[d - 1]]
        for c, (s, t) in enumerate(basis[d]):
            if s >= 1:
                out[index[(s - 1, t)]][c] += 1
            if t >= 1:
                out[index[(s, t - 1)]][c] += -1 if s % 2 else 1
        return out

    rho = {}
    for a in range(top + 1):
        rho[(a, a)] = len(basis[a])
        prod = None
        for b in range(a + 1, top + 1):
            prod = B(b) if prod is None else _matmul(prod, B(b), p)
            rho[(a, b)] = _rank_mod(prod, p)
    r = lambda a, b: rho.get((a, b), 0)
    out = Counter()
    for a in range(top + 1):
        for b in range(a, top + 1):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if mult:
                out[(a, b - a)] = mult
    return out


def tensor_barcode(xs, ys, p):
    """Intervals of X (x) Y for interval sums X, Y; the tensor is additive."""
    out = Counter()
    for (i, j), mx in intervals_of(xs).items():
        for (i2, k), my in intervals_of(ys).items():
            for (a, length), m in tensor_pair_barcode(j, k, p).items():
                out[(i + i2 + a, length)] += m * mx * my
    return out
