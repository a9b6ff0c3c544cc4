"""Hot arithmetic kernels, with a numba backend and a pure-numpy fallback.

Every coefficient is packed into one int64 as ``v = a + p*b`` with
``a, b in [0, p)``, meaning ``a + b*r`` where r generates the maximal
ideal.  ``flavor`` selects the multiplication rule:

* ``FLAVOR_ZPSQ`` (1): the packed value *is* the integer mod p**2, so
  products carry from the a-part into the b-part.
* ``FLAVOR_DUAL`` (0): truncated polynomials k[X]/(X^2); the parts never
  interact except via a1*b2 + b1*a2.

Backend selection: environment variable ``CHAINCELL_BACKEND`` set to
``numba``, ``numpy`` or ``auto`` (default).  ``auto`` uses numba when it
imports.  ``get_impls(name)`` exposes both for the benchmark.

int64 bound: accumulators hold sums of products of values < p**2, so
p**4 * n must stay below 2**63 for the inner dimension n of a product.
``RingSpec`` refuses p > ``MAX_P`` = 251, which keeps p**4 * n < 2**63
for every n < 2**31 and p**2 < 2**16 for the uint16 row keys of
``complexes._keys``.
"""

from __future__ import annotations

import os

import numpy as np

FLAVOR_DUAL = 0
FLAVOR_ZPSQ = 1

MAX_P = 251  # the largest prime with p**2 < 2**16; see the int64 bound above


# ---------------------------------------------------------------------------
# elementwise helpers (cheap, numpy only, shared by both backends)


def enc_add(x, y, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (x + y) % (p * p)
    return (x + y) % p + p * ((x // p + y // p) % p)


def enc_neg(x, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (-x) % (p * p)
    return (-x) % p + p * ((-(x // p)) % p)


def enc_mul(x, y, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (x * y) % (p * p)
    a1, b1 = x % p, x // p
    a2, b2 = y % p, y // p
    return (a1 * a2) % p + p * ((a1 * b2 + b1 * a2) % p)


# ---------------------------------------------------------------------------
# numpy backend


def _mat_mul_numpy(A, B, p, flavor):
    if flavor == FLAVOR_ZPSQ:
        return (A @ B) % (p * p)
    Aa, Ab = A % p, A // p
    Ba, Bb = B % p, B // p
    ca = (Aa @ Ba) % p
    cb = (Aa @ Bb + Ab @ Ba) % p
    return ca + p * cb


def _mat_mul_many_right_numpy(A, Bs, p, flavor):
    # A (m,k) against a stack Bs (n,k,l) -> (n,m,l)
    if flavor == FLAVOR_ZPSQ:
        return np.einsum("ij,njl->nil", A, Bs) % (p * p)
    Aa, Ab = A % p, A // p
    Ba, Bb = Bs % p, Bs // p
    ca = np.einsum("ij,njl->nil", Aa, Ba) % p
    cb = (np.einsum("ij,njl->nil", Aa, Bb) + np.einsum("ij,njl->nil", Ab, Ba)) % p
    return ca + p * cb


def _mat_mul_many_left_numpy(As, B, p, flavor):
    # stack As (n,m,k) against B (k,l) -> (n,m,l)
    if flavor == FLAVOR_ZPSQ:
        return np.einsum("nij,jl->nil", As, B) % (p * p)
    Aa, Ab = As % p, As // p
    Ba, Bb = B % p, B // p
    ca = np.einsum("nij,jl->nil", Aa, Ba) % p
    cb = (np.einsum("nij,jl->nil", Aa, Bb) + np.einsum("nij,jl->nil", Ab, Ba)) % p
    return ca + p * cb


def echelon_mod(M, p):
    """Gauss-Jordan elimination over F_p, pivoting column by column.

    Returns ``(rank, pivot_rows, pivot_cols, reduced)``: the k-th pivot
    sits at original row ``pivot_rows[k]`` and column ``pivot_cols[k]``
    (columns ascending), and ``reduced`` is the reduced row echelon form
    with the pivot rows first, in pivot order.  The pivot rows only ever
    absorb multiples of earlier pivot rows, so ``M[pivot_rows][:,
    pivot_cols]`` is invertible mod p.
    """
    A = np.ascontiguousarray(M % p, dtype=np.int64).copy()
    rows, cols = A.shape
    order = list(range(rows))
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
            order[r], order[piv] = order[piv], order[r]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivot_cols.append(c)
        r += 1
    return r, np.array(order[:r], dtype=np.intp), np.array(pivot_cols, dtype=np.intp), A


def _rank_mod_numpy(M, p):
    return echelon_mod(M, p)[0]


_NUMPY_IMPLS = {
    "mat_mul": _mat_mul_numpy,
    "mat_mul_many_right": _mat_mul_many_right_numpy,
    "mat_mul_many_left": _mat_mul_many_left_numpy,
    "rank_mod": _rank_mod_numpy,
}


# ---------------------------------------------------------------------------
# numba backend

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via CHAINCELL_BACKEND=numpy
    numba = None
    HAVE_NUMBA = False


if HAVE_NUMBA:

    @numba.njit(cache=True)
    def _mat_mul_numba(A, B, p, flavor):
        # raw accumulation, one reduction per entry: sums of products of
        # values < p*p stay far below 2**63 at desk scale
        n, kk = A.shape
        m = B.shape[1]
        out = np.empty((n, m), np.int64)
        p2 = p * p
        if flavor == FLAVOR_ZPSQ:
            for i in range(n):
                for j in range(m):
                    acc = 0
                    for l in range(kk):
                        acc += A[i, l] * B[l, j]
                    out[i, j] = acc % p2
        else:
            for i in range(n):
                for j in range(m):
                    aa = 0
                    bb = 0
                    for l in range(kk):
                        va = A[i, l]
                        vb = B[l, j]
                        a1 = va % p
                        b1 = va // p
                        a2 = vb % p
                        b2 = vb // p
                        aa += a1 * a2
                        bb += a1 * b2 + b1 * a2
                    out[i, j] = aa % p + p * (bb % p)
        return out

    @numba.njit(cache=True)
    def _mat_mul_many_right_numba(A, Bs, p, flavor):
        n = Bs.shape[0]
        out = np.empty((n, A.shape[0], Bs.shape[2]), np.int64)
        for t in range(n):
            out[t] = _mat_mul_numba(A, Bs[t], p, flavor)
        return out

    @numba.njit(cache=True)
    def _mat_mul_many_left_numba(As, B, p, flavor):
        n = As.shape[0]
        out = np.empty((n, As.shape[1], B.shape[1]), np.int64)
        for t in range(n):
            out[t] = _mat_mul_numba(As[t], B, p, flavor)
        return out

    @numba.njit(cache=True)
    def _modinv_numba(a, p):
        # extended Euclid on (a, p), p prime, a != 0 mod p
        t, new_t = 0, 1
        r, new_r = p, a % p
        while new_r != 0:
            q = r // new_r
            t, new_t = new_t, t - q * new_t
            r, new_r = new_r, r - q * new_r
        return t % p

    @numba.njit(cache=True)
    def _rank_mod_numba(M, p):
        rows, cols = M.shape
        A = np.empty((rows, cols), np.int64)
        for i in range(rows):
            for j in range(cols):
                A[i, j] = M[i, j] % p
        r = 0
        for c in range(cols):
            if r == rows:
                break
            piv = -1
            for i in range(r, rows):
                if A[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(cols):
                    tmp = A[r, j]
                    A[r, j] = A[piv, j]
                    A[piv, j] = tmp
            inv = _modinv_numba(A[r, c], p)
            for j in range(cols):
                A[r, j] = (A[r, j] * inv) % p
            for i in range(rows):
                if i != r and A[i, c] != 0:
                    f = A[i, c]
                    for j in range(cols):
                        A[i, j] = (A[i, j] - f * A[r, j]) % p
            r += 1
        return r

    def _wrap_contig(fn, nargs):
        def wrapped(*args):
            arrs = tuple(np.ascontiguousarray(a, dtype=np.int64) for a in args[:nargs])
            rest = tuple(int(x) for x in args[nargs:])
            return fn(*arrs, *rest)

        return wrapped

    _NUMBA_IMPLS = {
        "mat_mul": _wrap_contig(_mat_mul_numba, 2),
        "mat_mul_many_right": _wrap_contig(_mat_mul_many_right_numba, 2),
        "mat_mul_many_left": _wrap_contig(_mat_mul_many_left_numba, 2),
        "rank_mod": _wrap_contig(_rank_mod_numba, 1),
    }
else:
    _NUMBA_IMPLS = None


# ---------------------------------------------------------------------------
# backend binding


def get_impls(name):
    if name == "numpy":
        return _NUMPY_IMPLS
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not installed")
        return _NUMBA_IMPLS
    raise ValueError(f"unknown backend {name!r}")


def _select_backend():
    requested = os.environ.get("CHAINCELL_BACKEND", "auto").lower()
    if requested not in ("auto", "numba", "numpy"):
        raise RuntimeError(
            f"CHAINCELL_BACKEND={requested!r}; expected auto, numba or numpy"
        )
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        get_impls("numba")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


ACTIVE_BACKEND = _select_backend()
_ACTIVE = get_impls(ACTIVE_BACKEND)

mat_mul = _ACTIVE["mat_mul"]
mat_mul_many_right = _ACTIVE["mat_mul_many_right"]
mat_mul_many_left = _ACTIVE["mat_mul_many_left"]
rank_mod = _ACTIVE["rank_mod"]
