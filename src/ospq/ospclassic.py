"""The classical orthosymplectic Lie superalgebra osp(1|2n) as exact matrices.

Elements are (2n+1) x (2n+1) matrices over the field Q(sqrt(2)), graded by
parity.  Index 0 carries the one-dimensional even part of the underlying
super vector space and indices 1..2n the symplectic part, so a homogeneous
matrix of grade g has nonzero entries only at positions (r, c) with
parity(r) + parity(c) = g (mod 2), where parity(0) = 0 and parity(r) = 1
for r >= 1.  A matrix's grade is read off its entries, and a matrix whose
nonzero entries lie in blocks of both parities is refused.

A matrix M belongs to osp(1|2n) when it has the block shape

    [ 0    x    y  ]
    [ y^T  d    e  ]        x, y : 1 x n,   d : n x n,
    [ -x^T f   -d^T]        e = e^T,  f = f^T  (n x n),

with the grade-1 subspace cut out by d = e = f = 0 and the grade-0
subspace (isomorphic to sp(2n)) by x = y = 0.

The generating odd elements are the paraboson pairs

    A_i^- = sqrt(2) (E_{0,i}   - E_{n+i,0}),
    A_i^+ = sqrt(2) (E_{0,n+i} + E_{i,0}),      i = 1..n,

whose anticommutators span the even part.  The module verifies, by exact
arithmetic, the trilinear paraboson relations, the quadrilinear sp(2n)
relations among anticommutators, the Cartan-Kac and Serre presentations of
the Chevalley generators built from the A's, the expected span dimensions
(2n^2 + 3n for the full algebra, n^2 for the gl(n) subalgebra of mixed
anticommutators), and the reconstruction of each A_i^+- from nested
commutators of Chevalley generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable

from .report import CheckResult, residual_row
from .scalars import SQRT2, Q2, add_into

Entry = tuple[int, int]
Key = tuple[int, int]  # a generator key (mode, sign), sign in {+1, -1}

SIGN_STR = {1: "+", -1: "-"}

# the value of every absent entry; Q2 is immutable, so one instance serves all
_ZERO = Q2(0)


class GradedMatrix:
    """Sparse square matrix over Q(sqrt(2)) with a Z_2 grade.

    Entries are stored as a dict mapping (row, col) to nonzero Q2 values.
    The grade is read off the entries: it is the parity of the block that
    the first nonzero entry occupies, and every other nonzero entry must
    lie in a block of the same parity, so every arithmetic result is
    checked to be parity-homogeneous.  The zero matrix has grade 0.
    """

    __slots__ = ("n", "grade", "entries")

    def __init__(self, n: int, entries: dict[Entry, Q2] | None = None):
        if n < 1:
            raise ValueError("mode count must be at least 1")
        self.n = n
        dim = 2 * n + 1
        grade = None
        cleaned: dict[Entry, Q2] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry index ({r}, {c}) outside {dim}x{dim} matrix")
            q = v if type(v) is Q2 else Q2._coerce(v)
            if q is None:
                raise TypeError(f"matrix entry must be a scalar, got {type(v).__name__}")
            if q.is_zero():
                continue
            # odd exactly when one of the two indices is the even index 0
            g = (r == 0) != (c == 0)
            if grade is None:
                grade = g
            elif g != grade:
                raise ValueError(
                    f"entry ({r}, {c}) breaks the grade-{int(grade)} block structure"
                )
            cleaned[(r, c)] = q
        self.grade = int(grade or 0)
        self.entries = cleaned

    # ---------------------------------------------------------------- basics

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @classmethod
    def zero(cls, n: int) -> "GradedMatrix":
        return cls(n, {})

    @classmethod
    def unit(cls, n: int, r: int, c: int, scale: Q2 | int | Fraction = 1) -> "GradedMatrix":
        """The matrix scale * E_{r,c}."""
        return cls(n, {(r, c): Q2._coerce(scale)})

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, r: int, c: int) -> Q2:
        return self.entries.get((r, c), _ZERO)

    def dense(self) -> list[list[Q2]]:
        return [
            [self.entries.get((r, c), _ZERO) for c in range(self.dim)]
            for r in range(self.dim)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        """The nonzero entries on one line: "(1,3): √2, (4,0): -√2"."""
        if not self.entries:
            return "0"
        return ", ".join(f"({r},{c}): {v}" for (r, c), v in sorted(self.entries.items()))

    def __repr__(self) -> str:
        return f"GradedMatrix(n={self.n}, grade={self.grade}, nnz={len(self.entries)})"

    # ------------------------------------------------------------ arithmetic

    def _check_compatible(self, other: "GradedMatrix") -> None:
        if self.n != other.n:
            raise ValueError(
                f"dimension mismatch: {self.dim}x{self.dim} vs {other.dim}x{other.dim}"
            )

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            add_into(out, key, v)
        return GradedMatrix(self.n, out)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.entries)
        _scaled_into(out, other, -1)
        return GradedMatrix(self.n, out)

    def __neg__(self) -> "GradedMatrix":
        return GradedMatrix(self.n, {k: -v for k, v in self.entries.items()})

    def scale(self, factor: Q2 | int | Fraction) -> "GradedMatrix":
        q = Q2._coerce(factor)
        if q is None:
            raise TypeError(f"cannot scale matrix by {type(factor).__name__}")
        return GradedMatrix(self.n, {k: v * q for k, v in self.entries.items()})

    def __rmul__(self, factor: object) -> "GradedMatrix":
        if isinstance(factor, (int, Fraction, Q2)):
            return self.scale(factor)
        return NotImplemented

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Entry, Q2] = {}
        _product_into(out, self, other, +1)
        return GradedMatrix(self.n, out)

    # ------------------------------------------------------------ membership

    def in_osp(self) -> bool:
        """Exact test of the defining block constraints of osp(1|2n)."""
        n = self.n
        if not self.entry(0, 0).is_zero():
            return False
        for i in range(1, n + 1):
            # first column mirrors first row:  M[i,0] = y_i,  M[n+i,0] = -x_i
            if self.entry(i, 0) != self.entry(0, n + i):
                return False
            if self.entry(n + i, 0) != -self.entry(0, i):
                return False
            for j in range(1, n + 1):
                # lower-right block is minus the transpose of the upper-left
                if self.entry(n + i, n + j) != -self.entry(j, i):
                    return False
                # e and f blocks are symmetric
                if self.entry(i, n + j) != self.entry(j, n + i):
                    return False
                if self.entry(n + i, j) != self.entry(n + j, i):
                    return False
        return True


def _product_into(out: dict[Entry, Q2], a: GradedMatrix, b: GradedMatrix, sign: int) -> None:
    """out += sign * (a @ b), entry by entry through add_into."""
    rows: dict[int, list[tuple[int, Q2]]] = {}
    for (r, c), v in b.entries.items():
        rows.setdefault(r, []).append((c, v if sign == 1 else -v))
    for (r, k), x in a.entries.items():
        for c, y in rows.get(k, ()):
            add_into(out, (r, c), x * y)


def _scaled_into(out: dict[Entry, Q2], m: GradedMatrix, factor: int) -> None:
    """out += factor * m, entry by entry through add_into."""
    q = Q2(factor)
    for key, v in m.entries.items():
        add_into(out, key, v * q)


def _bracket(a: GradedMatrix, b: GradedMatrix, sign: int) -> GradedMatrix:
    """ab + sign * ba, summed into one dict and built as one matrix."""
    a._check_compatible(b)
    out: dict[Entry, Q2] = {}
    _product_into(out, a, b, +1)
    _product_into(out, b, a, sign)
    return GradedMatrix(a.n, out)


def supercommutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[[a, b]] = ab - (-1)^{grade(a) grade(b)} ba for homogeneous a, b: the
    anticommutator of two odd matrices, else the commutator."""
    if a.grade == 1 and b.grade == 1:
        return anticommutator(a, b)
    return commutator(a, b)


def anticommutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    return _bracket(a, b, +1)


def commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    return _bracket(a, b, -1)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def classical_parabose(n: int, i: int, sign: int) -> GradedMatrix:
    """The odd generator A_i^sign of osp(1|2n), sign in {+1, -1}."""
    if not 1 <= i <= n:
        raise ValueError(f"mode index {i} out of range 1..{n}")
    if sign == -1:
        return GradedMatrix(n, {(0, i): SQRT2, (n + i, 0): -SQRT2})
    if sign == +1:
        return GradedMatrix(n, {(0, n + i): SQRT2, (i, 0): SQRT2})
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def generator_keys(n: int) -> list[Key]:
    """The 2n generator keys (mode, sign) in sweep order: (1, +1), (1, -1),
    (2, +1), ...  Every relation sweep and every generator dict follows it."""
    return [(i, s) for i in range(1, n + 1) for s in (+1, -1)]


def parabose_set(n: int) -> dict[Key, GradedMatrix]:
    """All 2n odd generators, keyed by (mode, sign)."""
    return {key: classical_parabose(n, *key) for key in generator_keys(n)}


def cartan_h_upper(n: int, i: int) -> GradedMatrix:
    """H_i = -E_{ii} + E_{n+i,n+i}; satisfies {A_i^-, A_i^+} = -2 H_i."""
    if not 1 <= i <= n:
        raise ValueError(f"mode index {i} out of range 1..{n}")
    return GradedMatrix(n, {(i, i): Q2(-1), (n + i, n + i): Q2(1)})


def cartan_matrix(n: int) -> list[list[int]]:
    """Symmetrizable Cartan matrix with short last root: alpha_nn = 1."""
    alpha = [[0] * n for _ in range(n)]
    for i in range(n):
        alpha[i][i] = 2
        if i + 1 < n:
            alpha[i][i + 1] = -1
            alpha[i + 1][i] = -1
    alpha[n - 1][n - 1] = 1
    return alpha


def chevalley_from_table(
    A: dict[Key, GradedMatrix], anti: "AnticommutatorTable"
) -> tuple[dict[int, GradedMatrix], dict[int, GradedMatrix], dict[int, GradedMatrix]]:
    """Chevalley triples (e, f, h) built from the odd generators A, with the
    anticommutators read from ``anti = anticommutator_table(A)``.

    For i < n:
        e_i = (1/2) {A_i^-, A_{i+1}^+}
        f_i = (1/2) {A_i^+, A_{i+1}^-}
        h_i = (1/2) ({A_{i+1}^-, A_{i+1}^+} - {A_i^-, A_i^+})
    and for the short simple root:
        e_n = -A_n^- / sqrt(2)
        f_n =  A_n^+ / sqrt(2)
        h_n = -(1/2) {A_n^-, A_n^+}

    Returns 1-indexed dicts.  A corrupted generator set propagates.
    """
    n = max(i for i, _ in A)
    half = Fraction(1, 2)
    inv_sqrt2 = SQRT2.inverse()
    e: dict[int, GradedMatrix] = {}
    f: dict[int, GradedMatrix] = {}
    h: dict[int, GradedMatrix] = {}
    for i in range(1, n):
        e[i] = anti[(i, -1), (i + 1, +1)].scale(half)
        f[i] = anti[(i, +1), (i + 1, -1)].scale(half)
        h[i] = (anti[(i + 1, -1), (i + 1, +1)] - anti[(i, -1), (i, +1)]).scale(half)
    e[n] = A[(n, -1)].scale(-inv_sqrt2)
    f[n] = A[(n, +1)].scale(inv_sqrt2)
    h[n] = anti[(n, -1), (n, +1)].scale(-half)
    return e, f, h


def parabose_from_chevalley(
    e: dict[int, GradedMatrix], f: dict[int, GradedMatrix], i: int, sign: int
) -> GradedMatrix:
    """Rebuild A_i^sign from nested commutators of simple generators.

        A_i^- = (-1)^(n-1-i) sqrt(2) [e_i, [e_{i+1}, ... [e_{n-1}, e_n] ... ]]
        A_i^+ = (-1)^(n-i)   sqrt(2) [[ ... [f_n, f_{n-1}], ... ], f_i]

    and A_n^- = -sqrt(2) e_n, A_n^+ = sqrt(2) f_n.  The alternating signs
    are forced by [e_i, A_{i+1}^-] = -A_i^- and [A_{i+1}^+, f_i] = -A_i^+,
    which follow from the conventions used for e_i, f_i here; they make the
    round trip through chevalley_from_table exact.
    """
    n = max(e)
    if not 1 <= i <= n:
        raise ValueError(f"mode index {i} out of range 1..{n}")
    if sign == -1:
        if i == n:
            return e[n].scale(-SQRT2)
        acc = e[n]
        for j in range(n - 1, i - 1, -1):
            acc = commutator(e[j], acc)
        return acc.scale(SQRT2 if (n - 1 - i) % 2 == 0 else -SQRT2)
    if sign == +1:
        if i == n:
            return f[n].scale(SQRT2)
        acc = f[n]
        for j in range(n - 1, i - 1, -1):
            acc = commutator(acc, f[j])
        return acc.scale(SQRT2 if (n - i) % 2 == 0 else -SQRT2)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


# --------------------------------------------------------------------------
# rank over Q(sqrt(2))
# --------------------------------------------------------------------------


def q2_rank(vectors: Iterable[dict]) -> int:
    """Rank of a family of sparse vectors with Q2 coefficients.

    Incremental Gaussian elimination: stored rows are normalized so the
    minimal key of each row is a pivot with value 1, and rows are processed
    in ascending pivot order, which keeps elimination sound because a row
    never contains keys below its own pivot.
    """
    basis: list[tuple[object, dict]] = []  # (pivot key, normalized row)
    for vec in vectors:
        row = {k: v for k, v in vec.items() if not v.is_zero()}
        for piv, prow in basis:
            coeff = row.get(piv)
            if coeff is None or coeff.is_zero():
                continue
            for k, v in prow.items():
                add_into(row, k, -coeff * v)
        if not row:
            continue
        piv = min(row)
        inv = row[piv].inverse()
        basis.append((piv, {k: v * inv for k, v in row.items()}))
        basis.sort(key=lambda t: t[0])
    return len(basis)


# --------------------------------------------------------------------------
# relation catalogs
# --------------------------------------------------------------------------


AnticommutatorTable = dict[tuple[Key, Key], GradedMatrix]


def anticommutator_table(
    A: dict[Key, GradedMatrix]
) -> AnticommutatorTable:
    """{A[a], A[b]} for every ordered pair (a, b) of generator keys.

    The relation sweeps read each of the (2n)^2 anticommutators from here.
    The table is symmetric: (a, b) and (b, a) hold one object, built once,
    because {x, y} = xy + yx = {y, x} holds exactly for any matrices, so
    the mirrored product would add the same entries; the quadrilinear
    sweep's orbits rest on it.  The table is built from the given
    generators, so a corrupted set reaches every instance.
    """
    keys = list(A)
    table: AnticommutatorTable = {}
    for at, a in enumerate(keys):
        for b in keys[at:]:
            table[a, b] = table[b, a] = anticommutator(A[a], A[b])
    return table


def _instance_id(family: str, n: int, keys: tuple[Key, ...]) -> str:
    """The row id of one instance: "C21[n=2,i=1,j=2,k=2,xi=+,eta=+,eps=-]",
    the modes named i, j, k, l and then the signs xi, eta, eps, phi."""
    modes = ",".join(f"{m}={i}" for m, (i, _) in zip("ijkl", keys))
    signs = ",".join(
        f"{name}={SIGN_STR[s]}" for name, (_, s) in zip(("xi", "eta", "eps", "phi"), keys)
    )
    return f"{family}[n={n},{modes},{signs}]"


def pbose_residual(
    A: dict[Key, GradedMatrix], anti: AnticommutatorTable, a: Key, b: Key, c: Key
) -> GradedMatrix:
    """Residual of the trilinear paraboson relation, for the keys
    a = (i, xi), b = (j, eta), c = (k, eps),

        [{A_i^xi, A_j^eta}, A_k^eps]
            = (eps - eta) delta_{jk} A_i^xi + (eps - xi) delta_{ik} A_j^eta,

    with the anticommutator read from ``anti = anticommutator_table(A)``.
    """
    (i, xi), (j, eta), (k, eps) = a, b, c
    lhs = supercommutator(anti[a, b], A[c])
    out = dict(lhs.entries)
    if j == k and eps != eta:
        _scaled_into(out, A[a], eta - eps)
    if i == k and eps != xi:
        _scaled_into(out, A[b], xi - eps)
    return GradedMatrix(lhs.n, out)


def pbose_relation_checks(
    A: dict[Key, GradedMatrix], anti: AnticommutatorTable, n: int
) -> list[CheckResult]:
    """All instances of the trilinear paraboson relation (id prefix C21),
    with ``anti = anticommutator_table(A)``."""
    return [
        residual_row(_instance_id("C21", n, keys), pbose_residual(A, anti, *keys))
        for keys in product(generator_keys(n), repeat=3)
    ]


def sp2n_residual(anti: AnticommutatorTable, a: Key, b: Key, c: Key, d: Key) -> GradedMatrix:
    """Residual of the quadrilinear relation among anticommutators, for the
    keys a = (i, xi), b = (j, eta), c = (k, eps), d = (l, phi),

        [{A_i^xi, A_j^eta}, {A_k^eps, A_l^phi}]
            = (eps - eta) delta_{jk} {A_i^xi, A_l^phi}
            + (eps - xi)  delta_{ik} {A_j^eta, A_l^phi}
            + (phi - eta) delta_{jl} {A_i^xi, A_k^eps}
            + (phi - xi)  delta_{il} {A_j^eta, A_k^eps},

    i.e. the sp(2n) structure of the even part, with every anticommutator
    read from ``anti = anticommutator_table(A)``.  The right side's terms
    are summed into the left side's entries, so it builds one matrix.
    """
    (i, xi), (j, eta), (k, eps), (l, phi) = a, b, c, d
    out = dict(commutator(anti[a, b], anti[c, d]).entries)
    if j == k and eps != eta:
        _scaled_into(out, anti[a, d], eta - eps)
    if i == k and eps != xi:
        _scaled_into(out, anti[b, d], xi - eps)
    if j == l and phi != eta:
        _scaled_into(out, anti[a, c], eta - phi)
    if i == l and phi != xi:
        _scaled_into(out, anti[b, c], xi - phi)
    return GradedMatrix(anti[a, b].n, out)


def sp2n_relation_checks(anti: AnticommutatorTable, n: int) -> list[CheckResult]:
    """All instances of the quadrilinear relation (id prefix C28), with
    ``anti = anticommutator_table(A)``.

    Each residual is built once per orbit.  With X the pair (a, b) sorted
    and Y the pair (c, d) sorted, the instances with one {X, Y} share the
    residual of the instance X + Y (X <= Y), read negated when X > Y.  That
    is exact for any generators, given a table from anticommutator_table:
    anti[a, b] and anti[b, a] are one object and the right side is
    symmetric under a <-> b and c <-> d, while [Y, X] = -[X, Y] and the
    right side of (c, d, a, b) is minus that of (a, b, c, d).
    """
    out: list[CheckResult] = []
    held: dict = {}  # orbit -> its residual
    for keys in product(generator_keys(n), repeat=4):
        a, b, c, d = keys
        x = (a, b) if a <= b else (b, a)
        y = (c, d) if c <= d else (d, c)
        orbit = (x, y) if x <= y else (y, x)
        res = held.get(orbit)
        if res is None:
            res = held[orbit] = sp2n_residual(anti, *orbit[0], *orbit[1])
        out.append(residual_row(_instance_id("C28", n, keys), res if x <= y else -res))
    return out


def cartan_kac_checks(
    e: dict[int, GradedMatrix],
    f: dict[int, GradedMatrix],
    h: dict[int, GradedMatrix],
    n: int,
) -> list[CheckResult]:
    """Cartan-Kac relations for the Chevalley generators.

    [h_i, h_j] = 0,  [h_i, e_j] = alpha_ij e_j,  [h_i, f_j] = -alpha_ij f_j,
    [[e_i, f_j]] = delta_ij h_i  (anticommutator when i = j = n).
    """
    alpha = cartan_matrix(n)
    out: list[CheckResult] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(
                residual_row(
                    f"CCK.hh[n={n},i={i},j={j}]",
                    commutator(h[i], h[j]),
                )
            )
            out.append(
                residual_row(
                    f"CCK.he[n={n},i={i},j={j}]",
                    supercommutator(h[i], e[j]) - e[j].scale(alpha[i - 1][j - 1]),
                )
            )
            out.append(
                residual_row(
                    f"CCK.hf[n={n},i={i},j={j}]",
                    supercommutator(h[i], f[j]) + f[j].scale(alpha[i - 1][j - 1]),
                )
            )
            res = supercommutator(e[i], f[j])
            if i == j:
                res = res - h[i]
            out.append(residual_row(f"CCK.ef[n={n},i={i},j={j}]", res))
    return out


def serre_checks(
    gens: dict[int, GradedMatrix], n: int, family: str
) -> list[CheckResult]:
    """Serre relations for one family ('e' or 'f') of simple generators.

    Distant generators commute; adjacent long-root generators obey the
    quadratic relation with coefficient 2; the short-root generator obeys
    the quartic relation

        x_n^3 x_{n-1} - (x_n^2 x_{n-1} x_n + x_n x_{n-1} x_n^2)
                      + x_{n-1} x_n^3 = 0.
    """
    out: list[CheckResult] = []
    g = gens
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            out.append(
                residual_row(
                    f"CS.{family}.far[n={n},i={i},j={j}]",
                    supercommutator(g[i], g[j]),
                )
            )
    for i, j in [(i, i + 1) for i in range(1, n)] + [(i, i - 1) for i in range(2, n)]:
        res = g[i] @ g[i] @ g[j] - (2 * (g[i] @ g[j] @ g[i])) + g[j] @ g[i] @ g[i]
        out.append(residual_row(f"CS.{family}.quad[n={n},i={i},j={j}]", res))
    if n >= 2:
        gn, gm = g[n], g[n - 1]
        res = (
            gn @ gn @ gn @ gm
            - (gn @ gn @ gm @ gn)
            - (gn @ gm @ gn @ gn)
            + gm @ gn @ gn @ gn
        )
        out.append(residual_row(f"CS.{family}.quartic[n={n}]", res))
    return out


def membership_checks(
    A: dict[Key, GradedMatrix], anti: AnticommutatorTable, n: int
) -> list[CheckResult]:
    """Block-structure membership for generators and their anticommutators,
    with ``anti = anticommutator_table(A)``."""
    violated = "block constraints violated"
    out: list[CheckResult] = []
    for i, s in generator_keys(n):
        ok = A[i, s].in_osp() and A[i, s].grade == 1
        out.append(CheckResult(
            f"MEM.gen[n={n},i={i},sign={SIGN_STR[s]}]", ok, None, "" if ok else violated
        ))
    for keys in product(generator_keys(n), repeat=2):
        ok = anti[keys].in_osp()
        out.append(CheckResult(
            _instance_id("MEM.pair", n, keys), ok, None, "" if ok else violated
        ))
    return out


def span_checks(
    A: dict[Key, GradedMatrix], anti: AnticommutatorTable, n: int
) -> list[CheckResult]:
    """Span dimensions: odd generators plus anticommutators give 2n^2 + 3n;
    the mixed anticommutators {A_i^-, A_j^+} alone give an n^2-dimensional
    gl(n).  ``anti = anticommutator_table(A)``."""
    keys = generator_keys(n)
    vectors = [A[key].entries for key in keys]
    vectors += [anti[pair].entries for pair in product(keys, repeat=2)]
    rank = q2_rank(vectors)
    expected = 2 * n * n + 3 * n
    out = [
        CheckResult(
            f"SPAN.osp[n={n}]",
            rank == expected,
            None,
            f"rank {rank}, expected {expected}",
        )
    ]
    gl_vectors = [
        anti[(i, -1), (j, +1)].entries
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    gl_rank = q2_rank(gl_vectors)
    out.append(
        CheckResult(
            f"SPAN.gl[n={n}]",
            gl_rank == n * n,
            None,
            f"rank {gl_rank}, expected {n * n}",
        )
    )
    return out


def chain_checks(
    A: dict[Key, GradedMatrix],
    e: dict[int, GradedMatrix],
    f: dict[int, GradedMatrix],
    n: int,
) -> list[CheckResult]:
    """Round trip: rebuild each A_i^+- from Chevalley commutator chains."""
    out: list[CheckResult] = []
    for i in range(1, n + 1):
        for s in (-1, +1):
            rebuilt = parabose_from_chevalley(e, f, i, s)
            out.append(
                residual_row(
                    f"CHAIN[n={n},i={i},sign={SIGN_STR[s]}]",
                    rebuilt - A[(i, s)],
                )
            )
    return out


def verify_classical(n: int) -> list[CheckResult]:
    """Run the full battery of exact classical checks for osp(1|2n).

    Covers block membership, the trilinear and quadrilinear generator
    relations, Cartan-Kac and Serre relations for the induced Chevalley
    generators, the commutator-chain reconstruction of the odd generators,
    and the span dimensions.  Every derived object is built from the
    generators parabose_set(n), so a fault in one of them reaches every
    check that uses it.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"mode count n={n} out of supported range 1..5")
    A = parabose_set(n)
    anti = anticommutator_table(A)
    e, f, h = chevalley_from_table(A, anti)
    results: list[CheckResult] = []
    results += membership_checks(A, anti, n)
    results += pbose_relation_checks(A, anti, n)
    results += sp2n_relation_checks(anti, n)
    results += cartan_kac_checks(e, f, h, n)
    results += serre_checks(e, n, "e")
    results += serre_checks(f, n, "f")
    results += chain_checks(A, e, f, n)
    results += span_checks(A, anti, n)
    return results
