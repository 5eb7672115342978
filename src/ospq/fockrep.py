"""Finite-dimensional unitary Fock representation at q = exp(i pi / k).

The deformed oscillators act on a k^n-dimensional space spanned by vectors
|m_1, ..., m_n> with every m_i in {0, ..., k-1}.  In the orthonormal basis
the explicit matrix elements are

    a_i^+ |m> = exp(-i pi (m_1+...+m_{i-1})/k)
                * sqrt(2 sin(pi (m_i+1)/k) sin(pi/(2k))) / sin(pi/k) |m_i+1>
    a_i^- |m> = exp(+i pi (m_1+...+m_{i-1})/k)
                * sqrt(2 sin(pi  m_i   /k) sin(pi/(2k))) / sin(pi/k) |m_i-1>
    kappa_i |m> = exp(i pi m_i / k) |m>

with the raising amplitude vanishing at m_i = k-1 and the lowering one at
m_i = 0.  This is the exact defining action (walgebra.fock_letter) in the
normalized basis, where the squared amplitudes are the ratios of the norm
factors; check_weights compares the kappa weights, the phases and the
squared amplitudes with that action evaluated at the root, which ties this
module to the exact layer.  Unitarity ((a_i^+)^dagger = a_i^-) holds by
construction up to floating-point rounding, and fails for any |q| != 1,
which is why matrices are only built at roots of unity while other q values
get a positivity diagnostic instead.

The gl(n) root vectors act as

    pi(e_ij) = -cos(pi/(2k)) kappa_j a_j^+ a_i^-          (i < j)
    pi(e_ij) = -cos(pi/(2k)) a_j^+ a_i^- kappa_i^{-1}     (i > j)

and preserve the total number m_1+...+m_n, so the space splits into
n(k-1)+1 blocks; each block carries an irreducible gl(n) action (checked
operationally as strong connectivity along edge masks, the nonzero weights
of the root vectors inside their block), with dimension given both by the
coefficient of x^m in ((1-x^k)/(1-x))^n and by the matching multinomial sum.

Operators are weighted shifts {d: w}: |col> goes to sum_d w_d[col] |col + d>,
with w_d zero wherever col + d leaves the space, so every letter is one shift.
Every word of letters -- a leaf's image under phi (uqosp.leaf_word), a
monomial of a normal form, an explicit gl root vector -- is one product.
Every check reads the shifts; the matrix objects and the CSV export list
their nonzero weights as (row, col) entries.  One FockSpace per shape (held
by fock_space for the most recent shape only) keeps the occupation digits,
the letters and the gl(n) decomposition.  A relation of the catalog, like
either form of a gl root vector, never changes the occupation of a mode it
does not touch, and reaches such a mode only through the phases above, so
check_matrix_relations and the DEC.root_form rows read each on the space of
its touched modes S alone and scale the residual by sqrt(k^(n-|S|)) back to
k^n.  The leaves and monomials an evaluation builds are kept in a plain dict
memo that is dropped on return: check_matrix_relations shares one across all
its patterns, and every other caller passes a fresh one per expression.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .qcoeff import fock_norm_factors
from .report import BRIDGE_TOL, RESIDUAL_TOL, STRUCTURAL_TOL, CheckResult
from .uqosp import (
    AntiComm,
    Gen,
    GenExpr,
    Product,
    QBracket,
    RelationPattern,
    Sum,
    Terms,
    build_chevalley_from_pre,
    build_gl_generator,
    leaf_word,
    relation_patterns,
)
from .walgebra import (AM, AP, DEFAULT_RULES, KA, Letter, Rules, WeylElement, WeylMonomial,
                       fock_letter, letter_str)


def root_s(k: int) -> complex:
    """s = q^{1/2} = exp(i pi / (2k))."""
    return cmath.exp(1j * math.pi / (2 * k))


# ---------------------------------------------------------------------------
# generator matrices as weighted shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseMatrix:
    """The nonzero entries data[p] at (row[p], col[p]), in row-major order."""

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.row, self.col] = self.data
        return out


@dataclass(frozen=True)
class RepMatrix:
    label: str
    n: int
    k: int
    matrix: SparseMatrix


Op = dict[int, np.ndarray]  # weighted shifts {d: w}, see the module docstring


def _amp_plus(m_i: int, k: int) -> float:
    """|amplitude| of a^+ on occupation m_i -> m_i + 1."""
    return math.sqrt(
        2.0 * math.sin(math.pi * (m_i + 1) / k) * math.sin(math.pi / (2 * k))
    ) / math.sin(math.pi / k)


class FockSpace:
    """The k^n basis vectors of n modes at q = exp(i pi / k) and what every
    check of that shape shares, each built once: the read-only (k^n, n)
    occupation digits (row idx holds m_1..m_n of basis vector idx, m_1 most
    significant), the letters and the gl(n) decomposition."""

    def __init__(self, n: int, k: int) -> None:
        if n < 1:
            raise ValueError("mode count must be at least 1")
        if k < 2:
            raise ValueError("root order k must be at least 2")
        self.n, self.k, self.dim = n, k, k**n
        places = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.digits = np.arange(self.dim, dtype=np.int64)[:, None] // places % k
        self.digits.flags.writeable = False
        self.letters: dict[Letter, Op] = {}

    def letter(self, letter: Letter) -> Op:
        """One shift for a Letter (kind, 0-based mode, exp): a^{+-} (kind
        AP/AM) on mode i = mode + 1 moves |m> by +-k^(n-i), with amplitude
        and phase looked up by m_i and by the prefix sum m_1 + ... + m_{i-1};
        kappa_i^exp (kind KA) keeps it, with weight exp(i pi exp m_i / k)."""
        op = self.letters.get(letter)
        if op is not None:
            return op
        n, k = self.n, self.k
        kind, mode, exp = letter
        if not 0 <= mode < n:
            raise ValueError(f"mode index {mode + 1} outside 1..{n}")
        m_i = self.digits[:, mode]
        if kind == KA:
            weight = np.array([cmath.exp(1j * math.pi * exp * m / k) for m in range(k)])
            op = {0: weight[m_i]}
        else:
            sign = {AP: +1, AM: -1}[kind]
            cols = np.flatnonzero(m_i != (k - 1 if sign == +1 else 0))
            # the lower of the two occupations joined by the ladder step
            low = m_i[cols] if sign == +1 else m_i[cols] - 1
            prefix = self.digits[cols, :mode].sum(axis=1)
            amp = np.array([_amp_plus(m, k) for m in range(k - 1)])
            # exp of the whole prefix sum: a product of per-mode exponentials
            # (a kron of one-mode phases) would differ from it in the last bit
            phase = np.array(
                [cmath.exp(-sign * 1j * math.pi * p / k) for p in range(n * (k - 1) + 1)]
            )
            w = np.zeros(self.dim, dtype=np.complex128)
            w[cols] = amp[low] * phase[prefix]
            op = {sign * k ** (n - 1 - mode): w}
        self.letters[letter] = op
        return op

    def word(self, word: Iterable[Letter]) -> Op:
        """Product of letters, the leftmost acting last."""
        return _product([self.letter(letter) for letter in word], self.dim)

    @cached_property
    def labels(self) -> np.ndarray:
        """Total occupation m_1 + ... + m_n of every basis vector."""
        return self.digits.sum(axis=1)

    @cached_property
    def decomposition(self) -> GlDecomposition:
        """Partition of the basis by total occupation number; frozen."""
        order = np.argsort(self.labels, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(self.labels))[:-1])
        blocks = tuple(
            GlBlock(m, len(idx), tuple(idx.tolist())) for m, idx in enumerate(groups)
        )
        return GlDecomposition(self.n, self.k, blocks)


@lru_cache(maxsize=1)
def fock_space(n: int, k: int) -> FockSpace:
    """The space the public (n, k) functions read, for the latest shape only."""
    return FockSpace(n, k)


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y entrywise by the textbook formula: numpy's SIMD complex loops may
    fuse multiply-adds, which moves last bits and depends on the machine.
    numpy's complex x * y and x * c equal this only with its AVX2/AVX-512
    loops off (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
    AVX512_SPR").  _sum still scales by numpy's `*` and _residual takes
    np.abs, so the bits of the MAT and DEC.root_form residuals, each read on
    the touched modes and scaled, still follow numpy's CPU dispatch; routing
    both through _cmul and _modulus would remove that, at a cost per call."""
    out = np.empty_like(x)
    re = np.multiply(x.real, y.real, out=out.real)
    re -= x.imag * y.imag
    im = np.multiply(x.real, y.imag, out=out.imag)
    im += x.imag * y.real
    return out


def _product(ops: Sequence[Op], dim: int) -> Op:
    """Operator product, the leftmost factor acting last.  A after B is one
    gather and multiply per pair of shifts, w = w_B * w_A[col + d_B] under
    the shift d_A + d_B; clipping col + d_B into the space is safe because
    w_B is zero wherever it leaves it."""
    if len(ops) < 2:
        return ops[0] if ops else {0: np.ones(dim, dtype=np.complex128)}
    cols = np.arange(dim)
    acc = ops[0]
    for op in ops[1:]:
        out: Op = {}
        for d_b, w_b in op.items():
            for d_a, w_a in acc.items():
                w = _cmul(w_b, w_a.take(cols + d_b, mode="clip"))
                d = d_a + d_b
                out[d] = out[d] + w if d in out else w
        acc = out
    return acc


def _sum(terms: Iterable[tuple[complex, Op]]) -> Op:
    """sum of c * op, added per shift."""
    acc: Op = {}
    for c, op in terms:
        for d, w in op.items():
            acc[d] = acc[d] + w * c if d in acc else w * c
    return acc


def _residual(a: Op, b: Op) -> float:
    """Frobenius norm of a - b: the norm of all its weights.  Only nonzero
    weights are summed: numpy's pairwise summation groups terms by position,
    so the zeros padding each shift would move the last bits."""
    diff = _sum(((1, a), (-1, b)))
    return float(np.sqrt(sum((np.abs(w[w != 0]) ** 2).sum() for w in diff.values())))


def _entries(op: Op, dim: int) -> SparseMatrix:
    """The nonzero weights as entries, w_d[col] at (col + d, col).  Read by
    falling d, the columns within a row rise, so one stable sort by row
    leaves them row-major."""
    shifts = sorted(op, reverse=True)
    weights = np.array([op[d] for d in shifts], dtype=np.complex128).reshape(-1, dim)
    which, col = np.nonzero(weights)
    row = col + np.array(shifts, dtype=np.int64)[which]
    order = np.argsort(row, kind="stable")
    return SparseMatrix((dim, dim), row[order], col[order], weights[which, col][order])


def build_generator_matrix(label: str, n: int, k: int) -> RepMatrix:
    """Matrix of a named operator.  A label is a letter as walgebra.letter_str
    names it (a{i}+, a{i}-, k{i}, k{i}^-1), L{i}[^+-1] for the leaf L_i^{+-1}
    under phi, or e{i},{j} for the gl root vectors (built from their explicit
    -cos(pi/(2k)) oscillator form, independent of the symbolic engine)."""
    space = fock_space(n, k)
    text = label.strip()
    letters = {letter_str(x): x for i in range(n)
               for x in ((AP, i, 0), (AM, i, 0), (KA, i, 1), (KA, i, -1))}
    if text in letters:
        op = space.letter(letters[text])
    elif m := re.fullmatch(r"L(\d+)(?:\^(-?\d+))?", text):
        exp = int(m.group(2) or 1)
        if exp not in (-1, 1):
            raise ValueError(f"L exponent must be +-1 in {label!r}")
        op = _matrix_of_expr(Gen("L", int(m.group(1)), exp), space, {})
    elif m := re.fullmatch(r"e(\d+),(\d+)", text):
        op = _gl_matrix_direct(int(m.group(1)), int(m.group(2)), space)
    else:
        raise ValueError(f"unknown operator label {label!r}")
    return RepMatrix(label, n, k, _entries(op, space.dim))


def _gl_matrix_direct(i: int, j: int, space: FockSpace) -> Op:
    """pi(e_ij) = -cos(pi/(2k)) kappa_j a_j^+ a_i^-        (i < j)
       pi(e_ij) = -cos(pi/(2k)) a_j^+ a_i^- kappa_i^{-1}   (i > j)"""
    if i == j or not 1 <= i <= space.n or not 1 <= j <= space.n:
        raise ValueError(f"gl root vector needs distinct modes in 1..{space.n}")
    coeff = -math.cos(math.pi / (2 * space.k))
    if i < j:
        word = ((KA, j - 1, 1), (AP, j - 1, 0), (AM, i - 1, 0))
    else:
        word = ((AP, j - 1, 0), (AM, i - 1, 0), (KA, i - 1, -1))
    return _sum([(coeff, space.word(word))])


# ---------------------------------------------------------------------------
# matrices of expressions and of normal-ordered elements
# ---------------------------------------------------------------------------


def _keep(memo: dict, key: tuple[int, Gen | WeylMonomial], op: Op) -> Op:
    """Store op in a memo of the operators already built within one call,
    keyed by the mode count of their space and a leaf Gen or a WeylMonomial,
    at one k.  A stored operator is exactly what the same deterministic
    operations would build again, so no result changes; its weights are
    shared, so read-only."""
    for w in op.values():
        w.setflags(write=False)
    memo[key] = op
    return op


def _matrix_of_expr(x: GenExpr, space: FockSpace, memo: dict) -> Op:
    """Evaluate an expression tree by operator products only (no symbolic
    normal ordering): the first of the two verification routes.  A leaf
    other than e/f is phi's letter word (uqosp.leaf_word) times s^a, built
    once per memo."""
    k, dim = space.k, space.dim
    if isinstance(x, Gen):
        op = memo.get((space.n, x))
        if op is not None:
            return op
        if x.kind in ("e", "f"):
            e_expr, f_expr = build_chevalley_from_pre(space.n, x.index)
            op = _matrix_of_expr(e_expr if x.kind == "e" else f_expr, space, memo)
        else:
            a, word = leaf_word(x.kind, x.index, x.exp, space.n)
            op = space.word(word)
            op = _sum([(root_s(k) ** a, op)]) if a else op
        return _keep(memo, (space.n, x), op)
    if isinstance(x, Product):
        return _product([_matrix_of_expr(fac, space, memo) for fac in x.factors], dim)
    if isinstance(x, Sum):
        return _sum(
            (complex(coeff.eval_root(k)), _matrix_of_expr(term, space, memo))
            for coeff, term in x.terms
        )
    if isinstance(x, (QBracket, AntiComm)):
        a = _matrix_of_expr(x.left, space, memo)
        b = _matrix_of_expr(x.right, space, memo)
        coeff = x.sign * root_s(k) ** x.s_exp
        return _sum(((1, _product((a, b), dim)), (coeff, _product((b, a), dim))))
    raise TypeError(f"not a generator expression: {type(x).__name__}")


def matrix_of_expr(x: GenExpr, n: int, k: int) -> SparseMatrix:
    space = fock_space(n, k)
    return _entries(_matrix_of_expr(x, space, {}), space.dim)


def _matrix_of_weyl(terms: Terms, space: FockSpace, memo: dict) -> Op:
    """Root-evaluated coefficients times letter products, over a normal form's
    sorted (monomial, coefficient) pairs; each monomial's product is built
    once per memo."""

    def monomial(mono: WeylMonomial) -> Op:
        op = memo.get((space.n, mono))
        return op if op is not None else _keep(memo, (space.n, mono), space.word(mono.word()))

    return _sum((complex(c.eval_root(space.k)), monomial(mono)) for mono, c in terms)


def matrix_of_weyl(x: WeylElement, k: int) -> SparseMatrix:
    """Matrix of a normal-ordered element.  Together with matrix_of_expr
    this gives two independent routes from a relation to a matrix."""
    space = fock_space(x.n, k)
    return _entries(_matrix_of_weyl(x.terms(), space, {}), space.dim)


# ---------------------------------------------------------------------------
# unitarity and structural checks
# ---------------------------------------------------------------------------


def check_unitarity(n: int, k: int) -> list[CheckResult]:
    """(a_i^+)^dagger = a_i^- entrywise; kappa_i and L_i unitary diagonal."""
    space = fock_space(n, k)
    out: list[CheckResult] = []
    for i in range(1, n + 1):
        # (a+)^dagger: the entry of column col moves to col + shift, shift -shift
        ((shift, up),) = space.letter((AP, i - 1, 0)).items()
        cols = np.flatnonzero(up)
        dagger = np.zeros_like(up)
        dagger[cols + shift] = up[cols].conj()
        diff = _sum(((1, space.letter((AM, i - 1, 0))), (-1, {-shift: dagger})))
        dev = max(float(np.abs(w).max()) for w in diff.values())
        out.append(
            CheckResult(
                f"UNI.adjoint[n={n},k={k},i={i}]",
                dev < STRUCTURAL_TOL,
                dev,
                "a- vs a+ conjugate transpose",
            )
        )
        for label, op in (
            (f"kappa{i}", space.letter((KA, i - 1, 1))),
            (f"L{i}", _matrix_of_expr(Gen("L", i), space, {})),
        ):
            # entrywise distance of |op| from the identity
            dev = max(float(np.abs(np.abs(w) - (d == 0)).max()) for d, w in op.items())
            out.append(
                CheckResult(
                    f"UNI.diag[{label},n={n},k={k}]",
                    dev < STRUCTURAL_TOL,
                    dev,
                    "unimodular diagonal",
                )
            )
    return out


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| entrywise, bit-identical to the scalar abs() of each entry (np.abs
    of a complex array can differ from it in the last place)."""
    return np.hypot(z.real, z.imag)


def check_weights(n: int, k: int) -> list[CheckResult]:
    """The kappa weights, the raising phases and the squared raising
    amplitudes against the defining action (walgebra.fock_letter) evaluated
    at the root."""
    space = fock_space(n, k)
    out: list[CheckResult] = []
    digits = space.digits

    def at_root(letter: Letter, m: tuple[int, ...]) -> complex:
        return fock_letter(letter, m)[0].eval_root(k)

    # kappa on |m> is s^{2m}; a^+ behind a prefix sum p has phase s^{-2p}, read
    # on one state per p; |amp|^2 is the ratio of the norms of levels m + 1
    # and m, which is a^- on |m+1>, the small exact c [m+1]: the full norms
    # c^m [m]! grow with m and cancel badly at the root
    weight = np.array([at_root((KA, 0, 1), (m,)) for m in range(k)])
    phases = np.array(
        [at_root((AP, 1, 0), (p, 0)) for p in range((n - 1) * (k - 1) + 1)]
    )
    ratios = np.array([at_root((AM, 0, 0), (m + 1,)).real for m in range(k - 1)])
    worst_amp = 0.0
    worst_phase = 0.0
    for i in range(1, n + 1):
        diag = space.letter((KA, i - 1, 1))[0]
        dev = float(_modulus(diag - weight[digits[:, i - 1]]).max())
        out.append(
            CheckResult(
                f"WGT.kappa[n={n},k={k},i={i}]", dev < STRUCTURAL_TOL, dev,
                "diagonal weights",
            )
        )
        cols = np.flatnonzero(digits[:, i - 1] < k - 1)
        amp = space.letter((AP, i - 1, 0))[k ** (n - i)][cols]
        modulus = _modulus(amp)
        sq_dev = np.abs(modulus**2 - ratios[digits[cols, i - 1]])
        worst_amp = max(worst_amp, float(sq_dev.max()))
        prefix = digits[cols, : i - 1].sum(axis=1)
        worst_phase = max(
            worst_phase, float(_modulus(amp / modulus - phases[prefix]).max())
        )
    out.append(
        CheckResult(
            f"WGT.norm_ratio[n={n},k={k}]", worst_amp < BRIDGE_TOL, worst_amp,
            "squared amplitudes vs symbolic norm-factor ratios",
        )
    )
    out.append(
        CheckResult(
            f"WGT.phase[n={n},k={k}]", worst_phase < BRIDGE_TOL, worst_phase,
            "raising phases vs number-operator prefix",
        )
    )
    return out


# ---------------------------------------------------------------------------
# relation checks (two routes)
# ---------------------------------------------------------------------------


def check_matrix_relations(
    n: int, k: int, rules: Rules = DEFAULT_RULES
) -> list[CheckResult]:
    """Every catalog instance as a k^n x k^n matrix identity, with the
    symbolic normal form re-evaluated at the root as a cross-check of the
    same matrices.

    An instance never changes the occupation of a mode outside the modes S
    it touches and reaches such a mode only through the prefix phases, one
    common unimodular phase per shift and spectator state, so its residual
    on k^n is sqrt(k^(n-|S|)) times the one on the k^|S| space of S.  Each
    pattern of uqosp.relation_patterns is evaluated once, on
    FockSpace(|S|, k) (fock_space(n, k) when |S| = n), and every row
    reports its residual scaled back to k^n, which RESIDUAL_TOL bounds.
    Leaves and monomials are built once per |S| by one memo, dropped on
    return."""
    spaces: dict[int, FockSpace] = {}
    memo: dict = {}
    residuals: dict[RelationPattern, float] = {}
    out: list[CheckResult] = []
    for inst, modes, pattern in relation_patterns(n, rules):
        res = residuals.get(pattern)
        if res is None:
            m = pattern.n
            if m not in spaces:
                spaces[m] = fock_space(n, k) if m == n else FockSpace(m, k)
            space = spaces[m]
            lhs = _matrix_of_expr(pattern.lhs, space, memo)
            rhs = _matrix_of_expr(pattern.rhs, space, memo)
            sym_lhs = _matrix_of_weyl(pattern.lhs_terms, space, memo)
            sym_rhs = _matrix_of_weyl(pattern.rhs_terms, space, memo)
            res = residuals[pattern] = max(
                _residual(lhs, rhs), _residual(sym_lhs, lhs), _residual(sym_rhs, rhs))
        res, detail = _on_modes("matrix residual", res, modes, n, k)
        out.append(CheckResult(f"MAT.{inst.id}[k={k}]", res < RESIDUAL_TOL, res, detail))
    return out


def _on_modes(what: str, res: float, modes: Sequence[int], n: int, k: int) -> tuple[float, str]:
    """A residual read on the space of the touched modes, scaled by
    sqrt(k^(n-|modes|)) back to k^n, and the row detail that says so."""
    spectators = n - len(modes)
    detail = f"{what} on modes {','.join(map(str, modes))} of {n}"
    if spectators:
        detail += f", x sqrt(k^{spectators})"
    return res * math.sqrt(k**spectators), detail


# ---------------------------------------------------------------------------
# positivity diagnostic away from roots of unity
# ---------------------------------------------------------------------------


def positivity_diagnostic(q: complex) -> dict:
    """Why a generic q does not give a unitary Fock space.

    Returns the modulus defect of q and the first occupation number whose
    squared norm fails to be positive (None if all stay positive up to
    m = 25), with the first 8 norms.  At q = exp(i pi / k) the norms are
    positive up to m = k-1 and vanish at m = k; for |q| != 1 the
    representation cannot be unitary at all (the kappa weights are not
    unimodular), even though the norms may stay positive.
    """
    q = complex(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    s = cmath.sqrt(q)
    modulus_ok = abs(abs(q) - 1.0) < STRUCTURAL_TOL
    first_non_positive: int | None = None
    values: list[float] = []
    for m, norm in enumerate(fock_norm_factors(26)[1:], start=1):
        val = complex(norm.eval_scalar(s))
        values.append(val.real)
        if first_non_positive is None and (
            abs(val.imag) > 1e-6 * max(1.0, abs(val)) or val.real <= 1e-12
        ):
            first_non_positive = m
    return {
        "q": q,
        "modulus_ok": modulus_ok,
        "first_non_positive": first_non_positive,
        "norms": values[:8],
    }


# ---------------------------------------------------------------------------
# gl(n) decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlBlock:
    m: int
    dim: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class GlDecomposition:
    n: int
    k: int
    blocks: tuple[GlBlock, ...]


def block_dims_polynomial(n: int, k: int) -> list[int]:
    """Coefficients of ((1-x^k)/(1-x))^n = (1+x+...+x^{k-1})^n."""
    poly = [1]
    base = [1] * k
    for _ in range(n):
        out = [0] * (len(poly) + k - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(base):
                out[i + j] += a * b
        poly = out
    return poly


def block_dims_multinomial(n: int, k: int) -> list[int]:
    """Same dimensions as sums of multinomial coefficients n!/(j_0!...j_{k-1}!)
    over occupation-value multiplicities with sum j_i = n, sum i*j_i = m."""
    # (modes left, partial m) -> summed multinomial weight once the
    # multiplicities of the values below `value` are chosen; a state with no
    # modes left goes to dims at once, so at n = 1 one state stays live
    states = {(n, 0): 1}
    dims = [0] * (n * (k - 1) + 1)
    for value in range(k - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (left, m_acc), ways in states.items():
            for j in range(left):
                key = (left - j, m_acc + value * j)
                nxt[key] = nxt.get(key, 0) + ways * math.comb(left, j)
            dims[m_acc + value * left] += ways  # all rest at this value
        states = nxt
    for (left, m_acc), ways in states.items():
        dims[m_acc + (k - 1) * left] += ways  # all rest at the top value
    return dims


def decompose_gl(n: int, k: int) -> GlDecomposition:
    """Partition of the basis by total occupation number (FockSpace.decomposition)."""
    return fock_space(n, k).decomposition


def _connected_blocks(edges: list[tuple[int, np.ndarray]], labels: np.ndarray) -> np.ndarray:
    """For every block label b, whether the basis vectors labelled b form one
    strongly connected component along the edges (d, has), col -> col + d
    wherever has[col], each inside its block: searches from the smallest of
    them, along the edges and against them, both reach all of them."""
    # has is False wherever col + d leaves the space, so a roll wraps no edge in
    reverse = [(-d, np.roll(has, d)) for d, has in edges]
    starts = np.unique(labels, return_index=True)[1]
    slot = np.empty(len(labels), dtype=np.int64)
    reached = np.ones(len(labels), dtype=bool)
    for shifts in (edges, reverse):
        seen = np.zeros(len(labels), dtype=bool)
        frontier = starts
        while frontier.size:
            seen[frontier] = True
            steps = [frontier[has[frontier]] + d for d, has in shifts]
            nxt = np.concatenate([np.empty(0, dtype=np.int64), *steps])
            nxt = nxt[~seen[nxt]]
            # keep one copy per vertex, or the paths multiply every round
            slot[nxt] = np.arange(nxt.size)
            frontier = nxt[slot[nxt] == np.arange(nxt.size)]
        reached &= seen
    return np.bincount(labels, weights=~reached) == 0


def check_decomposition(n: int, k: int) -> list[CheckResult]:
    """Dimension oracles, invariance, root forms and connectivity.  Both forms
    of e_ij touch modes i and j alone, so the root form is read on two modes,
    once for i < j and once for i > j, and scaled back to k^n.  Each explicit
    root vector is built on k^n once, read for its leak and kept only as its
    edge mask: its weights of modulus above STRUCTURAL_TOL inside the block."""
    space = fock_space(n, k)
    labels = space.labels
    blocks = space.decomposition.blocks
    out: list[CheckResult] = []
    poly = block_dims_polynomial(n, k)
    multi = block_dims_multinomial(n, k)
    for b in blocks:
        ok = b.dim == poly[b.m] == multi[b.m]
        out.append(
            CheckResult(
                f"DEC.dim[n={n},k={k},m={b.m}]", ok, None,
                f"basis {b.dim}, polynomial {poly[b.m]}, multinomial {multi[b.m]}",
            )
        )
    if n > 1:  # at n = 1 there is no root vector, and no pair space to build
        pair = space if n == 2 else FockSpace(2, k)
        root_form = {
            a < b: _residual(_gl_matrix_direct(a, b, pair),
                             _matrix_of_expr(build_gl_generator(2, a, b), pair, {}))
            for a, b in ((1, 2), (2, 1))
        }
    edges = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        ((d, w),) = _gl_matrix_direct(i, j, space).items()
        cols = np.flatnonzero(w)
        inside = labels[cols] == labels[cols + d]
        off_block = w[cols[~inside]]
        leak = float(_modulus(off_block).max()) if off_block.size else 0.0
        out.append(
            CheckResult(
                f"DEC.invariant[n={n},k={k},e={i},{j}]", leak == 0.0, leak,
                "off-block matrix entries",
            )
        )
        dev, detail = _on_modes("explicit form vs realized root vector",
                                root_form[i < j], sorted((i, j)), n, k)
        out.append(
            CheckResult(f"DEC.root_form[n={n},k={k},e={i},{j}]", dev < RESIDUAL_TOL, dev, detail)
        )
        has = np.zeros(space.dim, dtype=bool)
        has[cols] = inside & (_modulus(w[cols]) > STRUCTURAL_TOL)
        edges.append((d, has))
    connected = _connected_blocks(edges, labels)
    for b in blocks:
        out.append(
            CheckResult(
                f"DEC.connected[n={n},k={k},m={b.m}]", bool(connected[b.m]), None,
                "strong connectivity under gl root vectors",
            )
        )
    ladder = [(d, _modulus(w) > STRUCTURAL_TOL) for mode in range(n) for kind in (AP, AM)
              for d, w in space.letter((kind, mode, 0)).items()]
    out.append(
        CheckResult(
            f"OSP.connected[n={n},k={k}]",
            bool(_connected_blocks(ladder, np.zeros(space.dim, dtype=np.int64))[0]), None,
            "strong connectivity of the full space under the oscillators",
        )
    )
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def csv_rows(rep: RepMatrix) -> Iterable[str]:
    """Coordinate-triplet lines ``row,col,re,im`` (0-based, row-major)."""
    yield "row,col,re,im"
    mat = rep.matrix
    for r, c, v in zip(mat.row.tolist(), mat.col.tolist(), mat.data.tolist()):
        yield f"{r},{c},{v.real!r},{v.imag!r}"


def decomposition_to_json(dec: GlDecomposition) -> dict:
    return {
        "n": dec.n,
        "k": dec.k,
        "blocks": [
            {"m": b.m, "dim": b.dim, "indices": list(b.indices)}
            for b in dec.blocks
        ],
    }
