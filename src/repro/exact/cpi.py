"""Characteristic-polynomial set reconciliation (Minsky-Trachtenberg-Zippel).

Paper reference [19] and Section 5.1: if the discrepancy
``d = |S_A - S_B| + |S_B - S_A|`` is known (or bounded), peer A can send a
data collection of only ``O(d log u)`` bits — evaluations of its
characteristic polynomial ``chi_A(z) = prod_{a in S_A} (z - a)`` over a
prime field.  Peer B computes the same evaluations for ``S_B``; the ratio
``chi_A/chi_B`` is a rational function whose denominator's roots are
exactly ``S_B - S_A``.  Recovering it costs ``Theta(d^3)`` field work plus
``Theta(d |S|)`` evaluation — the "prohibitive except when d is small"
regime the paper contrasts with Bloom filters and ARTs.

Implementation notes:

* Field: GF(p) with the Mersenne prime ``p = 2^61 - 1``.  Keys must be
  smaller than ``2^60``; evaluation points are drawn from ``[2^60, p)`` so
  no sample point can coincide with a key (which would zero a
  characteristic polynomial).
* Degree split: with ``m`` sample points and the (signed) size difference
  ``D = |S_A| - |S_B|`` known, we solve for monic ``P`` (deg ``dA``) and
  ``Q`` (deg ``dB``) with ``dA - dB = D`` and ``dA + dB <= m``.
* Robustness: the solved ``P/Q`` is gcd-reduced and verified on reserve
  points; a failed verification raises :class:`DiscrepancyExceeded` so the
  caller can retry with a larger bound — matching the protocol in [19].
"""

import random
from typing import Iterable, List, Sequence, Set, Tuple

from repro.seeding import randbelow

_P = (1 << 61) - 1  # field modulus
_KEY_LIMIT = 1 << 60  # keys must be below this; sample points at/above it

#: Reserve points used only for checking the solution; every message
#: sized for discrepancy ``d`` carries ``d + VERIFY_POINTS`` evaluations.
VERIFY_POINTS = 4


class DiscrepancyExceeded(ValueError):
    """The true set discrepancy exceeds the bound the message was sized for."""


def _eval_poly(coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial given ascending coefficients, mod p (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % _P
    return acc


def _char_poly_eval(elements: Iterable[int], x: int) -> int:
    """``prod (x - e) mod p`` without materialising the polynomial."""
    acc = 1
    for e in elements:
        acc = (acc * (x - e)) % _P
    return acc


def _poly_divmod(num: List[int], den: List[int]) -> List[int]:
    """Remainder of polynomial division mod p (ascending coefficients)."""
    num = num[:]
    dlead_inv = pow(den[-1], _P - 2, _P)
    for i in range(len(num) - len(den), -1, -1):
        factor = (num[i + len(den) - 1] * dlead_inv) % _P
        if factor:
            for j, dc in enumerate(den):
                num[i + j] = (num[i + j] - factor * dc) % _P
    rem = num[: len(den) - 1]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_gcd(a: List[int], b: List[int]) -> List[int]:
    """Monic gcd of two polynomials mod p."""
    a, b = a[:], b[:]
    while len(b) > 1 or (b and b[0] != 0):
        if len(b) > len(a):
            a, b = b, a
            continue
        b_new = _poly_divmod(a, b)
        a, b = b, b_new
        if a == [0]:
            break
    if not a or a == [0]:
        return [1]
    lead_inv = pow(a[-1], _P - 2, _P)
    return [(c * lead_inv) % _P for c in a]


def _poly_exact_div(num: List[int], den: List[int]) -> List[int]:
    """Exact quotient num / den mod p (den must divide num)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    dlead_inv = pow(den[-1], _P - 2, _P)
    for i in range(len(num) - len(den), -1, -1):
        factor = (num[i + len(den) - 1] * dlead_inv) % _P
        out[i] = factor
        if factor:
            for j, dc in enumerate(den):
                num[i + j] = (num[i + j] - factor * dc) % _P
    return out


def _solve_linear_system(matrix: List[List[int]], rhs: List[int]) -> List[int]:
    """Gaussian elimination mod p; free variables (if any) are set to zero."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[i][:] + [rhs[i]] for i in range(rows)]
    pivot_cols: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] % _P), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], _P - 2, _P)
        aug[r] = [(v * inv) % _P for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [(vi - factor * vr) % _P for vi, vr in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    # Inconsistent system -> discrepancy bound violated.
    for i in range(r, rows):
        if aug[i][cols] % _P and all(v % _P == 0 for v in aug[i][:cols]):
            raise DiscrepancyExceeded("interpolation system is inconsistent")
    solution = [0] * cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = aug[row_idx][cols]
    return solution


class CharacteristicPolynomialReconciler:
    """Exact reconciliation via rational-function interpolation over GF(p)."""

    def __init__(self, max_discrepancy: int, seed: int = 0):
        if max_discrepancy <= 0:
            raise ValueError("discrepancy bound must be positive")
        self.max_discrepancy = max_discrepancy
        self.seed = seed
        rng = random.Random(seed)
        total = max_discrepancy + VERIFY_POINTS
        points: Set[int] = set()
        while len(points) < total:
            points.add(_KEY_LIMIT + randbelow(rng, _P - _KEY_LIMIT))
        ordered = sorted(points)
        self._points = ordered[:max_discrepancy]
        self._verify_points = ordered[max_discrepancy:]

    # -- peer A -------------------------------------------------------------

    def evaluate(self, elements: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Peer A's message: ``chi_A`` at the sample and reserve points."""
        pool = list(elements)
        for e in pool:
            if not 0 <= e < _KEY_LIMIT:
                raise ValueError(f"key {e} outside supported universe [0, 2^60)")
        return (
            [_char_poly_eval(pool, x) for x in self._points],
            [_char_poly_eval(pool, x) for x in self._verify_points],
        )

    # -- peer B ----------------------------------------------------------------

    def difference(self, remote, local_set: Iterable[int]) -> Set[int]:
        """Recover ``S_B - S_A`` exactly from A's message and B's own set.

        ``remote`` carries A's message as received — ``evaluations``,
        ``verify_evaluations``, ``set_size``, ``max_discrepancy`` and
        ``seed`` (a :class:`~repro.reconcile.adapters.CPISummary`).

        Raises:
            DiscrepancyExceeded: if the true discrepancy exceeds the bound
                (detected via the reserve verification points).
        """
        if remote.seed != self.seed or remote.max_discrepancy != self.max_discrepancy:
            raise ValueError("message was built by an incompatible reconciler")
        local = list(local_set)
        local_unique = set(local)
        m = self.max_discrepancy
        size_diff = remote.set_size - len(local_unique)
        # Degree split: dA - dB = size_diff, dA + dB <= m, both >= 0.
        d_b = (m - size_diff) // 2
        d_a = d_b + size_diff
        if d_a < 0 or d_b < 0:
            raise DiscrepancyExceeded(
                "set size difference alone exceeds the discrepancy bound"
            )

        ratios = []
        for x, eval_a in zip(self._points, remote.evaluations):
            eval_b = _char_poly_eval(local_unique, x)
            ratios.append((eval_a * pow(eval_b, _P - 2, _P)) % _P)

        # Unknowns: p_0..p_{dA-1}, q_0..q_{dB-1} (both polynomials monic).
        matrix: List[List[int]] = []
        rhs: List[int] = []
        for x, f in zip(self._points, ratios):
            row = [pow(x, j, _P) for j in range(d_a)]
            row += [(-f * pow(x, j, _P)) % _P for j in range(d_b)]
            matrix.append(row)
            rhs.append((f * pow(x, d_b, _P) - pow(x, d_a, _P)) % _P)
        solution = _solve_linear_system(matrix, rhs)
        poly_p = solution[:d_a] + [1]
        poly_q = solution[d_a:] + [1]

        # Remove any common factor introduced by an over-generous bound.
        g = _poly_gcd(poly_p, poly_q)
        if len(g) > 1:
            poly_p = _poly_exact_div(poly_p, g)
            poly_q = _poly_exact_div(poly_q, g)

        # Verify P/Q == chi_A/chi_B on the reserve points.
        for x, eval_a in zip(self._verify_points, remote.verify_evaluations):
            eval_b = _char_poly_eval(local_unique, x)
            lhs = (_eval_poly(poly_p, x) * eval_b) % _P
            rhs_check = (_eval_poly(poly_q, x) * eval_a) % _P
            if lhs != rhs_check:
                raise DiscrepancyExceeded(
                    "verification failed: true discrepancy exceeds the bound"
                )

        return {x for x in local_unique if _eval_poly(poly_q, x) == 0}
