"""Root systems from Cartan data: weights, reflections, and the invariant form.

Everything is exact: weight coordinates are integers in the fundamental-weight
basis (coordinate i of lam is lam(h_i)), the invariant form is a rational
matrix, and an integer-rescaled copy of the form is kept for hot loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CartanDatumError

__all__ = [
    "Weight",
    "CartanDatum",
    "RootSystem",
    "series_datum",
    "datum_from_json",
    "build_root_system",
    "root_system",
    "simple_reflection",
    "to_dominant_signed",
    "weyl_dim",
]


class Weight(tuple):
    """Integer weight in fundamental-weight coordinates.

    Supports +, -, unary -, and integer scaling; dominance is a sign check.
    """

    __slots__ = ()

    def __new__(cls, coords):
        return super().__new__(cls, map(int, coords))

    def __add__(self, other):
        return Weight(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other):
        return Weight(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, k):
        return Weight(k * a for a in self)

    __rmul__ = __mul__

    @property
    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self)

    @property
    def is_regular(self) -> bool:
        """Strictly dominant: every coordinate positive."""
        return all(a > 0 for a in self)

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)


def _fraction_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise CartanDatumError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _leading_minors_positive(sym: list[list[int]]) -> bool:
    """Sylvester criterion on an integer symmetric matrix, exactly."""
    n = len(sym)
    for k in range(1, n + 1):
        sub = [[Fraction(sym[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        rows = [row[:] for row in sub]
        for col in range(k):
            pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
            if pivot is None:
                return False
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for r in range(col + 1, k):
                if rows[r][col] != 0:
                    f = rows[r][col] * inv
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        if det <= 0:
            return False
    return True


def _minimal_symmetrizer(cartan: list[list[int]]) -> list[int]:
    """Smallest positive integers d with d_i a_ij = d_j a_ji, per component."""
    n = len(cartan)
    ratio: list[Fraction | None] = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or (cartan[i][j] == 0 and cartan[j][i] == 0):
                    continue
                if cartan[i][j] == 0 or cartan[j][i] == 0:
                    raise CartanDatumError("Cartan matrix is not symmetrizable")
                want = ratio[i] * Fraction(cartan[i][j], cartan[j][i])
                if ratio[j] is None:
                    ratio[j] = want
                    stack.append(j)
                elif ratio[j] != want:
                    raise CartanDatumError("Cartan matrix is not symmetrizable")
    dens = [r.denominator for r in ratio]
    lcm = 1
    for d in dens:
        lcm = lcm * d // _gcd(lcm, d)
    ints = [int(r * lcm) for r in ratio]
    g = 0
    for v in ints:
        g = _gcd(g, v)
    return [v // g for v in ints]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


@dataclass(frozen=True)
class CartanDatum:
    """A symmetrizable finite-type Cartan matrix with a fixed symmetrizer."""

    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    def validate(self) -> None:
        n = self.rank
        if n < 1 or len(self.cartan) != n or any(len(row) != n for row in self.cartan):
            raise CartanDatumError(f"need a {n}x{n} matrix for rank {n}")
        if len(self.symmetrizer) != n or any(d <= 0 for d in self.symmetrizer):
            raise CartanDatumError("symmetrizer must be rank positive integers")
        a, d = self.cartan, self.symmetrizer
        for i in range(n):
            if a[i][i] != 2:
                raise CartanDatumError(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
            for j in range(n):
                if i == j:
                    continue
                if a[i][j] > 0:
                    raise CartanDatumError(f"off-diagonal entry a[{i}][{j}] = {a[i][j]} > 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise CartanDatumError(f"zero pattern broken at ({i},{j})")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise CartanDatumError("symmetrizer does not symmetrize the matrix")
        sym = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
        if not _leading_minors_positive(sym):
            raise CartanDatumError("symmetrized matrix is not positive definite (not finite type)")

    @property
    def key(self) -> str:
        """Canonical string, used for cache keys."""
        rows = ";".join(",".join(str(x) for x in row) for row in self.cartan)
        return f"r{self.rank}[{rows}]d{','.join(str(x) for x in self.symmetrizer)}"


def _chain_matrix(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def series_datum(letter: str, rank: int) -> CartanDatum:
    """Built-in Cartan data for the series A-G (Bourbaki numbering)."""
    letter = letter.upper()
    n = rank
    if letter == "A":
        if n < 1:
            raise CartanDatumError("A_n needs n >= 1")
        a, d = _chain_matrix(n), [1] * n
    elif letter == "B":
        if n < 2:
            raise CartanDatumError("B_n needs n >= 2")
        a = _chain_matrix(n)
        a[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        if n < 2:
            raise CartanDatumError("C_n needs n >= 2")
        a = _chain_matrix(n)
        a[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif letter == "D":
        if n < 3:
            raise CartanDatumError("D_n needs n >= 3")
        a = _chain_matrix(n)
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        d = [1] * n
    elif letter == "E":
        if n not in (6, 7, 8):
            raise CartanDatumError("E_n needs n in {6, 7, 8}")
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        links = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        links += [(6, 7)] if n >= 7 else []
        links += [(7, 8)] if n == 8 else []
        for i, j in links:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        d = [1] * n
    elif letter == "F":
        if n != 4:
            raise CartanDatumError("F_n needs n = 4")
        a = _chain_matrix(4)
        a[2][1] = -2
        d = [2, 2, 1, 1]
    elif letter == "G":
        if n != 2:
            raise CartanDatumError("G_n needs n = 2")
        a = [[2, -3], [-1, 2]]
        d = [1, 3]
    else:
        raise CartanDatumError(f"unknown series {letter!r}")
    datum = CartanDatum(n, tuple(tuple(row) for row in a), tuple(d))
    datum.validate()
    return datum


def datum_from_json(obj) -> CartanDatum:
    """Parse {"rank": n, "cartan": [[...]], "symmetrizer": [...]} or {"type": "A", "rank": 2}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise CartanDatumError("Cartan datum JSON must be an object")
    if "type" in obj:
        return series_datum(str(obj["type"]), int(obj["rank"]))
    try:
        rank = int(obj["rank"])
        cartan = [[int(x) for x in row] for row in obj["cartan"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CartanDatumError(f"malformed Cartan datum JSON: {exc}") from exc
    if "symmetrizer" in obj:
        sym = [int(x) for x in obj["symmetrizer"]]
    else:
        sym = _minimal_symmetrizer(cartan)
    datum = CartanDatum(rank, tuple(tuple(row) for row in cartan), tuple(sym))
    datum.validate()
    return datum


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; safe to share across workers.

    `form` is the Weyl-invariant inner product on h* in omega coordinates;
    `form_int` is the same matrix rescaled to integers (scale cancels in every
    ratio or sign the algorithms take).
    """

    datum: CartanDatum
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight
    form: tuple[tuple[Fraction, ...], ...]
    form_int: tuple[tuple[int, ...], ...] = field(repr=False)
    inv_cartan: tuple[tuple[Fraction, ...], ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def key(self) -> str:
        return self.datum.key

    def pairing(self, x, y) -> Fraction:
        """Exact invariant form <x, y>."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.form[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
        return total

    def ip(self, x, y) -> int:
        """Integer-rescaled form, for order/sign/ratio computations."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.form_int[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
        return total

    def height2(self, w) -> int:
        """<rho, w> in the integer-rescaled form; the linear-order key."""
        return self.ip(self.rho, w)

    def root_coords(self, w) -> tuple[Fraction, ...]:
        """Coordinates of w in the simple-root basis."""
        return tuple(
            sum(self.inv_cartan[i][j] * w[j] for j in range(self.rank)) for i in range(self.rank)
        )


def build_root_system(datum: CartanDatum) -> RootSystem:
    """Close the simple roots under reflections and assemble the root system."""
    datum.validate()
    n = datum.rank
    simple = tuple(Weight(datum.cartan[i][j] for i in range(n)) for j in range(n))
    a_frac = [[Fraction(x) for x in row] for row in datum.cartan]
    inv_cartan = tuple(tuple(row) for row in _fraction_inverse(a_frac))
    # form = diag(d) * A^{-1}; positive definite because diag(d)*A is.
    form = tuple(
        tuple(datum.symmetrizer[i] * inv_cartan[i][j] for j in range(n)) for i in range(n)
    )
    den = 1
    for row in form:
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
    form_int = tuple(tuple(int(x * den) for x in row) for row in form)
    for i in range(n):
        for j in range(i):
            if form[i][j] != form[j][i]:
                raise CartanDatumError("invariant form failed to be symmetric")

    roots: set[Weight] = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for beta in frontier:
            for i in range(n):
                gamma = beta - beta[i] * simple[i]
                if gamma not in roots:
                    roots.add(gamma)
                    fresh.append(gamma)
        frontier = fresh

    inv_rows = inv_cartan
    positive = []
    for beta in roots:
        coeffs = [sum(inv_rows[i][j] * beta[j] for j in range(n)) for i in range(n)]
        if all(c.denominator == 1 and c >= 0 for c in coeffs):
            positive.append(beta)
    if 2 * len(positive) != len(roots):
        raise CartanDatumError("root closure produced an asymmetric root set")

    def height(beta) -> int:
        return int(sum(sum(inv_rows[i][j] * beta[j] for j in range(n)) for i in range(n)))

    rho = Weight((1,) * n)
    return RootSystem(
        datum=datum,
        simple_roots=simple,
        positive_roots=tuple(sorted(positive, key=lambda b: (height(b), b))),
        rho=rho,
        form=form,
        form_int=form_int,
        inv_cartan=inv_cartan,
    )


def root_system(spec, rank: int | None = None) -> RootSystem:
    """Convenience constructor: root_system("A2"), root_system("A", 2), or a datum."""
    if isinstance(spec, CartanDatum):
        return build_root_system(spec)
    if isinstance(spec, str):
        if rank is not None:
            return build_root_system(series_datum(spec, rank))
        letter, digits = spec[:1], spec[1:]
        if not digits.isdigit():
            raise CartanDatumError(f"cannot parse type {spec!r}; expected e.g. 'A2'")
        return build_root_system(series_datum(letter, int(digits)))
    raise CartanDatumError(f"cannot build a root system from {spec!r}")


def simple_reflection(rs: RootSystem, i: int, lam) -> Weight:
    """Reflection s_i(lam) = lam - lam(h_i) * alpha_i, with 1-based i."""
    if not 1 <= i <= rs.rank:
        raise IndexError(f"reflection index {i} out of range 1..{rs.rank}")
    lam = Weight(lam)
    return lam - lam[i - 1] * rs.simple_roots[i - 1]


def to_dominant_signed(rs: RootSystem, lam) -> tuple[Weight, int, bool]:
    """Dominant Weyl-orbit representative with the sign of the word used.

    Returns (dominant, sign, singular); singular means the orbit meets a
    chamber wall, i.e. some coordinate of the dominant representative is 0.
    """
    cur = [int(c) for c in lam]
    simple = rs.simple_roots
    sign = 1
    while True:
        for i, c in enumerate(cur):
            if c < 0:
                break
        else:
            return Weight(cur), sign, 0 in cur
        cur = [x - c * a for x, a in zip(cur, simple[i])]
        sign = -sign


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the simple module with highest weight lam (product formula)."""
    lam = Weight(lam)
    if not lam.is_dominant:
        raise ValueError(f"weight {tuple(lam)} is not dominant")
    shifted = lam + rs.rho
    num = 1
    den = 1
    for alpha in rs.positive_roots:
        num *= rs.ip(shifted, alpha)
        den *= rs.ip(rs.rho, alpha)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Weyl dimension product was not an integer")
    return q
