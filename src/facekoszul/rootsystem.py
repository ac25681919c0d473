"""Root systems from Cartan data: weights, reflections, and the invariant form.

Everything is exact: weight coordinates are integers in the fundamental-weight
basis (coordinate i of lam is lam(h_i)), the invariant form is a rational
matrix, and integer-rescaled copies of the form and of the inverse Cartan
matrix (simple-root coordinates) are kept for hot loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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

    # Sums, differences and negatives of ints are ints: build the tuple
    # without the per-coordinate int() of __new__.
    def __add__(self, other):
        return tuple.__new__(Weight, [a + b for a, b in zip(self, other, strict=True)])

    def __sub__(self, other):
        return tuple.__new__(Weight, [a - b for a, b in zip(self, other, strict=True)])

    def __neg__(self):
        return tuple.__new__(Weight, [-a for a in self])

    # Every caller scales by an int, so the products are ints too.
    def __mul__(self, k):
        return tuple.__new__(Weight, [k * a for a in self])

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


def _rref(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on the first ncols columns of integer rows;
    later columns ride along.

    The package's one exact-elimination kernel: here the inverse Cartan matrix,
    the symmetrizer and the finite-type test; in facegeom affine solves, hull
    coordinates and facet normals. As in Bareiss, rows combine
    as pv*row - f*pivot_row, divided by the gcd of their entries; pivots are
    made positive. Every row stays a nonzero multiple of the Fraction one, so
    pivot row i divided by its pivot is row i of the reduced echelon form.
    Returns the rows (pivot rows primitive) and the pivot columns in the order
    found; the rows past the pivots are zero in the first ncols columns.
    """
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        top = rows[pivot]
        g = gcd(*top) if top[col] > 0 else -gcd(*top)
        top = [x // g for x in top]
        rows[pivot], rows[rank] = rows[rank], top
        pv = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return rows, pivots


def _null_basis(rows, pivots, n: int) -> list[list[int]]:
    """Integer null basis of `_rref` output over its first n columns: per free
    column, in order, the primitive vector positive in that column."""
    null = []
    for fc in (c for c in range(n) if c not in pivots):
        scale = lcm(*(row[col] // gcd(row[col], row[fc]) for row, col in zip(rows, pivots)))
        vec = [0] * n
        vec[fc] = scale
        for row, col in zip(rows, pivots):
            vec[col] = -row[fc] * scale // row[col]
        null.append(vec)
    return null


def _cone_coords(inv_rows, den: int, w) -> list[int] | None:
    """Simple-root coordinates dot(inv_rows[i], w) / den of w if w is in Q+, else None;
    one divmod per coordinate tests its sign and its divisibility."""
    coords = []
    for row in inv_rows:
        c, r = divmod(sum(map(mul, row, w)), den)
        if r or c < 0:
            return None
        coords.append(c)
    return coords


def _minimal_symmetrizer(cartan: list[list[int]]) -> list[int]:
    """Smallest positive integers d with d_i a_ij = d_j a_ji, per component.

    The sum of the `_null_basis` of one row d_i a_ij - d_j a_ji = 0 per linked
    pair. Elimination only combines rows sharing a column, so it never mixes
    components of the link graph, and a connected component fixes every ratio
    d_j / d_i: a symmetrizable one contributes one primitive vector, positive
    on it (its ratios are positive) and zero elsewhere. A component with no
    null vector leaves zeros, a negative ratio a negative entry.
    """
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise CartanDatumError(f"need a square Cartan matrix, got {n} rows of other lengths")
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cartan[i][j], cartan[j][i]
            if (a == 0) != (b == 0):
                raise CartanDatumError("Cartan matrix is not symmetrizable")
            if a:
                rows.append([a if k == i else -b if k == j else 0 for k in range(n)])
    d = [sum(col) for col in zip(*_null_basis(*_rref(rows, n), n))]
    if len(d) < n or any(x <= 0 for x in d):
        raise CartanDatumError("Cartan matrix is not symmetrizable")
    return d


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
        # Kac, Infinite-dimensional Lie algebras, Thm 4.3: an indecomposable GCM
        # is of finite type iff A u = (1, ..., 1) has a solution u > 0, and then
        # A is invertible; so this holds block by block for any A. `_rref`
        # keeps pivots positive: u_i > 0 iff row i ends positive.
        rows, pivots = _rref([[*row, 1] for row in a], n)
        if len(pivots) < n or any(row[n] <= 0 for row in rows):
            raise CartanDatumError("symmetrized matrix is not positive definite (not finite type)")

    @property
    def key(self) -> str:
        """Canonical string, used for memo keys."""
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
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:
            raise CartanDatumError(f"Cartan datum is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CartanDatumError("Cartan datum JSON must be an object")
    try:
        rank = int(obj["rank"])
        if "type" not in obj:
            cartan = [[int(x) for x in row] for row in obj["cartan"]]
            sym = [int(x) for x in obj["symmetrizer"]] if "symmetrizer" in obj else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CartanDatumError(f"malformed Cartan datum JSON: {exc}") from exc
    if "type" in obj:
        return series_datum(str(obj["type"]), rank)
    if sym is None:
        sym = _minimal_symmetrizer(cartan)
    datum = CartanDatum(rank, tuple(tuple(row) for row in cartan), tuple(sym))
    datum.validate()
    return datum


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data.

    `form` is the Weyl-invariant inner product on h* in omega coordinates;
    `form_int` is `form` times its least common denominator `form_scale`
    (scale cancels in every ratio or sign). `inv_cartan` is the inverse Cartan
    matrix times `inv_den`, its least common denominator: the simple-root
    coordinates of a weight w are dot(inv_cartan[i], w) / inv_den.
    """

    datum: CartanDatum
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight
    form: tuple[tuple[Fraction, ...], ...]
    form_int: tuple[tuple[int, ...], ...] = field(repr=False)
    form_scale: int = field(repr=False)
    inv_cartan: tuple[tuple[int, ...], ...] = field(repr=False)
    inv_den: int = field(repr=False)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def key(self) -> str:
        return self.datum.key

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
        return tuple(Fraction(sum(map(mul, row, w)), self.inv_den) for row in self.inv_cartan)

    def in_root_cone(self, w) -> bool:
        """Whether w is in Q+, a nonnegative integer combination of simple roots."""
        return _cone_coords(self.inv_cartan, self.inv_den, w) is not None


def build_root_system(datum: CartanDatum) -> RootSystem:
    """Close the simple roots under reflections and assemble the root system."""
    datum.validate()
    n = datum.rank
    simple = tuple(Weight(datum.cartan[i][j] for i in range(n)) for j in range(n))
    # A^{-1} = inv / inv_den from `_rref` of [A | I]; A is invertible because
    # form = diag(d) * A^{-1} is positive definite, as diag(d)*A is. Row i is
    # primitive, so its pivot is the least common denominator of row i of A^{-1}.
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(datum.cartan)]
    rows, _ = _rref(augmented, n)
    inv_den = lcm(*(row[i] for i, row in enumerate(rows)))
    inv = tuple(tuple(x * (inv_den // row[i]) for x in row[n:]) for i, row in enumerate(rows))
    form = tuple(
        tuple(Fraction(d * x, inv_den) for x in row) for d, row in zip(datum.symmetrizer, inv)
    )
    den = lcm(*(x.denominator for row in form for x in row))
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

    # height = sum of the simple-root coordinates of a positive root
    height = {}
    for beta in roots:
        coords = _cone_coords(inv, inv_den, beta)
        if coords is not None:
            height[beta] = sum(coords)
    if 2 * len(height) != len(roots):
        raise CartanDatumError("root closure produced an asymmetric root set")

    return RootSystem(
        datum=datum,
        simple_roots=simple,
        positive_roots=tuple(sorted(height, key=lambda b: (height[b], b))),
        rho=Weight((1,) * n),
        form=form,
        form_int=form_int,
        form_scale=den,
        inv_cartan=inv,
        inv_den=inv_den,
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
            return tuple.__new__(Weight, cur), sign, 0 in cur
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
