"""Hilbert matrices and the numerical Koszulity certificate.

For a finite interval-closed set of graded points, the graded Hom dimensions
between projective covers and the graded Ext dimensions between simples are
packed into two unitriangular matrices of integer polynomials; the product of
the Ext matrix at -t with the Hom matrix at t must be the identity. The check
is exact, and a failing entry is reported as an internal inconsistency, never
tolerated.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import FaceCertificateError, NotIntervalClosedError
from .facegeom import FaceSubset
from .homdims import ext_dim, gldim, proj_mult, witness_search
from .rootsystem import Weight
from .weightposet import GradedSet, GradedWeight, face_graded_leq, face_interval, linear_key

__all__ = [
    "Poly",
    "PolyMatrix",
    "KoszulVerdict",
    "KoszulReport",
    "WitnessReport",
    "hilbert_projective",
    "hilbert_yoneda_neg",
    "verify_koszul_numerical",
    "full_report",
]


class Poly(tuple):
    """Dense integer polynomial in one variable, ascending coefficients, normalized."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, (int(c) for c in coeffs))

    @classmethod
    def monomial(cls, coeff: int, degree: int) -> "Poly":
        if coeff == 0:
            return cls()
        return cls((0,) * degree + (coeff,))

    def __add__(self, other):
        n = max(len(self), len(other))
        return Poly(
            (self[i] if i < len(self) else 0) + (other[i] if i < len(other) else 0)
            for i in range(n)
        )

    def __neg__(self):
        return Poly(-c for c in self)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(c * other for c in self)
        if not self or not other:
            return Poly()
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        return len(self) - 1

    def render(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")


P_ZERO = Poly()
P_ONE = Poly((1,))


def _point_json(p: GradedWeight):
    return [list(p.weight), p.degree]


@dataclass(frozen=True)
class PolyMatrix:
    """Square polynomial matrix indexed by graded points in a fixed linear extension."""

    index: tuple[GradedWeight, ...]
    entries: tuple[tuple[Poly, ...], ...]

    def entry(self, row: GradedWeight, col: GradedWeight) -> Poly:
        return self.entries[self.index.index(row)][self.index.index(col)]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.index != other.index:
            raise ValueError("matrix indices differ")
        n = len(self.index)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = P_ZERO
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(self.index, tuple(rows))

    def is_identity(self) -> bool:
        return all(
            e == (P_ONE if i == j else P_ZERO)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def is_unitriangular(self) -> bool:
        """Lower triangular with ones on the diagonal, in the index order."""
        for i, row in enumerate(self.entries):
            if row[i] != P_ONE:
                return False
            if any(row[j] for j in range(i + 1, len(row))):
                return False
        return True

    def to_json_obj(self):
        return {
            "index": [_point_json(p) for p in self.index],
            "entries": [[list(e) for e in row] for row in self.entries],
        }


def _gamma_order(face: FaceSubset, gamma: GradedSet) -> tuple[GradedWeight, ...]:
    if not gamma.interval_closed:
        raise NotIntervalClosedError("Hilbert matrices need an interval-closed set")
    if face.functional is None:
        raise FaceCertificateError("Hilbert matrices need a certified face subset")
    rs = face.ws.rs
    return tuple(sorted(gamma.points, key=lambda p: linear_key(rs, p)))


def _fill(n: int, entry, workers: int) -> tuple[tuple[Poly, ...], ...]:
    cells = [(i, j) for i in range(n) for j in range(n)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(lambda c: entry(*c), cells))
    else:
        flat = [entry(i, j) for i, j in cells]
    return tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


def hilbert_projective(face: FaceSubset, gamma: GradedSet, workers: int = 1) -> PolyMatrix:
    """Graded Hom dimensions between projective covers: entry (target, source)
    is t^gap times the multiplicity of the target simple in the source cover."""
    pts = _gamma_order(face, gamma)
    ws = face.ws

    def entry(i: int, j: int) -> Poly:
        if i == j:
            return P_ONE
        col, row = pts[j], pts[i]
        if not face_graded_leq(face, col, row):
            return P_ZERO
        return Poly.monomial(proj_mult(ws, col, row), row.degree - col.degree)

    return PolyMatrix(pts, _fill(len(pts), entry, workers))


def hilbert_yoneda_neg(face: FaceSubset, gamma: GradedSet, workers: int = 1) -> PolyMatrix:
    """Graded Ext dimensions between simples, evaluated at -t: entry
    (target, source) is (-t)^gap times dim Ext^gap(source, target)."""
    pts = _gamma_order(face, gamma)
    ws = face.ws

    def entry(i: int, j: int) -> Poly:
        if i == j:
            return P_ONE
        col, row = pts[j], pts[i]
        if not face_graded_leq(face, col, row):
            return P_ZERO
        gap = row.degree - col.degree
        m = ext_dim(ws, col, row)
        return Poly.monomial(m if gap % 2 == 0 else -m, gap)

    return PolyMatrix(pts, _fill(len(pts), entry, workers))


@dataclass(frozen=True)
class KoszulVerdict:
    """Outcome of the exact product check; a failure names its first bad entry."""

    passed: bool
    size: int
    offending: tuple[GradedWeight, GradedWeight, Poly] | None = None

    def to_json_obj(self):
        bad = None
        if self.offending is not None:
            row, col, residual = self.offending
            bad = {"row": _point_json(row), "col": _point_json(col), "residual": list(residual)}
        return {"passed": self.passed, "size": self.size, "offending": bad}


def verify_koszul_numerical(face: FaceSubset, gamma: GradedSet, workers: int = 1) -> KoszulVerdict:
    """Multiply the Ext matrix at -t with the Hom matrix at t and demand identity.

    Precondition violations (no certificate, not interval-closed) raise; a
    report with passed=False means the exact polynomial identity failed, which
    contradicts the theorem and therefore flags an implementation bug.
    """
    return _product_verdict(
        hilbert_yoneda_neg(face, gamma, workers), hilbert_projective(face, gamma, workers)
    )


def _product_verdict(he: PolyMatrix, hb: PolyMatrix) -> KoszulVerdict:
    """Demand he * hb == identity exactly; name the first entry that differs."""
    prod = he.matmul(hb)
    n = len(prod.index)
    for i in range(n):
        for j in range(n):
            want = P_ONE if i == j else P_ZERO
            got = prod.entries[i][j]
            if got != want:
                residual = got - want
                return KoszulVerdict(False, n, (prod.index[i], prod.index[j], residual))
    return KoszulVerdict(True, n)


@dataclass(frozen=True)
class WitnessReport:
    """An interval realizing the global-dimension bound exactly."""

    k: int
    nu: Weight
    gamma_star: GradedSet
    gldim_star: int

    def to_json_obj(self):
        return {
            "k": self.k,
            "nu": list(self.nu),
            "gamma_star": [_point_json(p) for p in self.gamma_star.points],
            "gldim_star": self.gldim_star,
        }


@dataclass(frozen=True)
class KoszulReport:
    """Everything the CLI reports for one interval-closed instance."""

    total_mult: int
    gldim_value: int
    verdict: KoszulVerdict
    hilbert_proj: PolyMatrix
    hilbert_yoneda: PolyMatrix
    witness: WitnessReport | None

    def to_json_obj(self):
        return {
            "total_mult": self.total_mult,
            "gldim": self.gldim_value,
            "gldim_bound_ok": self.gldim_value <= self.total_mult,
            "koszul": self.verdict.to_json_obj(),
            "gamma": [_point_json(p) for p in self.hilbert_proj.index],
            "hilbert_projective": self.hilbert_proj.to_json_obj(),
            "hilbert_yoneda_neg": self.hilbert_yoneda.to_json_obj(),
            "witness": None if self.witness is None else self.witness.to_json_obj(),
        }


def full_report(
    face: FaceSubset,
    gamma: GradedSet,
    with_witness: bool = False,
    max_k: int = 6,
    workers: int = 1,
) -> KoszulReport:
    """Assemble bound, matrices, verdict, and optionally a tight witness interval."""
    g = gldim(face, gamma)
    n = face.total_mult
    if g > n:
        raise ArithmeticError(
            f"global dimension {g} exceeded the bound {n}; internal inconsistency"
        )
    he = hilbert_yoneda_neg(face, gamma, workers)
    hb = hilbert_projective(face, gamma, workers)
    verdict = _product_verdict(he, hb)
    witness = None
    if with_witness:
        k, nu = witness_search(face, max_k=max_k)
        star = face_interval(
            face, GradedWeight(nu, 0), GradedWeight(nu + face.weight_sum, n)
        )
        witness = WitnessReport(k, nu, star, gldim(face, star))
    return KoszulReport(n, g, verdict, hb, he, witness)
