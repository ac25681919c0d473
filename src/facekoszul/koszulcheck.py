"""Hilbert matrices and the numerical Koszulity certificate.

For a finite interval-closed set of graded points, the graded Hom dimensions
between projective covers and the graded Ext dimensions between simples are
packed into two unitriangular matrices. Entry (row, col) is nonzero only when
col lies below row in the face order, and then it is a monomial of degree
deg(row) - deg(col). The points are sorted by a linear extension that puts
lower degrees first, so only entries below the diagonal ask the face order
(through the face's integer pairing row). Both matrices come from one scan
that asks it once per pair and reads the Ext and the Hom entry of each
comparable pair. Each matrix stores one integer per entry, and the product of
the Ext matrix at -t with the Hom matrix at t is an integer product. It must
be the identity. The check is exact, and a failing entry is reported as an
internal inconsistency, never tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FaceCertificateError, NotIntervalClosedError
from .facegeom import FaceSubset
from .homdims import ext_dim, gldim, prepare_powers, proj_mult, witness_search
from .rootsystem import Weight
from .weightposet import GradedSet, GradedWeight, face_graded_leq, face_interval

__all__ = [
    "PolyMatrix",
    "KoszulVerdict",
    "KoszulReport",
    "WitnessReport",
    "hilbert_projective",
    "hilbert_yoneda_neg",
    "verify_koszul_numerical",
    "full_report",
    "render_monomial",
]


def _point_json(p: GradedWeight):
    return [list(p.weight), p.degree]


def _coeffs(c: int, degree: int) -> list[int]:
    """Ascending coefficient list of c * t^degree; empty for zero."""
    return [0] * degree + [c] if c else []


def render_monomial(c: int, degree: int) -> str:
    """c * t^degree as text: '2*t^4', '-1', '-t^3', 't', '0'."""
    if c == 0 or degree == 0:
        return str(c)
    var = "t" if degree == 1 else f"t^{degree}"
    if c == 1:
        return var
    return f"-{var}" if c == -1 else f"{c}*{var}"


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of monomials indexed by graded points in a fixed linear
    extension: entry (i, j) stands for entries[i][j] * t^(deg_i - deg_j)."""

    index: tuple[GradedWeight, ...]
    entries: tuple[tuple[int, ...], ...]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        # t^(deg_i - deg_k) * t^(deg_k - deg_j) = t^(deg_i - deg_j): the degrees
        # take care of themselves and only the coefficients multiply.
        if self.index != other.index:
            raise ValueError("matrix indices differ")
        n = len(self.index)
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in nonzero[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return PolyMatrix(self.index, tuple(out))

    def to_json_obj(self):
        deg = [p.degree for p in self.index]
        return {
            "index": [_point_json(p) for p in self.index],
            "entries": [
                [_coeffs(c, deg[i] - deg[j]) for j, c in enumerate(row)]
                for i, row in enumerate(self.entries)
            ],
        }


def _hilbert_pair(face: FaceSubset, gamma: GradedSet) -> tuple[PolyMatrix, PolyMatrix]:
    """The Ext matrix at -t and the Hom matrix, unitriangular in gamma's stored
    order, a linear extension, from one scan that asks the face order once per
    pair: when col < row in the face order, entry (row, col) is the signed
    ext_dim(col, row) in the first and proj_mult(col, row) in the second, else 0.

    linear_key sorts by degree first and col < row forces deg col < deg row,
    so every entry above the diagonal is 0 without asking the face order. The
    power layers of both kinds are built to gamma's degree span first.
    """
    if not gamma.interval_closed:
        raise NotIntervalClosedError("Hilbert matrices need an interval-closed set")
    if face.functional is None:
        raise FaceCertificateError("Hilbert matrices need a certified face subset")
    ws, pts = face.ws, gamma.points
    n = len(pts)
    if pts:
        for kind in ("ext", "sym"):
            prepare_powers(ws, kind, pts[-1].degree - pts[0].degree)
    ext = [[int(i == j) for j in range(n)] for i in range(n)]
    hom = [row[:] for row in ext]
    for i, row in enumerate(pts):
        for j, col in enumerate(pts[:i]):
            if face_graded_leq(face, col, row):
                m = ext_dim(ws, col, row)
                ext[i][j] = -m if (row.degree - col.degree) % 2 else m
                hom[i][j] = proj_mult(ws, col, row)
    return PolyMatrix(pts, tuple(map(tuple, ext))), PolyMatrix(pts, tuple(map(tuple, hom)))


def hilbert_projective(face: FaceSubset, gamma: GradedSet) -> PolyMatrix:
    """Graded Hom dimensions between projective covers: entry (target, source)
    is t^gap times the multiplicity of the target simple in the source cover."""
    return _hilbert_pair(face, gamma)[1]


def hilbert_yoneda_neg(face: FaceSubset, gamma: GradedSet) -> PolyMatrix:
    """Graded Ext dimensions between simples, evaluated at -t: entry
    (target, source) is (-t)^gap times dim Ext^gap(source, target)."""
    return _hilbert_pair(face, gamma)[0]


@dataclass(frozen=True)
class KoszulVerdict:
    """Outcome of the exact product check; a failure names its first bad entry.

    The residual r of entry (row, col) stands for r * t^(deg row - deg col).
    """

    passed: bool
    size: int
    offending: tuple[GradedWeight, GradedWeight, int] | None = None

    def to_json_obj(self):
        bad = None
        if self.offending is not None:
            row, col, residual = self.offending
            bad = {
                "row": _point_json(row),
                "col": _point_json(col),
                "residual": _coeffs(residual, row.degree - col.degree),
            }
        return {"passed": self.passed, "size": self.size, "offending": bad}


def verify_koszul_numerical(face: FaceSubset, gamma: GradedSet) -> KoszulVerdict:
    """Multiply the Ext matrix at -t with the Hom matrix at t and demand identity.

    Precondition violations (no certificate, not interval-closed) raise; a
    report with passed=False means the exact identity failed, which
    contradicts the theorem and therefore flags an implementation bug.
    """
    return _product_verdict(*_hilbert_pair(face, gamma))


def _product_verdict(he: PolyMatrix, hb: PolyMatrix) -> KoszulVerdict:
    """Demand he * hb == identity exactly; name the first entry that differs."""
    prod = he.matmul(hb)
    n = len(prod.index)
    for i, row in enumerate(prod.entries):
        for j, got in enumerate(row):
            residual = got - (i == j)
            if residual:
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
) -> KoszulReport:
    """Assemble bound, matrices, verdict, and optionally a tight witness interval."""
    g = gldim(face, gamma)
    n = face.total_mult
    if g > n:
        raise ArithmeticError(
            f"global dimension {g} exceeded the bound {n}; internal inconsistency"
        )
    he, hb = _hilbert_pair(face, gamma)
    verdict = _product_verdict(he, hb)
    witness = None
    if with_witness:
        k, nu = witness_search(face, max_k=max_k)
        star = face_interval(
            face, GradedWeight(nu, 0), GradedWeight(nu + face.weight_sum, n)
        )
        witness = WitnessReport(k, nu, star, gldim(face, star))
    return KoszulReport(n, g, verdict, hb, he, witness)
