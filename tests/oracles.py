"""Independent brute-force oracles shared by the unit and acceptance tests.

The exact linear algebra here is a private Fraction copy (Gauss-Jordan, null
space, affine solve, affine coordinates, inverse Cartan matrix), so the
oracles share none of the package's integer elimination code. Sums of exactly
k generators are decided by a depth-first search with its own node memo, so
the face-order oracles share nothing with the package's layered path search.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import sub

from facekoszul import (
    Character,
    GradedWeight,
    Weight,
    adams,
    decompose,
    irr_character,
    tensor,
    to_dominant_signed,
)
from facekoszul.errors import FaceCertificateError, VirtualCharacterError


def _rref(rows, ncols):
    """Fraction Gauss-Jordan on the first ncols columns of Fraction rows."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def _nullspace(rows, pivots, n):
    """Fraction null-space basis of a reduced matrix, one vector per free column."""
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = -row[fc]
        basis.append(vec)
    return basis


def solve_equalities_fraction(eqs, n):
    """Affine solve in Fractions: (particular, Fraction null basis) or None."""
    rows, pivots = _rref([[*map(Fraction, c), Fraction(r)] for c, r in eqs], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        particular[col] = row[n]
    return particular, _nullspace(rows, pivots, n)


def _affine_coords(pts):
    """Coordinates of Fraction points inside their own affine hull (first point at 0)."""
    base = pts[0]
    rows, pivots = _rref([[p[i] - base[i] for p in pts] for i in range(len(base))], len(pts))
    return [tuple(row[k] for row in rows[: len(pivots)]) for k in range(len(pts))]


def root_coords_fraction(rs, w):
    """Simple-root coordinates of w: the Fraction inverse of the Cartan matrix times w."""
    n = rs.rank
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rs.datum.cartan)]
    inv = [row[n:] for row in _rref(aug, n)[0]]
    return tuple(sum(inv[i][j] * w[j] for j in range(n)) for i in range(n))


def in_root_cone_fraction(rs, w):
    """w in Q+: every simple-root coordinate is a nonnegative integer."""
    return all(c.denominator == 1 and c >= 0 for c in root_coords_fraction(rs, w))


def pairing(rs, x, y):
    """The invariant form <x, y> in Fraction arithmetic through `rs.form`."""
    return sum((xi * rs.form[i][j] * yj for i, xi in enumerate(x) for j, yj in enumerate(y)),
               Fraction(0))


def freudenthal_dominant_walk(rs, lam):
    """Freudenthal's recursion, level by level from lam, deciding each candidate
    by walking it to its dominant representative d: it is a weight iff lam - d
    is in the root cone, and a non-dominant weight takes the multiplicity of d."""
    ip, rho = rs.ip, rs.rho
    lam = Weight(lam)
    top_norm = ip(lam + rho, lam + rho)
    pos_data = [(alpha, ip(alpha, alpha)) for alpha in rs.positive_roots]
    mults = {lam: 1}
    dom_of = {lam: lam}
    rejected = set()
    level = [lam]
    while level:
        fresh = []
        for mu in level:
            for alpha in rs.simple_roots:
                nu = mu - alpha
                if nu in dom_of or nu in rejected:
                    continue
                dom = to_dominant_signed(rs, nu)[0]
                if not rs.in_root_cone(lam - dom):
                    rejected.add(nu)
                    continue
                dom_of[nu] = dom
                fresh.append(nu)
        for nu in fresh:
            dom = dom_of[nu]
            if dom != nu:
                mults[nu] = mults[dom]
                continue
            acc = 0
            for alpha, step in pos_data:
                k = 1
                while nu + k * alpha in mults:
                    acc += mults[nu + k * alpha] * (ip(nu, alpha) + k * step)
                    k += 1
            q, r = divmod(2 * acc, top_norm - ip(nu + rho, nu + rho))
            if r or q <= 0:
                raise ArithmeticError(f"Freudenthal recursion failed at {tuple(nu)}")
            mults[nu] = q
        level = fresh
    return mults


def expand_power_bruteforce(ch, j, kind):
    """Expand the j-fold wedge or symmetric multiset of weights directly."""
    flat = []
    for w, m in sorted(ch.mults.items()):
        flat.extend([w] * m)
    picker = combinations if kind == "ext" else combinations_with_replacement
    out = {}
    for combo in picker(range(len(flat)), j):
        total = Weight.zero(ch.rs.rank)
        for i in combo:
            total = total + flat[i]
        out[total] = out.get(total, 0) + 1
    return out


def newton_power(ch, j, kind):
    """The j-th exterior or symmetric power by Newton's identities on Adams
    operations: j*e_j = sum (-1)^(i-1) p_i e_(j-i), j*h_j = sum p_i h_(j-i)."""
    alternating = kind == "ext"
    rs = ch.rs
    layers = [{Weight.zero(rs.rank): 1}]
    powers = [None] + [dict(adams(ch, i).mults) for i in range(1, j + 1)]
    for m in range(1, j + 1):
        acc = {}
        for i in range(1, m + 1):
            sign = -1 if alternating and i % 2 == 0 else 1
            for w1, m1 in powers[i].items():
                for w2, m2 in layers[m - i].items():
                    w = w1 + w2
                    acc[w] = acc.get(w, 0) + sign * m1 * m2
        layer = {}
        for w, v in acc.items():
            q, r = divmod(v, m)
            if r:
                raise VirtualCharacterError(f"inexact division by {m}; input is not a character")
            if q:
                layer[w] = q
        layers.append(layer)
    return Character(rs, layers[j])


def constituents_by_subtraction(power, lam):
    """Simple constituents of power tensor V(lam): build the tensor product and
    peel off maximal weights."""
    if not power:
        return {}
    return dict(decompose(tensor(power, irr_character(power.rs, lam))))


def fm_feasible_point_unpruned(ineqs, n):
    """Fourier-Motzkin feasibility for coeffs . y <= rhs with no row pruning:
    every stage keeps every combination, scaled copies and looser rows too."""
    cur = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]
    stages = []
    for v in range(n - 1, -1, -1):
        stages.append(cur)
        pos = [row for row in cur if row[0][v] > 0]
        neg = [row for row in cur if row[0][v] < 0]
        nxt = [row for row in cur if row[0][v] == 0]
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = -nc[v], pc[v]
                coeffs = [a * x + b * y for x, y in zip(pc, nc)]
                nxt.append((coeffs, a * pr + b * nr))
        cur = nxt
    for coeffs, rhs in cur:
        if rhs < 0:
            return None
    point = [Fraction(0)] * n
    for v in range(n):
        lower = None
        upper = None
        for coeffs, rhs in stages[n - 1 - v]:
            cv = coeffs[v]
            if cv == 0:
                continue
            rest = sum(coeffs[j] * point[j] for j in range(v))
            bound = (rhs - rest) / cv
            if cv > 0:
                upper = bound if upper is None or bound < upper else upper
            else:
                lower = bound if lower is None or bound > lower else lower
        if lower is not None and upper is not None:
            point[v] = (lower + upper) / 2
        elif lower is not None:
            point[v] = lower
        elif upper is not None:
            point[v] = upper
    return point


def face_functional_fraction_rows(ws, subset):
    """The face LP with rational pairing rows from `rs.form`: r . xi = 1 on the
    subset and r . xi <= 1 on the other weights, solved by unpruned
    elimination. Returns the functional, or None when infeasible."""
    rs, n = ws.rs, ws.rs.rank
    rows = {b: [sum(rs.form[i][j] * b[j] for j in range(n)) for i in range(n)] for b in ws.weights}
    members = sorted({Weight(w) for w in subset})
    solved = solve_equalities_fraction([(rows[p], Fraction(1)) for p in members], n)
    if solved is None:
        return None
    particular, basis = solved
    others = [b for b in sorted(ws.weights) if b not in members]
    if not basis:
        if any(sum(r * x for r, x in zip(rows[b], particular)) > 1 for b in others):
            return None
        return tuple(particular)
    ineqs = []
    for b in others:
        shift = sum(r * p for r, p in zip(rows[b], particular))
        coeffs = [sum(r * v for r, v in zip(rows[b], vec)) for vec in basis]
        ineqs.append((coeffs, 1 - shift))
    y = fm_feasible_point_unpruned(ineqs, len(basis))
    if y is None:
        return None
    return tuple(
        p + sum(vec[i] * yi for vec, yi in zip(basis, y)) for i, p in enumerate(particular)
    )


def proper_faces_recursive(coords, members):
    """All proper nonempty faces of conv(members), as sets of member labels:
    the facets from a null-space normal per rank-sized subset of affine
    coordinates, then the faces of each facet, recursively. `coords` maps each
    label to a tuple of Fractions."""
    pts = [coords[i] for i in members]
    local = _affine_coords(pts)
    m = len(local[0])
    if m == 0:
        return set()
    facets = set()
    for combo in combinations(range(len(members)), m):
        rows = [list(local[i]) + [Fraction(-1)] for i in combo]
        basis = _nullspace(*_rref(rows, m + 1), m + 1)
        if len(basis) != 1:
            continue
        normal, offset = basis[0][:m], basis[0][m]
        vals = [sum(a * x for a, x in zip(normal, p)) - offset for p in local]
        if all(v <= 0 for v in vals) or all(v >= 0 for v in vals):
            facets.add(frozenset(members[i] for i, v in enumerate(vals) if v == 0))
    faces = set()
    for facet in facets:
        if facet not in faces:
            faces.add(facet)
            faces |= proper_faces_recursive(coords, tuple(sorted(facet)))
    return faces


def pair_row_fraction(ws, functional):
    """(pair_row, pair_den) of a functional: the row functional^T * form in
    Fraction arithmetic through `rs.form`, times the least common denominator
    of its entries, and that denominator."""
    row = [Fraction(sum(x * f for x, f in zip(functional, col))) for col in zip(*ws.rs.form)]
    den = lcm(*(c.denominator for c in row))
    return tuple(int(c * den) for c in row), den


def face_distance_fraction(face, mu, nu):
    """Face distance with the pairing in Fraction arithmetic through
    `pairing`: <functional, nu - mu> must be a positive integer d, and then
    nu - mu must be a sum of exactly d members of the subset."""
    if face.functional is None:
        raise FaceCertificateError("face subset carries no certificate")
    delta = Weight(nu) - Weight(mu)
    if not any(delta):
        return 0
    val = pairing(face.ws.rs, face.functional, delta)
    if val.denominator != 1 or val <= 0:
        return None
    d = int(val)
    return d if decomposable_dfs(delta, d, face.gens) else None


# Node memo of the depth-first search below: (delta, steps, generators) -> bool.
_DFS_MEMO: dict = {}


def decomposable_dfs(delta, steps, gens):
    """Is delta a sum of exactly `steps` generators (with repetition)? The
    depth-first search the face order used before its layered path search.

    An explicit stack, so the depth is not bounded by the recursion limit. A
    node (delta, steps) fails when delta leaves the box steps * [min, max] of
    the generator coordinates; otherwise its children delta - g are tried in
    generator order until one succeeds. Every node's value is memoized.
    """
    delta = tuple(delta)
    if steps <= 0:
        return steps == 0 and not any(delta)
    bounds = [(min(c), max(c)) for c in zip(*gens)]

    def settled(d, s):
        """The value of node (d, s) if known without expanding it, else None."""
        if s == 0:
            return not any(d)
        for x, (lo, hi) in zip(d, bounds):
            if not s * lo <= x <= s * hi:
                return False
        return _DFS_MEMO.get((d, s, gens))

    value = settled(delta, steps)
    if value is not None:
        return value
    stack = [[delta, steps, 0]]  # node plus the index of its next child
    while stack:
        frame = stack[-1]
        d, s, i = frame
        if value or i == len(gens):
            _DFS_MEMO[(d, s, gens)] = value = bool(value)
            stack.pop()
            continue
        frame[2] = i + 1
        child = tuple(map(sub, d, gens[i]))
        value = settled(child, s - 1)
        if value is None:
            stack.append([child, s - 1, 0])
    return value


def _layered_points_dfs(p, q, gens, reaches):
    """Dominant points on the paths from p up to q: a layer BFS that keeps a
    weight w only while reaches(w, k) says q is k steps above it."""
    d = q.degree - p.degree
    out = set()
    layer = {p.weight}
    for k in range(d + 1):
        out.update(GradedWeight(w, p.degree + k) for w in layer if w.is_dominant)
        if k == d:
            break
        remaining = d - k - 1
        layer = {w for w in {u + g for u in layer for g in gens} if reaches(w, remaining)}
    return out


def face_interval_dfs(face, p, q):
    """The face interval [p, q] as a set of points, empty when p is not below
    q: the forced length through the Fraction pairing, then one search per
    candidate weight."""
    if face_distance_fraction(face, p.weight, q.weight) != q.degree - p.degree:
        return set()
    return _layered_points_dfs(
        p, q, face.gens, lambda w, k: face_distance_fraction(face, w, q.weight) == k)


def coarse_interval_dfs(gens, p, q):
    """The interval [p, q] in steps through gens, empty when p is not below q."""
    if not decomposable_dfs(Weight(q.weight) - p.weight, q.degree - p.degree, gens):
        return set()
    return _layered_points_dfs(
        p, q, gens, lambda w, k: decomposable_dfs(Weight(q.weight) - w, k, gens))
