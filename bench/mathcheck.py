"""The benchmark's own exact arithmetic, written apart from facekoszul.

Every correctness check of the benchmark goes through this module: Cartan
matrices typed in from Bourbaki's tables, positive roots by root strings,
simple reflections, the Weyl dimension product, the Brauer-Klimyk sum over a
brute-force multiset expansion of exterior and symmetric powers, pairings
through the invariant form, affine ranks, and the face order on graded
points by brute-force generator sums. Nothing here imports facekoszul.

Conventions: a weight is a tuple of integers in the fundamental-weight basis;
`a[i][j]` is <alpha_j, alpha_i^vee>, so coordinate i of alpha_j is a[i][j];
`d[i]` is (alpha_i, alpha_i) / 2 in the normalisation where the shortest
simple root has d = 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement


def _chain(n):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan(name: str):
    """(a, d) for a series name such as 'B4'."""
    letter, n = name[0].upper(), int(name[1:])
    a = _chain(n)
    d = [1] * n
    if letter == "B":
        a[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        a[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif letter == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif letter == "E":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        links = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)][: n - 1]
        for i, j in links:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    elif letter == "F":
        a[2][1] = -2
        d = [2, 2, 1, 1]
    elif letter == "G":
        a = [[2, -3], [-1, 2]]
        d = [1, 3]
    elif letter != "A":
        raise ValueError(f"unknown series {name!r}")
    return tuple(tuple(r) for r in a), tuple(d)


class Lie:
    """Root data of one simple type, computed from the Cartan matrix alone."""

    def __init__(self, name: str):
        self.a, self.d = cartan(name)
        self.rank = n = len(self.a)
        self.simple = tuple(tuple(self.a[i][j] for i in range(n)) for j in range(n))
        self.pos_root_coords = self._positive_roots()
        self.pos_roots = tuple(self.from_root_coords(c) for c in self.pos_root_coords)
        self.rho = (1,) * n
        self._ainv = _inverse([[Fraction(x) for x in row] for row in self.a])
        self._coords: dict = {}

    def _positive_roots(self):
        n, a = self.rank, self.a
        layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        found = set(layer)
        out = list(layer)
        while layer:
            nxt = []
            for c in layer:
                for i in range(n):
                    pair = sum(c[j] * a[i][j] for j in range(n))
                    p, down = 0, list(c)
                    while True:
                        down[i] -= 1
                        if tuple(down) not in found:
                            break
                        p += 1
                    if p - pair > 0:
                        up = tuple(c[j] + (j == i) for j in range(n))
                        if up not in found:
                            found.add(up)
                            nxt.append(up)
                            out.append(up)
            layer = nxt
        return tuple(out)

    def from_root_coords(self, c):
        return tuple(sum(self.a[i][j] * c[j] for j in range(self.rank)) for i in range(self.rank))

    def root_coords(self, w):
        c = self._coords.get(w)
        if c is None:
            n = self.rank
            c = self._coords[w] = tuple(sum(self._ainv[i][j] * w[j] for j in range(n))
                                        for i in range(n))
        return c

    def pair(self, x, w) -> Fraction:
        """(x, w) through the invariant form, both in fundamental-weight coordinates."""
        return sum(ci * di * xi for ci, di, xi in zip(self.root_coords(tuple(w)), self.d, x))

    def weyl_dim(self, lam) -> int:
        num = den = 1
        for c in self.pos_root_coords:
            num *= sum(cj * dj * (lj + 1) for cj, dj, lj in zip(c, self.d, lam))
            den *= sum(cj * dj for cj, dj in zip(c, self.d))
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("Weyl product was not an integer")
        return q

    def reflect(self, w, i):
        k = w[i]
        return tuple(x - k * s for x, s in zip(w, self.simple[i]))

    def dominant(self, w):
        """(dominant W-conjugate, sign of the word used, regular?)."""
        sign = 1
        while True:
            i = next((k for k, x in enumerate(w) if x < 0), None)
            if i is None:
                return w, sign, all(x > 0 for x in w)
            w = self.reflect(w, i)
            sign = -sign

    def orbit(self, lam):
        seen, todo = {tuple(lam)}, [tuple(lam)]
        while todo:
            w = todo.pop()
            for i in range(self.rank):
                v = self.reflect(w, i)
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    def adjoint_weights(self) -> dict:
        out = {r: 1 for r in self.pos_roots}
        out.update({tuple(-x for x in r): 1 for r in self.pos_roots})
        out[(0,) * self.rank] = self.rank
        return out

    def minuscule_weights(self, lam) -> dict:
        orb = self.orbit(lam)
        if len(orb) != self.weyl_dim(lam):
            raise ValueError(f"{lam} is not minuscule")
        return {w: 1 for w in orb}


@lru_cache(maxsize=None)
def lie(name: str) -> Lie:
    return Lie(name)


def _inverse(m):
    n = len(m)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def affine_rank(points) -> int:
    """Dimension of the affine hull of a finite set of integer vectors."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    rows = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    ncol = len(pts[0])
    for col in range(ncol):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


# Brauer-Klimyk: mult of V(nu) in M (x) V(lam) is the signed count of weights
# mu of M with w(mu + lam + rho) = nu + rho for a Weyl element w.


@lru_cache(maxsize=None)
def power_weights(name: str, weights: tuple, j: int, kind: str) -> tuple:
    """Weights of the j-th exterior ('ext') or symmetric ('sym') power, with
    multiplicity, by expanding every j-subset or j-multiset of the weight list."""
    flat = [w for w, m in weights for _ in range(m)]
    pick = combinations if kind == "ext" else combinations_with_replacement
    zero = (0,) * len(flat[0])
    acc: Counter = Counter()
    for combo in pick(range(len(flat)), j):
        s = zero
        for k in combo:
            s = add(s, flat[k])
        acc[s] += 1
    return tuple(acc.items())


def brauer_klimyk(name: str, weights: tuple, j: int, kind: str, lam, nu) -> int:
    L = lie(name)
    target = add(nu, L.rho)
    shift = add(lam, L.rho)
    total = 0
    for mu, m in power_weights(name, weights, j, kind):
        dom, sign, regular = L.dominant(add(mu, shift))
        if regular and dom == target:
            total += sign * m
    return total


# The face order by brute force: nu - mu must be a sum of exactly `steps`
# generators. Exact lengths are forced on a face, so this is the whole test.


@lru_cache(maxsize=None)
def gen_sums(gens: tuple, steps: int) -> frozenset:
    zero = (0,) * len(gens[0])
    out = set()
    for combo in combinations_with_replacement(gens, steps):
        s = zero
        for g in combo:
            s = add(s, g)
        out.add(s)
    return frozenset(out)


def face_leq(gens, p, q) -> bool:
    """p = (weight, degree) lies below q in the face order of the generators."""
    steps = q[1] - p[1]
    return steps >= 0 and sub(q[0], p[0]) in gen_sums(tuple(gens), steps)


def interval_points(gens, p, q) -> set:
    """Dominant graded points between p and q."""
    out = set()
    steps = q[1] - p[1]
    for k in range(steps + 1):
        for s in gen_sums(tuple(gens), k):
            w = add(p[0], s)
            if min(w) >= 0 and sub(q[0], w) in gen_sums(tuple(gens), steps - k):
                out.add((w, p[1] + k))
    return out


def downset_points(gens, q, depth) -> set:
    out = {q}
    for k in range(1, depth + 1):
        for s in gen_sums(tuple(gens), k):
            w = sub(q[0], s)
            if min(w) >= 0:
                out.add((w, q[1] - k))
    return out


def interval_closed(gens, points) -> bool:
    pts = set(points)
    for p in pts:
        for q in pts:
            if p[1] < q[1] and face_leq(gens, p, q) and not interval_points(gens, p, q) <= pts:
                return False
    return True
