"""The four workloads: seeded inputs, timed operations, and their checks.

A workload is a list of operations run as whole rounds: the same operations in
the same order every round, so counts per round repeat exactly. Each
operation has a `run` (the timed call into facekoszul) and a `check` (outside
the timed span) that compares the result with the benchmark's own arithmetic
in `mathcheck`. `mutate` turns a result into a wrong one that the check must
reject; the worker tries it once per run, so a check that cannot fail shows.

Calls go through module attributes at call time (`fk.full_report`, ...), so
that a traced run sees the wrappers `tracer` installs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import facekoszul as fk
import mathcheck as M
from facekoszul import characters, facegeom, homdims, weightposet

# The in-process memos, captured before a traced run wraps any of them.
_LRU = [homdims._module_char, homdims._power_char, homdims._constituents,
        facegeom._decompositions_by_sum]


def clear_memos() -> None:
    characters._MEMO.clear()
    weightposet._DP.clear()
    for fn in _LRU:
        fn.cache_clear()


class CheckError(AssertionError):
    pass


def need(cond, what: str) -> None:
    if not cond:
        raise CheckError(what)


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


@dataclass
class Op:
    kind: str
    run: object                # () -> result; the timed call
    check: object              # (result, full) -> None; raises CheckError
    cold: bool = False         # clear every memo just before this op
    mutate: object = None      # result -> a wrong result the check must reject


@dataclass
class Plan:
    ops: list
    prepare_round: object = clear_memos
    warmup: list = field(default_factory=list)   # untimed ops at the start of each round


# -- fixtures -----------------------------------------------------------------


class Fixture:
    """A weight system with a face subset, built by facekoszul during set-up
    and compared there with the benchmark's own weight list."""

    def __init__(self, type_, spec, face):
        self.type, self.spec, self.gens = type_, spec, tuple(sorted(face))

    def build(self):
        L = self.L = M.lie(self.type)
        if self.spec == "adjoint":
            summands = ((max(L.pos_roots, key=lambda r: sum(L.root_coords(r))), 1),)
            own = L.adjoint_weights()
        else:
            summands, own = self.spec, {}
            for lam, m in summands:
                for w, k in L.minuscule_weights(lam).items():
                    own[w] = own.get(w, 0) + k * m
        self.rs = fk.root_system(self.type)
        spec = fk.ModuleSpec(tuple((fk.Weight(w), m) for w, m in summands))
        self.ws = fk.weight_system(self.rs, spec)
        need({tuple(w): m for w, m in self.ws.weights.items()} == own,
             f"{self.type}: weight system differs from the Weyl-orbit count")
        self.own, self.own_items = own, tuple(sorted(own.items()))
        self.face_obj = None
        if self.gens:
            self.face_obj = fk.lies_on_proper_face(self.ws, [fk.Weight(g) for g in self.gens])
            need(self.face_obj is not None, f"{self.type}: fixture subset is not a face")
            check_certificate(L, own, self.gens, self.face_obj.functional)
        self.total_mult = sum(own[g] for g in self.gens)
        return self

    def pair_rows(self):
        """Integer rows r_w with (xi, w) = r_w . xi up to one positive scale."""
        if not hasattr(self, "_rows"):
            coords = {w: self.L.root_coords(w) for w in self.own}
            scale = math.lcm(*(c.denominator for cs in coords.values() for c in cs))
            self._rows = {w: tuple(int(c * d * scale) for c, d in zip(cs, self.L.d))
                          for w, cs in coords.items()}
        return self._rows


FIXTURES = {
    # the five standing fixtures of the test suite
    "A1v": ("A1", "adjoint", ((2,),)),
    "A2v": ("A2", "adjoint", ((1, 1),)),
    "A2e": ("A2", "adjoint", ((2, -1), (1, 1))),
    "C2v": ("C2", "adjoint", ((2, 0),)),
    "A2f": ("A2", (((1, 0), 1), ((0, 1), 1)), ((1, 0),)),
    # adjoint highest-root vertices beyond them
    "B2v": ("B2", "adjoint", ((0, 2),)),
    "G2v": ("G2", "adjoint", ((0, 1),)),
    "A3v": ("A3", "adjoint", ((1, 0, 1),)),
}


def fixture(key):
    return Fixture(*FIXTURES[key]).build()


def composition(rng, total: int, parts: int):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def mirror(w):
    """The diagram automorphism of A_n: reverse the coordinates."""
    return tuple(reversed(w))


def mirrored(key: str) -> Fixture:
    """The image of an A-type fixture under the diagram automorphism, which
    maps each module used here to itself: the Koszul work on mirrored inputs
    is the same computation in permuted coordinates."""
    type_, spec, gens = FIXTURES[key]
    if spec != "adjoint":
        spec = tuple((mirror(lam), m) for lam, m in spec)
    return Fixture(type_, spec, tuple(mirror(g) for g in gens)).build()


def endpoints(fx, rng, gap: int, mu_sum: int):
    """A comparable pair (lo, hi) at the given degree gap: lo's weight has
    coordinate sum `mu_sum`; hi adds `gap` face generators, split as evenly
    as the generators allow."""
    for _ in range(1000):
        mu = composition(rng, mu_sum, len(fx.gens[0]))
        counts = [gap // len(fx.gens)] * len(fx.gens)
        for k in rng.sample(range(len(fx.gens)), gap - sum(counts)):
            counts[k] += 1
        nu = mu
        for g, c in zip(fx.gens, counts):
            nu = M.add(nu, tuple(c * x for x in g))
        if min(nu) >= 0:
            r0 = rng.randint(-2, 2)
            return (mu, r0), (nu, r0 + gap)
    raise RuntimeError("no dominant endpoint found")


class Slots:
    """Fixed Koszul slots whose seeded inputs differ only by the diagram
    automorphism (A types) and a degree shift: distinct intervals, same work."""

    def __init__(self, rng):
        self.rng = rng
        self.built = {}

    def __call__(self, key, mu, counts):
        """(fixture, lo, hi): hi adds counts[k] copies of the k-th generator."""
        nu = mu
        for g, c in zip(sorted(FIXTURES[key][2]), counts):
            nu = M.add(nu, tuple(c * x for x in g))
        need(min(nu) >= 0, f"slot endpoint {nu} is not dominant")
        flip = FIXTURES[key][0][0] == "A" and len(mu) > 1 and self.rng.random() < 0.5
        if (key, flip) not in self.built:
            self.built[key, flip] = mirrored(key) if flip else fixture(key)
        if flip:
            mu, nu = mirror(mu), mirror(nu)
        r0 = self.rng.randint(-3, 3)
        return self.built[key, flip], (mu, r0), (nu, r0 + sum(counts))


def gw(p):
    return fk.GradedWeight(fk.Weight(p[0]), p[1])


def pt(p):
    return (tuple(p.weight), p.degree)


def fmt(w) -> str:
    return ",".join(map(str, w))


# -- checks ---------------------------------------------------------------------


def check_certificate(L, own, members, functional) -> None:
    """The functional equals 1 on the members and is at most 1 on wt(V)."""
    xi = tuple(Fraction(x) for x in functional)
    for w in members:
        need(L.pair(xi, w) == 1, f"certificate is not 1 on {w}")
    for w in own:
        need(L.pair(xi, w) <= 1, f"certificate exceeds 1 on {w}")


def check_full_face(L, own, members, functional) -> None:
    """A certified face that is all of wt(V) where the functional reaches 1."""
    check_certificate(L, own, members, functional)
    xi = tuple(Fraction(x) for x in functional)
    need({w for w in own if L.pair(xi, w) == 1} == set(members), "face is not a full face")


def non_face_proof(own, members) -> bool:
    """Two members whose sum is a weight: a functional equal to 1 on both
    would be 2 on that weight, so no proper face holds them."""
    ms = sorted(members)
    return any(M.add(u, v) in own for i, u in enumerate(ms) for v in ms[i + 1:])


def check_koszul(fx, obj, rng, full: bool) -> None:
    """A Koszul report as JSON: verdict, unitriangular monomial matrices, the
    product identity recomputed, the global-dimension bound, the witness, and
    (full) the interval and sampled entries against Brauer-Klimyk."""
    need(obj["koszul"]["passed"] is True, "Koszul verdict did not pass")
    index = [(tuple(w), r) for w, r in obj["gamma"]]
    mats = []
    for key in ("hilbert_projective", "hilbert_yoneda_neg"):
        m = obj[key]
        need([(tuple(w), r) for w, r in m["index"]] == index, f"{key}: index differs from gamma")
        coef = []
        for i, row in enumerate(m["entries"]):
            crow = []
            for j, e in enumerate(row):
                gap = index[i][1] - index[j][1]
                if i == j:
                    need(e == [1], f"{key}: diagonal entry {e}")
                elif j > i:
                    need(e == [], f"{key}: entry above the diagonal")
                elif e:
                    need(len(e) == gap + 1 and not any(e[:-1]), f"{key}: entry {e} is not a t^{gap} term")
                crow.append(e[-1] if e else 0)
            coef.append(crow)
        mats.append(coef)
    hp, hy = mats
    n = len(index)
    for i in range(n):
        for j in range(i + 1):
            s = sum(hy[i][k] * hp[k][j] for k in range(j, i + 1))
            need(s == (i == j), f"E(-t)H(t) differs from I at ({i},{j})")
    need(obj["total_mult"] == fx.total_mult, "total_mult differs from the summed multiplicities")
    need(obj["gldim"] <= obj["total_mult"], "gldim exceeds total_mult")
    if obj.get("witness") is not None:
        need(obj["witness"]["gldim_star"] == fx.total_mult, "witness interval misses the bound")
    if not full:
        return
    need(set(index) == M.interval_points(fx.gens, index[0], index[-1]), "interval points differ")
    pairs = [(i, j) for i in range(n) for j in range(i) if index[i][1] > index[j][1]]
    for i, j in rng.sample(pairs, min(2, len(pairs))):
        row, col = index[i], index[j]
        gap = row[1] - col[1]
        leq = M.face_leq(fx.gens, col, row)
        for mat, kind, sign in ((hp, "sym", 1), (hy, "ext", (-1) ** gap)):
            want = sign * M.brauer_klimyk(fx.type, fx.own_items, gap, kind, col[0], row[0]) if leq else 0
            need(mat[i][j] == want, f"{kind} entry {col}->{row}: {mat[i][j]} != {want}")


def perturb_report(obj):
    """A copy of a Koszul report with its bottom-left Hilbert entry off by one."""
    bad = json.loads(json.dumps(obj))
    entries = bad["hilbert_projective"]["entries"]
    i = len(entries) - 1
    gap = bad["gamma"][i][1] - bad["gamma"][0][1]
    e = entries[i][0] or [0] * (gap + 1)
    entries[i][0] = e[:-1] + [e[-1] + 1]
    return bad


def as_obj(report):
    return report if isinstance(report, dict) else report.to_json_obj()


# -- koszul-fresh ---------------------------------------------------------------

# (fixture, lower weight, generator counts, with witness); a round is 76
# reports of 2 to 17 points, each from empty memos. Two lower weights per
# shape keep the latency distribution dense around its median and 90th
# percentile, so those quantiles do not jump between a few reports.
FRESH_SLOTS = (
    [("A1v", (m,), (g,), w) for m, g, w in ((1, 2, False), (2, 3, False), (2, 4, True),
                                           (0, 5, False), (1, 6, False), (3, 6, False),
                                           (0, 8, False), (1, 8, False))]
    + [("A2v", mu, (g,), w) for mu, g, w in (((1, 0), 2, False), ((0, 1), 2, False),
                                            ((0, 1), 3, True), ((1, 0), 3, False),
                                            ((1, 1), 3, False), ((2, 1), 3, False),
                                            ((2, 0), 4, False), ((0, 2), 4, False),
                                            ((1, 0), 5, False), ((0, 1), 5, False),
                                            ((0, 0), 6, False), ((1, 1), 5, False))]
    + [("A2e", mu, c, w) for mu, c, w in (((1, 1), (1, 1), True), ((2, 0), (1, 1), False),
                                         ((0, 1), (1, 2), False), ((1, 1), (1, 2), False),
                                         ((1, 0), (2, 1), False), ((0, 0), (2, 1), False),
                                         ((1, 1), (2, 2), False), ((0, 1), (2, 2), False),
                                         ((0, 2), (2, 2), False), ((2, 0), (2, 2), False))]
    + [("C2v", mu, (g,), w) for mu, g, w in (((1, 1), 2, False), ((0, 1), 2, False),
                                            ((0, 1), 3, True), ((1, 0), 3, False),
                                            ((1, 0), 4, False), ((0, 1), 4, False),
                                            ((0, 0), 4, False), ((1, 1), 3, False),
                                            ((1, 0), 5, False), ((0, 0), 5, False),
                                            ((0, 2), 3, False), ((2, 0), 4, False))]
    + [("A2f", mu, (g,), w) for mu, g, w in (((1, 1), 3, False), ((1, 0), 3, False),
                                            ((0, 2), 4, False), ((2, 0), 4, False),
                                            ((2, 0), 5, True), ((0, 1), 5, False),
                                            ((1, 0), 6, False), ((0, 1), 6, False),
                                            ((0, 0), 6, False), ((1, 1), 4, False))]
    + [("B2v", mu, (g,), w) for mu, g, w in (((1, 0), 3, True), ((0, 1), 3, False),
                                            ((0, 1), 4, False), ((1, 0), 4, False),
                                            ((0, 0), 4, False), ((0, 0), 5, False),
                                            ((0, 1), 5, False), ((1, 1), 3, False),
                                            ((1, 0), 5, False), ((0, 0), 6, False))]
    + [("G2v", mu, (g,), w) for mu, g, w in (((1, 0), 2, True), ((0, 0), 2, False),
                                            ((0, 1), 2, False), ((0, 0), 3, False),
                                            ((0, 1), 3, False), ((1, 0), 3, False),
                                            ((1, 1), 2, False), ((0, 2), 2, False))]
    + [("A3v", mu, (g,), w) for mu, g, w in (((0, 1, 0), 2, True), ((1, 0, 0), 2, False),
                                            ((0, 0, 0), 3, False), ((1, 0, 0), 3, False),
                                            ((0, 0, 0), 2, False), ((0, 1, 0), 3, False))]
)


def report_op(fx, lo, hi, witness: bool, rng, cold: bool) -> Op:
    face, p, q = fx.face_obj, gw(lo), gw(hi)

    def run():
        return fk.full_report(face, fk.face_interval(face, p, q), with_witness=witness)

    def check(report, full):
        check_koszul(fx, as_obj(report), rng, full)

    return Op("report", run, check, cold=cold, mutate=lambda r: perturb_report(as_obj(r)))


def koszul_fresh(seed: int) -> Plan:
    rng = random.Random(seed)
    slots = Slots(rng)
    ops = []
    for key, mu, counts, witness in FRESH_SLOTS:
        fx, lo, hi = slots(key, mu, counts)
        ops.append(report_op(fx, lo, hi, witness, random.Random(rng.random()), True))
    rng.shuffle(ops)
    return Plan(ops)


# -- koszul-overlap -------------------------------------------------------------

# Two large intervals on the A2 adjoint edge (19 and 27 points). Each round
# clears the memos and reports them, untimed, to fill the memos; the timed
# reports are sub-intervals and degree shifts of them, which reuse that work.
OVERLAP_BIG = (("A2e", (0, 1), (4, 4)), ("A2e", (0, 2), (4, 5)))
OVERLAP_SHIFTS = 6


def koszul_overlap(seed: int) -> Plan:
    """Timed: every sub-interval of a large interval that takes at least three
    steps and uses both generators (84 of them), each at its own degrees and
    shifted, plus degree shifts of the large intervals."""
    rng = random.Random(seed)
    slots = Slots(rng)
    bigs = [slots(*big) for big in OVERLAP_BIG]
    fill = [report_op(fx, lo, hi, False, random.Random(rng.random()), False)
            for fx, lo, hi in bigs]
    warm = []
    for fx, lo, hi in bigs:
        pts = sorted(M.interval_points(fx.gens, lo, hi))
        for p in pts:
            for q in pts:
                steps = q[1] - p[1]
                diff = M.sub(q[0], p[0])
                if steps >= 3 and M.face_leq(fx.gens, p, q) and \
                        all(diff != tuple(steps * x for x in g) for g in fx.gens):
                    r = rng.choice((-3, -2, -1, 1, 2, 3))
                    warm += [(fx, p, q), (fx, (p[0], p[1] + r), (q[0], q[1] + r))]
    for k in range(OVERLAP_SHIFTS):
        fx, lo, hi = bigs[k % len(bigs)]
        r = rng.choice((-3, -2, -1, 1, 2, 3))
        warm.append((fx, (lo[0], lo[1] + r), (hi[0], hi[1] + r)))
    rng.shuffle(warm)
    ops = [report_op(fx, p, q, False, random.Random(rng.random()), False) for fx, p, q in warm]
    return Plan(ops, warmup=fill)


# -- geometry -------------------------------------------------------------------

LP_TYPES = ("A3", "B3", "C3", "A4", "D4")
LP_PER_TYPE = 60
# Single weights where Fourier-Motzkin blows up (about 2.5 s and 3.3 s).
HEAVY_LP = (("B4", (-2, 1, 0, 0)), ("C4", (-1, -1, 1, 0)))
ENUM_TYPES = ("A3", "B3", "C3")
F_VECTORS = {"A2": (6, 6), "B2": (4, 4), "C2": (4, 4), "G2": (6, 6),
             "A3": (12, 24, 14), "B3": (12, 24, 14), "C3": (6, 12, 8)}
RIGID_TYPES = ("A2", "B2", "C2", "G2")
RIGID_BOUND = 3
POSET_FIXTURES = ("A2e", "A2v", "C2v", "B2v", "G2v")
# The named fault: face distance 2000 on the A1 adjoint, from a cold memo.
# weightposet._decomposable recurses once per step and raises RecursionError.
DEEP_DISTANCE = 2000


def maximisers(fx, xi) -> list:
    """The weights of V where the functional xi (fundamental-weight
    coordinates, paired through the invariant form) is largest."""
    vals = {w: sum(x * r for x, r in zip(xi, row)) for w, row in fx.pair_rows().items()}
    top = max(vals.values())
    return sorted(w for w, v in vals.items() if v == top)


def face_subset(fx, rng, whole=False, size=None):
    """Members of the maximiser set of a random functional: a face by
    construction. `whole` takes the full maximiser set, which is rigid;
    otherwise `size` members (drawing functionals until the set is that
    large), or 1 to 3 at random."""
    size = size or rng.randint(1, 3)
    for _ in range(10000):
        xi = tuple(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(fx.L.rank))
        if not any(xi):
            continue
        tops = maximisers(fx, xi)
        if whole:
            return tops
        if len(tops) >= size:
            return rng.sample(tops, size)
    raise RuntimeError(f"no face with {size} weights found")


def non_face_subset(fx, rng, extra=None):
    """Two roots whose sum is a weight, plus `extra` (or 0 to 2) more weights."""
    nonzero = sorted(w for w in fx.own if any(w))
    while True:
        u, v = rng.sample(nonzero, 2)
        if M.add(u, v) in fx.own:
            break
    extra = rng.randint(0, 2) if extra is None else extra
    return [u, v] + rng.sample([w for w in nonzero if w not in (u, v)], extra)


def lp_op(fx, members, is_face: bool) -> Op:
    ws, sub = fx.ws, [fk.Weight(w) for w in members]

    def run():
        return fk.lies_on_proper_face(ws, sub)

    def check(face, full):
        if face is None:
            need(not is_face and non_face_proof(fx.own, members), f"face {members} rejected")
            return
        need(is_face, f"non-face {members} accepted")
        check_certificate(fx.L, fx.own, members, face.functional)

    def mutate(face):
        if face is None:
            return SimpleNamespace(functional=(Fraction(0),) * fx.L.rank)
        return SimpleNamespace(functional=tuple(2 * x for x in face.functional))

    return Op("lp", run, check, mutate=mutate)


def enum_op(fx) -> Op:
    def run():
        return fk.enumerate_face_subsets(fx.ws)

    def check(faces, full):
        f = [0] * fx.L.rank
        for face in faces:
            members = [tuple(w) for w in face.gens]
            f[M.affine_rank(members)] += 1
            if full:
                check_full_face(fx.L, fx.own, members, face.functional)
        need(tuple(f) == F_VECTORS[fx.type], f"{fx.type} f-vector {f}")
        need(sum((-1) ** k * n for k, n in enumerate(f)) == 1 + (-1) ** (fx.L.rank - 1),
             "Euler's relation fails")

    return Op("enum", run, check)


def rigid_op(fx, members, is_face: bool) -> Op:
    ws, sub = fx.ws, [fk.Weight(w) for w in members]

    def run():
        return fk.is_rigid_bruteforce(ws, sub, RIGID_BOUND)

    def check(verdict, full):
        need(verdict.ok == is_face, f"rigidity verdict {verdict.ok} on {members}")
        if not is_face:
            inside, other = ({tuple(w): c for w, c in d.items()} for d in verdict.witness)
            total = lambda d: tuple(sum(c * w[i] for w, c in d.items()) for i in range(fx.L.rank))  # noqa: E731
            need(total(inside) == total(other), "witness decompositions differ in sum")
            need(set(inside) <= set(members), "witness leaves the subset")
            li, lo = sum(inside.values()), sum(other.values())
            need(li > lo or (li == lo and not set(other) <= set(members)), "witness is no violation")

    return Op("rigid", run, check)


def poset_ops(fx, rng) -> list:
    face = fx.face_obj
    lo, hi = endpoints(fx, rng, rng.randint(3, 5), rng.randint(0, 3))
    p, q = gw(lo), gw(hi)
    own = M.interval_points(fx.gens, lo, hi)
    top, depth = endpoints(fx, rng, 4, rng.randint(2, 4))[1], 3
    inner = sorted(x for x in own if x not in (lo, hi))
    holed = own - {rng.choice(inner)} if inner else own
    closed_pts = [gw(x) for x in sorted(own)], [gw(x) for x in sorted(holed)]
    want_closed = M.interval_closed(fx.gens, own), M.interval_closed(fx.gens, holed)

    def check_points(want):
        return lambda gs, full: need({pt(x) for x in gs.points} == want, "point set differs")

    def closed_op(k):
        def check(res, full):
            need(res == want_closed[k], f"interval-closedness {res}")
        return Op("closed", lambda: fk.is_interval_closed(face, closed_pts[k]), check)

    return [
        Op("interval", lambda: fk.face_interval(face, p, q), check_points(own)),
        Op("downset", lambda: fk.face_downset(face, gw(top), depth),
           check_points(M.downset_points(fx.gens, top, depth))),
        closed_op(0),
        closed_op(1),
        Op("coincidence", lambda: fk.interval_coincidence(face, p, q),
           lambda res, full: need(res is True, "face and coarse intervals differ")),
    ]


def deep_distance_op(fx) -> Op:
    face = fx.face_obj
    nu = fk.Weight((2 * DEEP_DISTANCE,))
    zero = fk.Weight((0,))

    def check(d, full):
        need(d == DEEP_DISTANCE, f"face distance {d}")

    return Op("deep-distance", lambda: fk.face_distance(face, zero, nu), check, cold=True)


def geometry(seed: int) -> Plan:
    rng = random.Random(seed)
    adj = {t: Fixture(t, "adjoint", ()).build()
           for t in sorted(set(LP_TYPES + ENUM_TYPES + RIGID_TYPES))}
    ops = []
    for t in LP_TYPES:
        for k in range(LP_PER_TYPE):
            # alternate faces and non-faces; cycle the subset sizes
            if k % 2 == 0:
                ops.append(lp_op(adj[t], face_subset(adj[t], rng, size=k // 2 % 3 + 1), True))
            else:
                ops.append(lp_op(adj[t], non_face_subset(adj[t], rng, extra=k // 2 % 3), False))
    for t, w in HEAVY_LP:
        fx = Fixture(t, "adjoint", ()).build()
        need(w in maximisers(fx, w), f"{t} {w} is not where its own direction peaks")
        ops.append(lp_op(fx, [w], True))
    ops += [enum_op(adj[t]) for t in ENUM_TYPES]
    for t in RIGID_TYPES:
        ops.append(rigid_op(adj[t], face_subset(adj[t], rng, whole=True), True))
    for t in rng.sample(RIGID_TYPES, 2):
        ops.append(rigid_op(adj[t], non_face_subset(adj[t], rng), False))
    for key in POSET_FIXTURES[:3]:
        ops += poset_ops(fixture(key), rng)
    for key in POSET_FIXTURES[3:]:
        ops += poset_ops(fixture(key), rng)[:3]
    rng.shuffle(ops)
    ops.append(deep_distance_op(fixture("A1v")))
    return Plan(ops)


# -- cli ------------------------------------------------------------------------

E_ADJOINTS = (("E6", (0, 1, 0, 0, 0, 0), 78), ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
              ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248), ("F4", (1, 0, 0, 0), 52))
E_SMALL = (("E6", (1, 0, 0, 0, 0, 0)), ("F4", (0, 0, 0, 1)))
SUBCOMMANDS = ("roots", "character", "weights", "faces", "rigid", "interval", "gldim",
               "witness", "koszul")
# small adjoint intervals for `koszul --witness`: (fixture, lower weight, counts)
CLI_KOSZUL = (("A1v", (1,), (2,)), ("A2v", (1, 0), (2,)), ("A2v", (0, 1), (3,)),
              ("A2v", (1, 1), (3,)), ("A2e", (1, 1), (1, 1)), ("A2e", (0, 1), (1, 2)),
              ("A2e", (1, 0), (2, 1)), ("C2v", (1, 1), (2,)), ("C2v", (0, 1), (3,)),
              ("B2v", (1, 0), (3,)), ("G2v", (1, 0), (2,)), ("G2v", (0, 0), (3,)),
              ("G2v", (0, 1), (3,)), ("G2v", (1, 0), (3,)))


class CliRunner:
    """Runs `python -m facekoszul --json` one child at a time against a cache
    directory made fresh for each round, inside a work directory of this run.
    With `trace_dir` set (inside the work directory), children run under the
    benchmark's tracing shim and leave their spans there."""

    def __init__(self, root: str, work: str | None = None):
        self.root = root
        self.work = work or os.path.join(root, "bench", "out", f"cli-{os.getpid()}")
        self.cache = os.path.join(self.work, "cache")
        self.trace_dir = None
        self.traces: list[str] = []
        self.children = 0
        self.out_bytes = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONDONTWRITEBYTECODE="1", FACEKOSZUL_CACHE_DIR=self.cache,
                        XDG_CACHE_HOME=self.cache)

    def fresh_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def cache_bytes(self) -> int:
        path = os.path.join(self.cache, "characters.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def __call__(self, argv):
        cmd = [sys.executable]
        if self.trace_dir is None:
            cmd += ["-m", "facekoszul"]
        else:
            out = os.path.join(self.trace_dir, f"child-{self.children}.json.gz")
            self.traces.append(out)
            cmd += [os.path.join(self.root, "bench", "clishim.py"), out]
        self.children += 1
        cmd += ["--json", "--cache-dir", self.cache] + argv
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, cwd=self.root)
        self.out_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout, proc.stderr


def parse_cli(res):
    rc, out, err = res
    need(rc == 0, f"exit code {rc}: {err.decode(errors='replace')[-300:]}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def cli_ops(runner, argv, check_obj, mutate_obj=None) -> list:
    def check(res, full):
        check_obj(parse_cli(res) if isinstance(res, tuple) else res, full)

    def mutate(res):
        return mutate_obj(parse_cli(res))

    return [Op(f"{argv[0]}-{state}", lambda: runner(argv), check,
               mutate=mutate if mutate_obj else None)
            for state in ("cold", "warm")]


def check_character(type_, lam, dim=None):
    L = M.lie(type_)

    def check(obj, full):
        want = L.weyl_dim(lam)
        need(dim is None or want == dim, f"{type_} dimension table")
        need(obj["dimension"] == want, f"{type_} {lam}: dimension {obj['dimension']} != {want}")
        need(sum(m for _, m in obj["weights"]) == want, "multiplicities do not sum to the dimension")
        need([tuple(lam), 1] in [[tuple(w), m] for w, m in obj["weights"]], "highest weight missing")

    return check


def bump_dimension(obj):
    return dict(obj, dimension=obj["dimension"] + 1)


def cli(seed: int, runner) -> Plan:
    rng = random.Random(seed)
    ops = []

    def add(argv, check, mutate=None):
        ops.extend(cli_ops(runner, argv, check, mutate))

    for t in rng.sample(("A2", "B2", "C2", "G2", "A3", "B3"), 2) + ["E8"]:
        L = M.lie(t)
        add(["roots", t], lambda obj, full, L=L: need(
            {tuple(r) for r in obj["positive_roots"]} == set(L.pos_roots), "positive roots differ"))
    for t, lam, dim in E_ADJOINTS:
        add(["character", t, fmt(lam)], check_character(t, lam, dim), bump_dimension)
    for t, lam in E_SMALL:
        add(["character", t, fmt(lam)], check_character(t, lam))
    for t in rng.sample(("A2", "B2", "C2", "G2", "A3", "B3"), 3):
        lam = composition(rng, rng.randint(1, 3), int(t[1]))
        add(["character", t, fmt(lam)], check_character(t, lam))
    for t in rng.sample(RIGID_TYPES, 2):
        L = M.lie(t)
        add(["weights", t, "adjoint"], lambda obj, full, L=L: need(
            {tuple(w): m for w, m in obj["weights"]} == L.adjoint_weights(), "weights differ"))
    for t in (rng.choice(RIGID_TYPES), "A3"):
        add(["faces", t, "adjoint"], check_faces_obj(t))
    for is_face in (True, False):
        fx = Fixture(rng.choice(RIGID_TYPES), "adjoint", ()).build()
        members = face_subset(fx, rng, True) if is_face else non_face_subset(fx, rng)
        add(["rigid", fx.type, "adjoint", "--face=" + ";".join(map(fmt, members)),
             "--bound", str(RIGID_BOUND)], check_rigid_obj(fx, members, is_face))
    for key in rng.sample(POSET_FIXTURES, 2):
        fx = fixture(key)
        lo, hi = endpoints(fx, rng, rng.randint(2, 4), rng.randint(0, 2))
        base = [fx.type, "adjoint", "--face=" + ";".join(map(fmt, fx.gens)),
                f"--lo={fmt(lo[0])}@{lo[1]}", f"--hi={fmt(hi[0])}@{hi[1]}"]
        own = M.interval_points(fx.gens, lo, hi)
        add(["interval"] + base, lambda obj, full, own=own: need(
            {(tuple(w), r) for w, r in obj["points"]} == own and obj["interval_closed"],
            "interval points differ"))
        add(["gldim"] + base, lambda obj, full, fx=fx, n=len(own): need(
            obj["total_mult"] == fx.total_mult and obj["gldim"] <= fx.total_mult
            and obj["bound_ok"] and obj["size"] == n, "gldim report"))
    for key in rng.sample(POSET_FIXTURES, 2):
        fx = fixture(key)
        add(["witness", fx.type, "adjoint", "--face=" + ";".join(map(fmt, fx.gens))],
            check_witness_obj(fx))
    slots = Slots(rng)
    for key, mu, counts in rng.sample(CLI_KOSZUL, 2):
        fx, lo, hi = slots(key, mu, counts)
        argv = ["koszul", fx.type, "adjoint", "--face=" + ";".join(map(fmt, fx.gens)),
                f"--lo={fmt(lo[0])}@{lo[1]}", f"--hi={fmt(hi[0])}@{hi[1]}", "--witness"]
        crng = random.Random(rng.random())
        add(argv, lambda obj, full, fx=fx, crng=crng: check_koszul(fx, obj, crng, full),
            perturb_report)
    return Plan(ops, prepare_round=runner.fresh_cache)


def check_faces_obj(type_):
    L = M.lie(type_)
    own = L.adjoint_weights()

    def check(obj, full):
        f = [0] * L.rank
        for face in obj["faces"]:
            members = [tuple(w) for w in face["weights"]]
            f[M.affine_rank(members)] += 1
            check_full_face(L, own, members, face["functional"])
        need(obj["count"] == len(obj["faces"]) and tuple(f) == F_VECTORS[type_],
             f"{type_} f-vector {f}")

    return check


def check_rigid_obj(fx, members, is_face):
    def check(obj, full):
        need(obj["consistent"] and obj["face"] == is_face and obj["rigid_within_bound"] == is_face,
             f"rigid report on {members}")
        if is_face:
            check_certificate(fx.L, fx.own, members, obj["functional"])

    return check


def check_witness_obj(fx):
    L = fx.L
    weight_sum = tuple(sum(fx.own[g] * g[i] for g in fx.gens) for i in range(L.rank))

    def check(obj, full):
        nu = tuple(obj["nu"])
        top = M.add(nu, weight_sum)
        need(nu == tuple(2 * obj["k"] * x for x in L.rho), "witness is not 2k rho")
        need(min(nu) > 0 and min(top) > 0, "witness weights are not regular")
        if full:
            m = M.brauer_klimyk(fx.type, fx.own_items, fx.total_mult, "ext", nu, top)
            need(m == 1, f"top exterior multiplicity {m}")

    return check


WORKLOADS = {
    "koszul-fresh": koszul_fresh,
    "koszul-overlap": koszul_overlap,
    "geometry": geometry,
    "cli": cli,
}
