"""End-to-end acceptance suite.

Each test realizes one numbered criterion. All arithmetic is integer or exact
rational, so every comparison below is exact; there are no tolerances to tune.
Each criterion prints one PASS line with its evidence (visible with -s); an
assertion failure is the corresponding FAIL.
"""

import hashlib
import json
import random
from itertools import combinations

from oracles import expand_power_bruteforce

from facekoszul import (
    GradedWeight,
    ModuleSpec,
    Poly,
    Weight,
    directedness_check,
    face_interval,
    gldim,
    hilbert_projective,
    hilbert_yoneda_neg,
    irr_character,
    is_rigid_bruteforce,
    lies_on_proper_face,
    module_character,
    mult_in,
    mult_in_alternating,
    root_system,
    symmetric_power,
    exterior_power,
    full_report,
    tensor,
    verify_koszul_numerical,
    weight_system,
    weyl_dim,
    witness_search,
)
from facekoszul.cli import main
from facekoszul.koszulcheck import P_ONE, P_ZERO
from facekoszul.weightposet import face_distance, face_graded_leq, graded_leq, interval_coincidence


def _report(num, name, detail):
    print(f"[PASS] criterion {num} ({name}): {detail}")


def _random_interval(case, rng, max_d=5):
    gens = case.face.gens
    for _ in range(200):
        mu = Weight(tuple(rng.randint(0, case.coord_cap) for _ in range(case.rs.rank)))
        d = rng.randint(0, max_d)
        nu = mu
        for _ in range(d):
            nu = nu + gens[rng.randrange(len(gens))]
        if not nu.is_dominant:
            continue
        r0 = rng.randint(-1, 1)
        return face_interval(case.face, GradedWeight(mu, r0), GradedWeight(nu, r0 + d))
    raise AssertionError("interval sampling stalled")


def test_criterion_1_koszulity_identity(cases):
    rng = random.Random(11001)
    total = 0
    max_seen = 0
    for case in cases:
        for _ in range(12):
            gamma = _random_interval(case, rng)
            verdict = verify_koszul_numerical(case.face, gamma)
            assert verdict.passed, (case.name, [tuple(p.weight) for p in gamma], verdict)
            total += 1
            max_seen = max(max_seen, len(gamma))
    assert total >= 50
    _report(
        1,
        "Koszulity identity",
        f"{total} sampled intervals across 5 fixtures, exact identity; largest had {max_seen} points",
    )


def test_criterion_2_global_dimension(cases):
    rng = random.Random(11002)
    sampled = 0
    for case in cases:
        for _ in range(8):
            gamma = _random_interval(case, rng)
            assert gldim(case.face, gamma) <= case.face.total_mult
            sampled += 1
    star_dims = {}
    for case in cases:
        k, nu = witness_search(case.face, max_k=6)
        star = face_interval(
            case.face,
            GradedWeight(nu, 0),
            GradedWeight(nu + case.face.weight_sum, case.face.total_mult),
        )
        g = gldim(case.face, star)
        assert g == case.face.total_mult, (case.name, g)
        star_dims[case.name] = g
    assert star_dims["A1 adjoint, vertex"] == 1
    assert star_dims["A2 adjoint, edge"] == 2
    _report(
        2,
        "global dimension",
        f"bound holds on {sampled} sampled intervals; witness intervals reach it exactly "
        f"({star_dims['A1 adjoint, vertex']} for the A1 vertex, {star_dims['A2 adjoint, edge']} for the A2 edge)",
    )


def test_criterion_3_face_iff_rigid(a1_adjoint, a2_adjoint):
    checked = 0
    for ws in (a1_adjoint, a2_adjoint):
        wts = sorted(ws.weights)
        for k in range(1, len(wts) + 1):
            for sub in combinations(wts, k):
                lp = lies_on_proper_face(ws, sub) is not None
                bf = is_rigid_bruteforce(ws, sub, 6).ok
                assert lp == bf, (sub, lp, bf)
                checked += 1
    assert checked == (2**3 - 1) + (2**7 - 1)
    _report(
        3,
        "face iff rigid",
        f"{checked} subsets exhaustively agree between the LP test and brute force at bound 6",
    )


def test_criterion_4_poset_laws(cases):
    rng = random.Random(11004)
    faces = [case.face for case in cases]

    chains = 0
    while chains < 500:
        face = faces[rng.randrange(len(faces))]
        rank = face.ws.rs.rank
        gens = face.gens
        eta = Weight(tuple(rng.randint(0, 2) for _ in range(rank)))
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        mu = eta
        for _ in range(k1):
            mu = mu + gens[rng.randrange(len(gens))]
        nu = mu
        for _ in range(k2):
            nu = nu + gens[rng.randrange(len(gens))]
        assert face_distance(face, eta, mu) == k1
        assert face_distance(face, mu, nu) == k2
        assert face_distance(face, eta, nu) == k1 + k2
        chains += 1

    refinements = 0
    while refinements < 500:
        face = faces[rng.randrange(len(faces))]
        rank = face.ws.rs.rank
        gens = face.gens
        mu = Weight(tuple(rng.randint(0, 2) for _ in range(rank)))
        steps = rng.randint(0, 4)
        nu = mu
        for _ in range(steps):
            nu = nu + gens[rng.randrange(len(gens))]
        if not nu.is_dominant:
            continue
        p = GradedWeight(mu, rng.randint(-1, 1))
        q = GradedWeight(nu, p.degree + steps)
        assert face_graded_leq(face, p, q)
        assert graded_leq(face.ws, p, q)
        refinements += 1

    coincidences = 0
    while coincidences < 100:
        case = cases[rng.randrange(len(cases))]
        gamma = _random_interval(case, rng, max_d=4)
        p, q = gamma.points[0], gamma.points[-1]
        if not face_graded_leq(case.face, p, q):
            continue
        assert interval_coincidence(case.face, p, q)
        coincidences += 1

    _report(
        4,
        "poset laws",
        f"{chains} chains additive, {refinements} comparabilities refine the coarse order, "
        f"{coincidences} interval coincidences",
    )


POWER_ORACLE_MODULES = [
    ("A1", ((2,),)),
    ("A1", ((4,),)),
    ("A2", ((1, 0),)),
    ("A2", ((1, 1),)),
    ("A2", ((1, 0), (0, 1))),
    ("C2", ((2, 0),)),
]


def test_criterion_5_character_oracles():
    from facekoszul import ModuleSpec

    power_checks = 0
    for name, weights in POWER_ORACLE_MODULES:
        rs = root_system(name)
        spec = ModuleSpec(tuple((Weight(w), 1) for w in weights))
        ch = module_character(rs, spec)
        assert ch.dimension <= 10
        for j in range(5):
            assert dict(exterior_power(ch, j).mults) == expand_power_bruteforce(ch, j, "ext")
            assert dict(symmetric_power(ch, j).mults) == expand_power_bruteforce(ch, j, "sym")
            power_checks += 2

    rng = random.Random(11005)
    names = ["A1", "A2", "B2", "A3", "B3", "C3"]
    dim_checks = 0
    for _ in range(50):
        rs = root_system(names[rng.randrange(len(names))])
        lam = Weight(tuple(rng.randint(0, 4) for _ in range(rs.rank)))
        assert irr_character(rs, lam).dimension == weyl_dim(rs, lam)
        dim_checks += 1

    mult_checks = 0
    small = ["A1", "A2", "B2", "A3"]
    for _ in range(200):
        rs = root_system(small[rng.randrange(len(small))])
        cap = 1 if rs.rank == 3 else 2
        a = Weight(tuple(rng.randint(0, cap) for _ in range(rs.rank)))
        b = Weight(tuple(rng.randint(0, cap) for _ in range(rs.rank)))
        ch = tensor(irr_character(rs, a), irr_character(rs, b))
        lam = Weight(tuple(rng.randint(0, 4) for _ in range(rs.rank)))
        assert mult_in(rs, lam, ch) == mult_in_alternating(rs, lam, ch)
        mult_checks += 1

    _report(
        5,
        "character oracles",
        f"{power_checks} power expansions match the multiset oracle, "
        f"{dim_checks} dimension sums match the product formula, "
        f"{mult_checks} subtraction/alternating multiplicity agreements",
    )


def test_criterion_6_directedness(cases):
    rng = random.Random(11006)
    per_fixture = 400
    for case in cases:
        rank = case.rs.rank
        pairs = []
        for _ in range(per_fixture):
            p = GradedWeight(
                Weight(tuple(rng.randint(0, 2) for _ in range(rank))), rng.randint(-1, 1)
            )
            q = GradedWeight(
                Weight(tuple(rng.randint(0, 3) for _ in range(rank))),
                p.degree + rng.randint(0, 2),
            )
            pairs.append((p, q))
        assert directedness_check(case.ws, pairs), case.name
    _report(
        6,
        "directedness",
        f"{per_fixture} random pairs per fixture: nonzero first Ext always comes from a cover",
    )


def test_criterion_7_hand_verified_instance(a1_adjoint):
    face = lies_on_proper_face(a1_adjoint, [Weight((2,))])
    gamma = face_interval(face, GradedWeight(Weight((0,)), 0), GradedWeight(Weight((4,)), 2))
    assert [(tuple(p.weight), p.degree) for p in gamma.points] == [((0,), 0), ((2,), 1), ((4,), 2)]
    hb = hilbert_projective(face, gamma)
    he = hilbert_yoneda_neg(face, gamma)
    t = Poly((0, 1))
    t2 = Poly((0, 0, 1))
    assert hb.entries == ((P_ONE, P_ZERO, P_ZERO), (t, P_ONE, P_ZERO), (t2, t, P_ONE))
    assert he.entries == ((P_ONE, P_ZERO, P_ZERO), (-t, P_ONE, P_ZERO), (P_ZERO, -t, P_ONE))
    corner_terms = (
        he.entries[2][0] * hb.entries[0][0],
        he.entries[2][1] * hb.entries[1][0],
        he.entries[2][2] * hb.entries[2][0],
    )
    assert corner_terms == (P_ZERO, -t2, t2)
    assert corner_terms[0] + corner_terms[1] + corner_terms[2] == P_ZERO
    assert he.matmul(hb).is_identity()
    _report(
        7,
        "hand-verified 3x3",
        "matrices match the hand computation; corner cancels as 0 - t^2 + t^2 = 0",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    args = [
        "koszul",
        "A2",
        "adjoint",
        "--face",
        "2,-1;1,1",
        "--lo",
        "0,0@0",
        "--hi",
        "3,0@2",
        "--witness",
    ]

    def run(*extra):
        code = main(["--cache-dir", str(tmp_path / "cache"), *extra, "--json", *args])
        out = capsys.readouterr().out
        assert code == 0
        return out.encode()

    first = run()
    second = run()
    threaded = run("--workers", "4")
    assert first == second == threaded
    json.loads(first)
    _report(
        8,
        "determinism",
        f"byte-identical JSON ({len(first)} bytes) across repeat runs and 1 vs 4 workers",
    )


# The 4-weight facet of the A3 adjoint polytope, on a 19-point interval: the
# rank-3 regime where the constituent layer does real work.
A3_FACET = ((-2, 1, 0), (-1, -1, 1), (-1, 1, 1), (0, -1, 2))
A3_FACET_CLI = [
    "koszul",
    "A3",
    "adjoint",
    "--face=" + ";".join(",".join(map(str, w)) for w in A3_FACET),
    "--lo=6,3,1@0",
    "--hi=2,3,5@4",
]
# sha256 of that command's --json stdout (3878 bytes), as first produced by
# the tensor-product-and-subtraction constituent path
A3_FACET_SHA256 = "42d8ab7a56864abb60af51f27ac59d17f33fa5d3d14460c47f10dfdf85bc47bb"


def test_criterion_9_rank3_facet(tmp_path, capsys):
    rs = root_system("A3")
    ws = weight_system(rs, ModuleSpec(((Weight((1, 0, 1)), 1),)))
    face = lies_on_proper_face(ws, [Weight(w) for w in A3_FACET])
    assert face is not None
    gamma = face_interval(
        face, GradedWeight(Weight((6, 3, 1)), 0), GradedWeight(Weight((2, 3, 5)), 4)
    )
    assert len(gamma) == 19
    rep = full_report(face, gamma)
    assert rep.verdict.passed
    assert rep.total_mult == 4
    assert rep.gldim_value == 4

    code = main(["--cache-dir", str(tmp_path / "cache"), "--json", *A3_FACET_CLI])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == A3_FACET_SHA256
    _report(
        9,
        "rank-3 facet",
        f"19 points, identity holds, gldim 4 = total_mult; JSON ({len(out)} bytes) unchanged",
    )
