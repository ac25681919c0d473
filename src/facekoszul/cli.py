"""Command-line driver with JSON reporting.

Exit codes: 0 success/PASS, 1 theorem-level failure (exact identity broken or
witness not found), 2 parse or input error, 3 interval-closedness or
comparability precondition, 4 the given subset does not lie on a proper face,
5 internal error (an exact check inside the computation failed, such as a
certificate re-verification or the global-dimension bound).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .characters import Character, ModuleSpec, decompose, irr_character
from .errors import (
    CartanDatumError,
    FaceCertificateError,
    GuardLimitError,
    IncomparableError,
    NotIntervalClosedError,
    WitnessSearchError,
)
from .facegeom import enumerate_face_subsets, is_rigid_bruteforce, lies_on_proper_face, weight_system
from .homdims import gldim, witness_search
from .koszulcheck import _point_json, full_report, render_monomial
from .rootsystem import Weight, build_root_system, datum_from_json, root_system
from .weightposet import GradedSet, GradedWeight, face_downset, face_interval

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INTERVAL = 3
EXIT_RIGID = 4
EXIT_INTERNAL = 5

_TYPE_RE = re.compile(r"^([A-Ga-g])(\d+)$")
# argparse takes '-1,2' for an option flag (only '-1' or '-1.5' pass as numbers)
_WEIGHT_OPTIONS = ("--face", "--lo", "--hi", "--lower", "--gamma", "--down-from")
_NEGATIVE_RE = re.compile(r"^-\d")


class CliParseError(ValueError):
    pass


class _NotAFace(Exception):
    def __init__(self, subset, witness):
        super().__init__("subset does not lie on a proper face")
        self.subset = subset
        self.witness = witness


def _load_root_system(arg: str):
    m = _TYPE_RE.match(arg)
    if m:
        return root_system(m.group(1).upper(), int(m.group(2)))
    path = Path(arg)
    if path.exists():
        return build_root_system(datum_from_json(path.read_text(encoding="utf-8")))
    raise CliParseError(f"{arg!r} is neither a series type like 'A2' nor an existing file")


def _parse_weight(text: str, rank: int) -> Weight:
    try:
        coords = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliParseError(f"bad weight {text!r}: {exc}") from exc
    if len(coords) != rank:
        raise CliParseError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return Weight(coords)


def _adjoint_spec(rs) -> ModuleSpec:
    mults = {w: 1 for w in rs.positive_roots}
    mults.update({-w: 1 for w in rs.positive_roots})
    mults[Weight.zero(rs.rank)] = rs.rank
    return ModuleSpec(tuple(decompose(Character(rs, mults))))


def _parse_module(text: str, rs) -> ModuleSpec:
    if text.strip().lower() == "adjoint":
        return _adjoint_spec(rs)
    summands = []
    for part in text.split("+"):
        part = part.strip()
        if "*" in part:
            head, tail = part.split("*", 1)
            try:
                mult = int(head)
            except ValueError as exc:
                raise CliParseError(f"bad multiplicity in {part!r}") from exc
        else:
            mult, tail = 1, part
        summands.append((_parse_weight(tail, rs.rank), mult))
    try:
        return ModuleSpec(tuple(summands))
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def _parse_subset(text: str, rank: int) -> list[Weight]:
    return [_parse_weight(p, rank) for p in text.split(";") if p.strip()]


def _parse_point(text: str, rank: int) -> GradedWeight:
    if "@" not in text:
        raise CliParseError(f"bad point {text!r}: expected 'coords@degree'")
    wtext, dtext = text.rsplit("@", 1)
    try:
        degree = int(dtext)
    except ValueError as exc:
        raise CliParseError(f"bad degree in point {text!r}") from exc
    try:
        return GradedWeight(_parse_weight(wtext, rank), degree)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def _require_face(ws, subset, bound: int):
    face = lies_on_proper_face(ws, subset)
    if face is None:
        # The LP has decided; a brute force past its guard only loses the counterexample.
        try:
            witness = is_rigid_bruteforce(ws, subset, bound).witness
        except GuardLimitError:
            witness = None
        raise _NotAFace(subset, witness)
    return face


def _build_gamma(face, args) -> GradedSet:
    rank = face.ws.rs.rank
    needs = f"{args.command} needs --lo and --hi, or a nonempty --gamma"
    if args.gamma:
        points = [_parse_point(p, rank) for p in args.gamma.split(";") if p.strip()]
        if not points:
            raise CliParseError(needs)
        gs = GradedSet.build(face, points)
        if not gs.interval_closed:
            raise NotIntervalClosedError("the given point set is not interval-closed")
        return gs
    if not (args.lo and args.hi):
        raise CliParseError(needs)
    return face_interval(face, _parse_point(args.lo, rank), _parse_point(args.hi, rank))


def _fmt_weight(w) -> str:
    return ",".join(str(c) for c in w)


def _fmt_point(p: GradedWeight) -> str:
    return f"({_fmt_weight(p.weight)})@{p.degree}"


# Command handlers return (exit_code, json_obj, human_lines).


def cmd_roots(args):
    rs = _load_root_system(args.type)
    obj = {
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.datum.cartan],
        "symmetrizer": list(rs.datum.symmetrizer),
        "simple_roots": [list(w) for w in rs.simple_roots],
        "positive_roots": [list(w) for w in rs.positive_roots],
        "rho": list(rs.rho),
        "form": [[str(x) for x in row] for row in rs.form],
    }
    lines = [
        f"rank {rs.rank}, {len(rs.positive_roots)} positive roots",
        "simple roots: " + "  ".join(_fmt_weight(w) for w in rs.simple_roots),
        "positive roots: " + "  ".join(_fmt_weight(w) for w in rs.positive_roots),
        f"rho: {_fmt_weight(rs.rho)}",
    ]
    return EXIT_OK, obj, lines


def cmd_character(args):
    rs = _load_root_system(args.type)
    lam = _parse_weight(args.weight, rs.rank)
    ch = irr_character(rs, lam)
    weights = sorted(ch.mults.items())
    obj = {
        "highest_weight": list(lam),
        "dimension": ch.dimension,
        "weights": [[list(w), m] for w, m in weights],
    }
    lines = [f"dim V({_fmt_weight(lam)}) = {ch.dimension}"]
    lines += [f"  {_fmt_weight(w)}: {m}" for w, m in weights]
    return EXIT_OK, obj, lines


def cmd_weights(args):
    rs = _load_root_system(args.type)
    spec = _parse_module(args.module, rs)
    ws = weight_system(rs, spec)
    obj = {
        "module": spec.key,
        "dimension": ws.dim,
        "weights": [[list(w), m] for w, m in ws.weight_items],
    }
    lines = [f"module {spec.key}: dimension {ws.dim}, {len(ws.weight_items)} weights"]
    lines += [f"  {_fmt_weight(w)}: {m}" for w, m in ws.weight_items]
    return EXIT_OK, obj, lines


def cmd_faces(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    faces = enumerate_face_subsets(ws)
    obj = {
        "count": len(faces),
        "faces": [
            {
                "weights": [list(w) for w in f.gens],
                "functional": [str(x) for x in f.functional],
                "weight_sum": list(f.weight_sum),
                "total_mult": f.total_mult,
            }
            for f in faces
        ],
    }
    lines = [f"{len(faces)} proper faces"]
    lines += [
        "  {" + "; ".join(_fmt_weight(w) for w in f.gens) + "}" + f"  total_mult={f.total_mult}"
        for f in faces
    ]
    return EXIT_OK, obj, lines


def _witness_json(verdict):
    if verdict.ok:
        return None
    names = ("subset_decomposition", "other_decomposition")
    return {k: [[list(w), m] for w, m in sorted(d.items())] for k, d in zip(names, verdict.witness)}


def cmd_rigid(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    subset = _parse_subset(args.face, rs.rank)
    face = lies_on_proper_face(ws, subset)
    verdict = is_rigid_bruteforce(ws, subset, args.bound)
    checks = [("rigidity brute force", verdict)]
    # The LP certifies any subset of a face, while the brute force calls a tie
    # against a weight that stays on the face a violation; so a certified face
    # is checked for rigidity on its exposed set {w : <xi, w> = 1}.
    if face is not None:
        exposed = sorted(w for w in ws.weights if face.pair(w) == 1)
        if set(exposed) != face.weights:
            members = ", ".join(f"({_fmt_weight(w)})" for w in exposed)
            exposed_verdict = is_rigid_bruteforce(ws, exposed, args.bound)
            checks.append((f"exposed set {{{members}}}", exposed_verdict))
    consistent = face is None or checks[-1][1].ok
    obj = {
        "face": face is not None,
        "functional": None if face is None else [str(x) for x in face.functional],
        "rigid_within_bound": verdict.ok,
        "bound": args.bound,
        "witness": _witness_json(verdict),
        "consistent": consistent,
    }
    lines = [f"face test: {'accepted' if face is not None else 'rejected'}"]
    for name, v in checks:
        result = "no violation" if v.ok else f"violation {_witness_json(v)}"
        lines.append(f"{name} (bound {args.bound}): {result}")
    return (EXIT_OK if consistent else EXIT_FAIL), obj, lines


def cmd_interval(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    face = _require_face(ws, _parse_subset(args.face, rs.rank), args.bound)
    if args.down_from:
        gs = face_downset(face, _parse_point(args.down_from, rs.rank), args.max_depth)
    else:
        if not (args.lo and args.hi):
            raise CliParseError("interval needs --lo and --hi, or --down-from")
        gs = face_interval(face, _parse_point(args.lo, rs.rank), _parse_point(args.hi, rs.rank))
    obj = {
        "points": [_point_json(p) for p in gs.points],
        "interval_closed": gs.interval_closed,
    }
    lines = [f"{len(gs)} points, interval_closed={gs.interval_closed}"]
    lines += [f"  {_fmt_point(p)}" for p in gs.points]
    return EXIT_OK, obj, lines


def cmd_gldim(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    face = _require_face(ws, _parse_subset(args.face, rs.rank), args.bound)
    gs = _build_gamma(face, args)
    g = gldim(face, gs)
    ok = g <= face.total_mult
    obj = {"gldim": g, "total_mult": face.total_mult, "bound_ok": ok, "size": len(gs)}
    lines = [f"gldim = {g} on {len(gs)} points; bound total_mult = {face.total_mult}"]
    return (EXIT_OK if ok else EXIT_FAIL), obj, lines


def cmd_witness(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    face = _require_face(ws, _parse_subset(args.face, rs.rank), args.bound)
    eta = _parse_weight(args.lower, rs.rank) if args.lower else Weight.zero(rs.rank)
    k, nu = witness_search(face, eta, args.max_k)
    obj = {"k": k, "nu": list(nu), "multiplicity": 1, "total_mult": face.total_mult}
    lines = [f"witness: k = {k}, nu = {_fmt_weight(nu)} (top multiplicity 1)"]
    return EXIT_OK, obj, lines


def cmd_koszul(args):
    rs = _load_root_system(args.type)
    ws = weight_system(rs, _parse_module(args.module, rs))
    face = _require_face(ws, _parse_subset(args.face, rs.rank), args.bound)
    gs = _build_gamma(face, args)
    report = full_report(face, gs, with_witness=args.witness, max_k=args.max_k)
    obj = report.to_json_obj()
    lines = [
        f"gamma: {len(gs)} points; total_mult = {report.total_mult}; gldim = {report.gldim_value}",
        f"Koszul numerical identity: {'PASS' if report.verdict.passed else 'FAIL'}",
    ]
    if report.verdict.offending is not None:
        row, col, residual = report.verdict.offending
        text = render_monomial(residual, row.degree - col.degree)
        lines.append(f"  offending entry ({_fmt_point(row)}, {_fmt_point(col)}): residual {text}")
    if report.witness is not None:
        w = report.witness
        lines.append(
            f"witness interval at nu = {_fmt_weight(w.nu)} (k={w.k}): gldim = {w.gldim_star}"
        )
    return (EXIT_OK if report.verdict.passed else EXIT_FAIL), obj, lines


_HANDLERS = {
    "roots": cmd_roots,
    "character": cmd_character,
    "weights": cmd_weights,
    "faces": cmd_faces,
    "rigid": cmd_rigid,
    "interval": cmd_interval,
    "gldim": cmd_gldim,
    "witness": cmd_witness,
    "koszul": cmd_koszul,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="facekoszul",
        description="Exact weight-polytope faces, graded Ext/Hom dimensions, and "
        "numerical Koszulity certificates.",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    p.add_argument("--cache-dir", default=None, help="accepted for compatibility; does nothing")
    p.add_argument("--max-depth", type=int, default=6, help="depth bound for downsets")
    p.add_argument("--max-k", type=int, default=6, help="search bound for the witness weight")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, *, module=False, face=False, gamma=False, help=""):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("type", help="series type like A2, or a Cartan-matrix JSON file")
        if module:
            sp.add_argument("module", help="module spec: 'adjoint', '1,1', or '2*1,0+0,1'")
        if face:
            sp.add_argument("--face", required=True, help="weight subset, e.g. '2,-1;1,1'")
            sp.add_argument("--bound", type=int, default=6, help="rigidity brute-force bound")
        if gamma:
            sp.add_argument("--lo", help="lower interval endpoint 'coords@degree'")
            sp.add_argument("--hi", help="upper interval endpoint 'coords@degree'")
            sp.add_argument("--gamma", help="explicit point list 'w@r;w@r;...'")
        return sp

    add("roots", help="positive roots, rho, and the invariant form")
    sp = add("character", help="irreducible character by highest weight")
    sp.add_argument("weight", help="dominant weight, e.g. '1,1'")
    add("weights", module=True, help="weight system of a module spec")
    add("faces", module=True, help="all proper faces of the weight polytope")
    add("rigid", module=True, face=True, help="face test vs rigidity brute force")
    ip = add("interval", module=True, face=True, help="interval or bounded downset")
    ip.add_argument("--lo")
    ip.add_argument("--hi")
    ip.add_argument("--down-from", help="enumerate the downset of this point instead")
    add("gldim", module=True, face=True, gamma=True, help="global dimension of a point set")
    wp = add("witness", module=True, face=True, help="witness weight for bound tightness")
    wp.add_argument("--lower", help="dominant weight the witness must dominate")
    kp = add("koszul", module=True, face=True, gamma=True, help="full Koszulity report")
    kp.add_argument("--witness", action="store_true", help="include a tight witness interval")
    return p


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--face -1,2' as '--face=-1,2' so argparse reads the value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _WEIGHT_OPTIONS and _NEGATIVE_RE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_bind_negative_values(argv))
    except SystemExit as exc:  # argparse reports usage errors via SystemExit
        return int(exc.code or 0)
    try:
        code, obj, lines = _HANDLERS[args.command](args)
    except _NotAFace as exc:
        detail = ""
        if exc.witness is not None:
            inside, outside = exc.witness
            detail = f"; rigidity counterexample: {dict(inside)} vs {dict(outside)}"
        print(f"error: subset does not lie on a proper face{detail}", file=sys.stderr)
        return EXIT_RIGID
    except (NotIntervalClosedError, IncomparableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERVAL
    except FaceCertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RIGID
    except WitnessSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (CliParseError, CartanDatumError, GuardLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
