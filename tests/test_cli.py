import hashlib
import json

import jsonschema
import pytest

from facekoszul.cli import main

WEIGHT = {"type": "array", "items": {"type": "integer"}}
WEIGHT_MULT = {
    "type": "array",
    "prefixItems": [WEIGHT, {"type": "integer", "minimum": 1}],
    "minItems": 2,
    "maxItems": 2,
}
POINT = {
    "type": "array",
    "prefixItems": [WEIGHT, {"type": "integer"}],
    "minItems": 2,
    "maxItems": 2,
}
FRACTION = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
POLY = {"type": "array", "items": {"type": "integer"}}
MATRIX = {
    "type": "object",
    "required": ["index", "entries"],
    "properties": {
        "index": {"type": "array", "items": POINT},
        "entries": {"type": "array", "items": {"type": "array", "items": POLY}},
    },
}

SCHEMAS = {
    "roots": {
        "type": "object",
        "required": ["rank", "cartan", "symmetrizer", "simple_roots", "positive_roots", "rho", "form"],
        "properties": {
            "rank": {"type": "integer", "minimum": 1},
            "cartan": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
            "symmetrizer": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "simple_roots": {"type": "array", "items": WEIGHT},
            "positive_roots": {"type": "array", "items": WEIGHT},
            "rho": WEIGHT,
            "form": {"type": "array", "items": {"type": "array", "items": FRACTION}},
        },
    },
    "character": {
        "type": "object",
        "required": ["highest_weight", "dimension", "weights"],
        "properties": {
            "highest_weight": WEIGHT,
            "dimension": {"type": "integer", "minimum": 1},
            "weights": {"type": "array", "items": WEIGHT_MULT},
        },
    },
    "weights": {
        "type": "object",
        "required": ["module", "dimension", "weights"],
        "properties": {
            "module": {"type": "string"},
            "dimension": {"type": "integer", "minimum": 1},
            "weights": {"type": "array", "items": WEIGHT_MULT},
        },
    },
    "faces": {
        "type": "object",
        "required": ["count", "faces"],
        "properties": {
            "count": {"type": "integer", "minimum": 0},
            "faces": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["weights", "functional", "weight_sum", "total_mult"],
                    "properties": {
                        "weights": {"type": "array", "items": WEIGHT},
                        "functional": {"type": "array", "items": FRACTION},
                        "weight_sum": WEIGHT,
                        "total_mult": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
    },
    "rigid": {
        "type": "object",
        "required": ["face", "rigid_within_bound", "bound", "consistent"],
    },
    "interval": {
        "type": "object",
        "required": ["points", "interval_closed"],
        "properties": {
            "points": {"type": "array", "items": POINT},
            "interval_closed": {"type": "boolean"},
        },
    },
    "gldim": {
        "type": "object",
        "required": ["gldim", "total_mult", "bound_ok", "size"],
    },
    "witness": {
        "type": "object",
        "required": ["k", "nu", "multiplicity", "total_mult"],
    },
    "koszul": {
        "type": "object",
        "required": [
            "total_mult",
            "gldim",
            "gldim_bound_ok",
            "koszul",
            "gamma",
            "hilbert_projective",
            "hilbert_yoneda_neg",
            "witness",
        ],
        "properties": {
            "koszul": {
                "type": "object",
                "required": ["passed", "size", "offending"],
            },
            "gamma": {"type": "array", "items": POINT},
            "hilbert_projective": MATRIX,
            "hilbert_yoneda_neg": MATRIX,
        },
    },
}


@pytest.fixture()
def run(tmp_path, capsys):
    def _run(*args, expect=0):
        code = main(["--cache-dir", str(tmp_path / "cache"), *args])
        captured = capsys.readouterr()
        assert code == expect, f"{args}: exit {code}, stderr: {captured.err}"
        return captured.out

    return _run


def _json(run, command, *args, expect=0):
    out = run("--json", command, *args, expect=expect)
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMAS[command])
    return obj


def test_roots_json(run):
    obj = _json(run, "roots", "A2")
    assert len(obj["positive_roots"]) == 3
    assert obj["rho"] == [1, 1]
    obj = _json(run, "roots", "G2")
    assert len(obj["positive_roots"]) == 6


def test_roots_text(run):
    out = run("roots", "B2")
    assert "4 positive roots" in out


def test_roots_from_json_file(run, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 2, "cartan": [[2, -1], [-2, 2]]}))
    obj = _json(run, "roots", str(path))
    assert len(obj["positive_roots"]) == 4


def test_roots_bad_matrix_exit_2(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "cartan": [[2, -2], [-2, 2]]}))
    run("roots", str(path), expect=2)
    run("roots", "Q3", expect=2)


@pytest.mark.parametrize(
    "datum",
    [
        {"type": "A"},
        {"type": "A", "rank": None},
        {"rank": 2, "cartan": [[2, -1], [-1, 2]], "symmetrizer": None},
        {"rank": 2, "cartan": [[2, -1], [-1, 2]], "symmetrizer": 3},
        {"rank": 2, "cartan": [[2], [-1, 2]]},
    ],
)
def test_roots_malformed_json_file_exit_2(run, tmp_path, datum):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(datum))
    run("roots", str(path), expect=2)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"rank": 2, "cartan": [[2, -1], [-1, 2]], "symmetrizer": [1e400, 1]}',
        '{"rank": 1e400, "cartan": [[2]]}',
    ],
    ids=["nested-100000-deep", "symmetrizer-1e400", "rank-1e400"],
)
def test_roots_json_past_parser_limits_exit_2(tmp_path, capsys, text):
    # past json's nesting limit, or a float that int() cannot take: one line, exit 2
    path = tmp_path / "datum.json"
    path.write_text(text)
    code = main(["roots", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_character_json(run):
    obj = _json(run, "character", "A2", "1,1")
    assert obj["dimension"] == 8
    zero = [m for w, m in obj["weights"] if w == [0, 0]]
    assert zero == [2]


def test_character_rejects_non_dominant(run):
    run("--json", "character", "A2", "-1,1", expect=2)


def test_weights_json(run):
    obj = _json(run, "weights", "A2", "adjoint")
    assert obj["dimension"] == 8
    obj = _json(run, "weights", "A2", "1,0+0,1")
    assert obj["dimension"] == 6
    obj = _json(run, "weights", "A1", "2*1")
    assert obj["dimension"] == 4


def test_faces_counts(run):
    assert _json(run, "faces", "A1", "adjoint")["count"] == 2
    assert _json(run, "faces", "A2", "adjoint")["count"] == 12
    assert _json(run, "faces", "C2", "adjoint")["count"] == 8


def test_rigid_agreement(run):
    obj = _json(run, "rigid", "A2", "adjoint", "--face", "2,-1;1,1")
    assert obj["face"] and obj["rigid_within_bound"] and obj["consistent"]
    obj = _json(run, "rigid", "A1", "adjoint", "--face", "2;0")
    assert not obj["face"] and not obj["rigid_within_bound"]
    assert obj["witness"] is not None


def test_negative_values_after_a_space(run, capsys):
    spaced = run("--json", "rigid", "A2", "adjoint", "--face", "-1,2", "--bound", "1")
    joined = run("--json", "rigid", "A2", "adjoint", "--face=-1,2", "--bound", "1")
    assert spaced == joined
    assert json.loads(spaced)["face"]
    # the point reaches the parser, which names the real problem
    code = main(["interval", "A2", "adjoint", "--face", "-1,2",
                 "--lo", "-1,2@0", "--hi", "0,3@1"])
    assert code == 2
    assert "dominant" in capsys.readouterr().err


def test_rigid_a5_highest_root(run):
    obj = _json(run, "rigid", "A5", "adjoint", "--face=1,0,0,0,1", "--bound", "1")
    assert obj["face"] is True
    assert obj["functional"] == ["1/2", "0", "0", "0", "1/2"]


def test_rigid_face_subset_consistent(run):
    # A long root and the short midpoint of a B2 edge, without the other long
    # root: a face subset whose brute force ties against that other root, which
    # stays on the face. Consistency is judged on the exposed set.
    obj = _json(run, "rigid", "B2", "adjoint", "--face=-2,2;-1,0", "--bound", "3")
    assert obj["face"] is True and obj["functional"] == ["-1/2", "0"]
    assert obj["rigid_within_bound"] is False
    assert obj["witness"]["other_decomposition"] == [[[-2, 2], 1], [[0, -2], 1]]
    assert obj["consistent"] is True


def test_rigid_bound_guard_exit_2(run):
    # C(19 + 7, 7) multisets of the B3 adjoint's weights exceed the guard
    run("--json", "rigid", "B3", "adjoint", "--face=0,1,0", "--bound", "7", expect=2)


def test_rigid_text_names_the_exposed_set(run):
    # The text report explains the exit 0 despite the subset's violation line.
    out = run("rigid", "B2", "adjoint", "--face=-2,2;-1,0", "--bound", "3")
    assert out.splitlines() == [
        "face test: accepted",
        "rigidity brute force (bound 3): violation {'subset_decomposition': [[[-1, 0], 2]], "
        "'other_decomposition': [[[-2, 2], 1], [[0, -2], 1]]}",
        "exposed set {(-2,2), (-1,0), (0,-2)} (bound 3): no violation",
    ]
    # a subset that is its face's whole exposed set gets no extra line
    out = run("rigid", "A2", "adjoint", "--face", "2,-1;1,1")
    assert "exposed set" not in out


def test_interval_and_downset(run):
    obj = _json(run, "interval", "A2", "adjoint", "--face", "2,-1;1,1",
                "--lo", "0,0@0", "--hi", "3,0@2")
    assert obj["points"] == [[[0, 0], 0], [[1, 1], 1], [[3, 0], 2]]
    assert obj["interval_closed"]
    out = main(["--max-depth", "3", "--json", "interval", "A1", "adjoint",
                "--face", "-2", "--down-from", "0@0"])
    assert out == 0


def test_interval_incomparable_exit_3(run):
    run("--json", "interval", "A1", "adjoint", "--face", "2",
        "--lo", "0@0", "--hi", "3@2", expect=3)


def test_gldim_json(run):
    obj = _json(run, "gldim", "A2", "adjoint", "--face", "2,-1;1,1",
                "--lo", "0,0@0", "--hi", "3,0@2")
    assert obj["gldim"] == 2 and obj["bound_ok"]


def test_witness_json(run):
    obj = _json(run, "witness", "A1", "adjoint", "--face", "2")
    assert obj["k"] == 1 and obj["nu"] == [2]


def test_witness_exhausted_exit_1(run):
    run("--max-k", "0", "--json", "witness", "A1", "adjoint", "--face", "2", expect=1)


def test_koszul_pass(run):
    obj = _json(run, "koszul", "A1", "adjoint", "--face", "2",
                "--lo", "0@0", "--hi", "4@2")
    assert obj["koszul"]["passed"] and obj["gldim"] == 1
    assert obj["hilbert_projective"]["entries"][2][0] == [0, 0, 1]


def test_koszul_witness(run):
    obj = _json(run, "koszul", "A2", "adjoint", "--face", "2,-1;1,1",
                "--lo", "0,0@0", "--hi", "3,0@2", "--witness")
    assert obj["witness"]["gldim_star"] == 2 == obj["total_mult"]


def test_koszul_explicit_gamma(run):
    obj = _json(run, "koszul", "A1", "adjoint", "--face", "2",
                "--gamma", "0@0;2@1;4@2")
    assert obj["koszul"]["passed"]


def test_koszul_non_interval_closed_exit_3(run):
    run("--json", "koszul", "A1", "adjoint", "--face", "2",
        "--gamma", "0@0;4@2", expect=3)


def test_koszul_non_face_exit_4(run, capsys):
    code = main(["--json", "koszul", "A1", "adjoint", "--face", "2;0",
                 "--lo", "0@0", "--hi", "4@2"])
    err = capsys.readouterr().err
    assert code == 4
    assert "counterexample" in err


# sha256 of `--json` stdout, as produced by the Fraction equality
# solve and Fraction hull coordinates: face enumeration on rank-3 and rank-4
# adjoints, and the single-weight LP rungs that once blew up Fourier-Motzkin.
REPORT_SHA256 = {
    ("faces", "A3", "adjoint"):
        "6999bb4e364509b073708fe5bdcf2bcf56ffc95df9138cefcb7d08cdbfcd021c",
    ("faces", "B3", "adjoint"):
        "1a8b2f2daf49998ac3064f7c203ad6e115e682ab31dae51f9360b1efdc6907f0",
    ("faces", "C3", "adjoint"):
        "a9fd0359602edf7afd969c734e1eadc346181cb745f2f2eae72ce79ad5f46713",
    ("faces", "A4", "adjoint"):
        "64e57b88493178d3a3c176b5aecf01bbd6b60bbe6329b33bd1984b4bde6093a3",
    ("faces", "D4", "adjoint"):
        "f04f390dccc0db15cfa7475886ede8996e2ac8b73b07d73d0694b95189475f7a",
    ("rigid", "A5", "adjoint", "--face=1,0,0,0,1", "--bound", "1"):
        "85a054cc21671d659ced336d20ad026e80253bcfded99dcce78b258c5c82572c",
    ("rigid", "F4", "adjoint", "--face=1,0,-1,0", "--bound", "1"):
        "401b60060248c5b2eb700c762219e470ff4026cb2c993bef78aa708395885a35",
    ("rigid", "B4", "adjoint", "--face=0,0,1,-2", "--bound", "1"):
        "009ad290bf9c14df73ac457315a47da1fe4913d67457b393f743e40c2fdb7c2b",
    ("rigid", "C4", "adjoint", "--face=0,0,-2,2", "--bound", "1"):
        "fddf6fb2b2b80bbf702e92d7a87f779688e5c6e23ca9e246172bfa34759bc4e4",
    # exceptional adjoint characters from the dominant-walk Freudenthal recursion,
    # and a downset that still went through the interval-closedness check
    ("character", "E6", "0,1,0,0,0,0"):
        "15229c54a0a91fb8dcd5a6a699e4a1af60ddf680695a8914e02feeae77ecc42c",
    ("character", "E7", "1,0,0,0,0,0,0"):
        "e201298787a3d0555b79154cef2b9e3ab07733c2e9ef4ae89592381b9469302b",
    ("character", "E8", "0,0,0,0,0,0,0,1"):
        "6265775a0300654653b5ce32f9c505d33e46aac07fd2e13162691345fce54063",
    ("character", "F4", "1,0,0,0"):
        "a72b5b4987f87d3840d8b5e302984da8aa8c93035e28b49a33616033d8740934",
    ("interval", "B2", "adjoint", "--face=-2,2;-1,0;0,-2", "--down-from=2,2@6"):
        "8b30909a813fb390f338de538d7ff87e9fcf53eb3f95db39350bba6f7b351068",
    # Koszul reports from constituent dicts and one power pass per degree: a
    # 201-point A1 chain (about 60 s that way), a 101-point one with its
    # witness, the 195-point A3 and 144-point B3 facets, a 66-point A2 edge with
    # its witness, and an E6 vertex, where |W| = 51840 outweighs the supports.
    ("koszul", "A1", "adjoint", "--face=2", "--lo=0@0", "--hi=400@200"):
        "0265c39e0e17c51120cfde2ccc1cdc16dccb1783346bc8699a803b4eb751f600",
    ("koszul", "A1", "adjoint", "--face=2", "--lo=0@0", "--hi=200@100", "--witness"):
        "cf7a96c7fb5de460a06bc07e32b1c7c7c2c85347c3af8ee0807bdde05cc936bb",
    ("koszul", "A3", "adjoint", "--face=-2,1,0;-1,-1,1;-1,1,1;0,-1,2",
     "--lo=14,3,1@0", "--hi=2,3,13@12"):
        "69db44b12e629bdaae326972d3dc6335aa9bccf9b215573a111701cea8c374ee",
    ("koszul", "B3", "adjoint", "--face=-2,1,0;-1,-1,2;-1,0,0;-1,1,-2;0,-1,0",
     "--lo=10,2,2@0", "--hi=0,2,2@10"):
        "324692a823a6476e1e405145e5a2c42d3d3dc8eade9f911e6300c1b883174e9a",
    ("koszul", "A2", "adjoint", "--face=2,-1;1,1", "--lo=0,0@0", "--hi=30,0@20", "--witness"):
        "73b4440e962c298029c6b0cb622a7fe92c4a3544fd4fd9b81d4b6db559f10805",
    ("koszul", "E6", "adjoint", "--face=0,1,0,0,0,0", "--lo=0,0,0,0,0,0@0",
     "--hi=0,2,0,0,0,0@2"):
        "f9fea8a53148dd230a968c6055a0d22bb5358dd9be6f72f1717cd36a72032fd2",
    # Face-order intervals as the depth-first search with one search per
    # candidate gave them: a thin 300-step chain in an A3 facet, a 40-step B3
    # facet interval, an A2 downset, and a gldim report through the
    # interval-closedness check of its point set.
    ("interval", "A3", "adjoint", "--face=-2,1,0;-1,-1,1;-1,1,1;0,-1,2",
     "--lo=0,300,0@0", "--hi=0,0,600@300"):
        "7708017b34824c9d59f9270eab80b8e7935027d1adaf3050d2a0164902e7e396",
    ("interval", "B3", "adjoint", "--face=-2,1,0;-1,-1,2;-1,0,0;-1,1,-2;0,-1,0",
     "--lo=40,0,0@0", "--hi=0,0,0@40"):
        "f8f3e142550dcaa45f755a1ed72642dc0f6645b4a05bbe86dace3e70c86a58fe",
    ("interval", "A2", "adjoint", "--face=2,-1;1,1", "--down-from=10,10@10"):
        "208dc1eed80c23d83957d81f4c6ec040c431197ed73d4ac9b81f05a1cf9c6f1e",
    ("gldim", "A2", "adjoint", "--face=2,-1;1,1", "--gamma=0,0@0;2,0@1;1,2@1;3,1@2"):
        "40382c6a6a205f12a0ed9fc96188059a1e91268e5e83e27be5c5ea963604cc12",
    # Koszul reports on explicit point sets whose Hilbert matrices have zero
    # entries at face-incomparable pairs with a positive degree gap (3 and 4 of them).
    ("koszul", "A2", "adjoint", "--face=2,-1;1,1", "--gamma=0,0@0;2,0@1;1,2@1;3,1@2"):
        "be44851c4d595defa5053deb9f59c22fa380258f89efbea1748274e8ee47802e",
    ("koszul", "A2", "adjoint", "--face=2,-1;1,1", "--gamma=1,1@0;1,1@2;3,0@1;2,2@2"):
        "bce4e751976a68ea1f7cbc37ea6eebeed03bdc011824679a7a33d11137459d63",
}


@pytest.mark.parametrize("args", sorted(REPORT_SHA256), ids=" ".join)
def test_reports_byte_identical(args, capsys):
    code = main(["--json", *args])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[args]


def test_koszul_non_face_past_rigidity_guard_exit_4(capsys):
    # The A4 adjoint has 21 weights: the default --bound 6 is past the brute
    # force's guard, so the LP's verdict stands without a counterexample.
    code = main(["koszul", "A4", "adjoint", "--face=1,0,0,1;-1,0,0,-1",
                 "--lo=0,0,0,0@0", "--hi=1,0,0,1@1"])
    assert code == 4
    assert capsys.readouterr().err == "error: subset does not lie on a proper face\n"


def test_reports_deterministic_across_runs(run):
    args = ("koszul", "A2", "adjoint", "--face", "2,-1;1,1",
            "--lo", "0,0@0", "--hi", "3,0@2", "--witness")
    first = run("--json", *args)
    second = run("--json", *args)
    assert first == second


def test_workers_flag_removed(run):
    run("--workers", "4", "roots", "A1", expect=2)


def test_no_cache_flag_removed(run):
    run("--no-cache", "roots", "A1", expect=2)


def test_face_lp_past_fourier_motzkin_guard_exit_2(capsys):
    # One E7 adjoint weight: stage 4 would combine 619 369 row pairs.
    code = main(["rigid", "E7", "adjoint", "--face=1,0,0,0,0,0,0", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: face LP guarded to 200000 Fourier-Motzkin row pairs "
                            "per stage, got 619369\n")


def test_face_lp_below_fourier_motzkin_guard(run):
    # The E6 adjoint's largest stage combines 15 627 row pairs.
    obj = _json(run, "rigid", "E6", "adjoint", "--face=0,1,0,0,0,0", "--bound", "1")
    assert obj["face"] is True


@pytest.mark.parametrize("args", [
    ("B3", "adjoint", "--face=-2,1,0;-1,0,0;0,-1,0", "--lo=10,2,2@0", "--hi=4,2,2@6"),
    ("A2", "adjoint", "--face=2,-1;1,1", "--gamma=0,0@0;0,0@3"),
], ids=["B3-gldim-5-over-3", "A2-gldim-3-over-2"])
def test_koszul_internal_error_exit_5(args, capsys):
    # gldim exceeds total_mult: an ArithmeticError inside the report is one
    # stderr line and exit 5, not a traceback
    code = main(["koszul", *args])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("internal error: global dimension ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["gldim", "koszul"])
@pytest.mark.parametrize("points", [(), ("--gamma=",), ("--lo=0,0@0",), ("--gamma=;",),
                                    ("--gamma= ; ;", "--lo=0,0@0", "--hi=2,-1@1")], ids=repr)
def test_missing_point_set_exit_2(command, points, capsys):
    code = main([command, "A2", "adjoint", "--face=2,-1", *points])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {command} needs --lo and --hi, or a nonempty --gamma\n"


def test_cache_dir_naming_a_file_is_ignored(tmp_path, capsys):
    # Nothing is persisted, so a --cache-dir that is a regular file cannot
    # stop the report from being printed.
    path = tmp_path / "not-a-directory"
    path.write_text("")
    code = main(["--cache-dir", str(path), "--json", "character", "A2", "2,2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 27


def test_no_file_written_under_any_cache_location(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("FACEKOSZUL_CACHE_DIR", str(tmp_path / "env"))
    for args in (["--cache-dir", str(tmp_path / "flag")], []):
        code = main([*args, "--json", "character", "B2", "1,1"])
        assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["dimension"] == 16
    assert list(tmp_path.iterdir()) == []


def test_console_entrypoint_smoke():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "facekoszul", "roots", "A1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and "1 positive roots" in r.stdout
