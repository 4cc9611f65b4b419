import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tropmirror
from tropmirror.cli import main
from tropmirror.triangulate import CentralTriangulation

from conftest import CUBE_VERTS, CUBIC_DUAL_VERTS, CUBIC_VERTS, OCTA_VERTS


@pytest.fixture()
def cubic_files(tmp_path, capsys):
    poly = tmp_path / "cubic.json"
    poly.write_text(json.dumps({"rank": 2, "vertices": CUBIC_VERTS}))
    dual = tmp_path / "dual.json"
    tri = tmp_path / "tri.json"
    tri_dual = tmp_path / "tri_dual.json"
    assert main(["dual", str(poly), "-o", str(dual)]) == 0
    assert main(["triangulate", str(poly), "-o", str(tri)]) == 0
    assert main(["triangulate", str(dual), "-o", str(tri_dual)]) == 0
    capsys.readouterr()
    return poly, dual, tri, tri_dual


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dual_roundtrip(tmp_path, capsys):
    poly = tmp_path / "cubic.json"
    poly.write_text(json.dumps({"rank": 2, "vertices": CUBIC_VERTS}))
    dual = tmp_path / "dual.json"
    code, env = run_json(capsys, ["dual", str(poly), "-o", str(dual)])
    assert code == 0
    assert sorted(map(tuple, env["result"]["vertices"])) == sorted(
        CUBIC_DUAL_VERTS
    )
    # involution
    back = tmp_path / "back.json"
    code, env = run_json(capsys, ["dual", str(dual), "-o", str(back)])
    assert sorted(map(tuple, env["result"]["vertices"])) == sorted(CUBIC_VERTS)


def test_validate_ok_and_exit_codes(cubic_files, capsys, tmp_path):
    _, _, tri, _ = cubic_files
    code, env = run_json(capsys, ["validate", str(tri)])
    assert code == 0 and env["result"]["valid"]
    # corrupt: drop one simplex
    data = json.loads(tri.read_text())
    data["boundary_simplices"] = data["boundary_simplices"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, env = run_json(capsys, ["validate", str(bad)])
    assert code == 1 and not env["result"]["valid"]


def test_missing_file_is_input_error(capsys):
    code = main(["validate", "/nonexistent.json"])
    assert code == 1


def test_unwritable_output_path_is_input_error(cubic_files, capsys, tmp_path):
    # a path the user gave that cannot be written is their error, named in
    # the report, and no result is printed
    poly = cubic_files[0]
    for command in ("dual", "triangulate"):
        out = tmp_path / "missing" / f"{command}.json"
        error = _assert_input_error(capsys, [command, str(poly), "-o", str(out)])
        assert str(out) in error, command
        assert not out.parent.exists()


def test_hodge_cubic(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    code, env = run_json(capsys, ["hodge", str(tri), str(tri_dual), "--ring", "q"])
    assert code == 0
    assert env["result"]["ranks"] == [[1, 1], [1, 1]]


def test_mirror_check_cubic(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    code, env = run_json(capsys, ["mirror-check", str(tri), str(tri_dual)])
    assert code == 0
    assert env["result"]["verdict"] == "mirror symmetry holds"
    assert all(env["result"]["match"].values())
    assert env["result"]["transfer_spot_checks"]["fundamental_class_nonzero"]


def test_mirror_check_same_under_optimize(cubic_files, tmp_path):
    # `python -O` strips assert statements; every check must survive it
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": [[-1, 2], [-1, 1]]}))
    # the K3 pair reaches wedge degree 2 and the contraction at rank 3
    k3 = []
    for name, verts in (("cube", CUBE_VERTS), ("octa", OCTA_VERTS)):
        poly = tmp_path / f"{name}.json"
        poly.write_text(json.dumps({"rank": 3, "vertices": verts}))
        k3.append(str(tmp_path / f"tri_{name}.json"))
        assert main(["triangulate", str(poly), "-o", k3[-1]]) == 0
    cubic = [str(tri), str(tri_dual)]
    env = dict(os.environ, PYTHONPATH=str(Path(tropmirror.__file__).parents[1]))
    for command in (
        ["mirror-check", *cubic],
        ["sweep", *cubic],
        ["patchwork", *cubic, "--divisor", str(div)],
        ["mirror-check", *k3],
        ["hodge", *k3, "--ring", "z"],
    ):
        outs = []
        for flags in ([], ["-O"]):
            run = subprocess.run(
                [sys.executable, *flags, "-m", "tropmirror.cli", *command],
                capture_output=True, env=env, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1], command


def test_one_parser_per_process_answers_like_a_fresh_one(cubic_files, capsys):
    # main parses with one parser per process: a usage error, then
    # mirror-check, then the Z table, each in this process, print what a
    # fresh process prints and return its exit code
    _, _, tri, tri_dual = cubic_files
    cubic = [str(tri), str(tri_dual)]
    env = dict(os.environ, PYTHONPATH=str(Path(tropmirror.__file__).parents[1]))
    for argv, want in (
        (["hodge", *cubic, "--ring", "r"], 1),
        (["mirror-check", *cubic], 0),
        (["hodge", *cubic, "--ring", "z"], 0),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "tropmirror.cli", *argv],
            capture_output=True, env=env, timeout=120, text=True,
        )
        assert code == fresh.returncode == want, argv
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv
    assert tropmirror.cli.build_parser() is tropmirror.cli.build_parser()


def test_divisor_class_and_patchwork(cubic_files, capsys, tmp_path):
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": [[-1, 2], [-1, 1]]}))
    code, env = run_json(
        capsys, ["divisor-class", str(tri), str(tri_dual), "--divisor", str(div)]
    )
    assert code == 0
    assert env["result"]["class_nonzero"]
    assert len(env["result"]["cycle"]) == 1
    code, env = run_json(
        capsys, ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)]
    )
    assert code == 0
    assert env["result"]["verdict"] == "connected"
    assert env["result"]["betti"] == [1, 1]


def test_patchwork_from_signs(cubic_files, capsys, tmp_path):
    _, _, tri, tri_dual = cubic_files
    tri_data = json.loads(tri.read_text())
    from tropmirror.triangulate import CentralTriangulation

    T = CentralTriangulation.from_dict(tri_data)
    signs = {p: 0 for p in T.polytope.lattice_points}
    signs[(0, 0)] = 1
    signs[(-1, 1)] = 1  # the D8 divisor in sign form
    sf = tmp_path / "s.json"
    sf.write_text(
        json.dumps({"signs": [[list(p), b] for p, b in sorted(signs.items())]})
    )
    code, env = run_json(
        capsys, ["patchwork", str(tri), str(tri_dual), "--signs", str(sf)]
    )
    assert code == 0
    assert env["result"]["verdict"] == "two_components"
    assert env["result"]["components"] == 2


def _assert_input_error(capsys, argv):
    assert main(argv) == 1, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    err = json.loads(captured.err)
    assert err["kind"] == "input", argv
    return err["error"]


def test_divisor_file_repeating_a_ray_is_input_error(cubic_files, capsys, tmp_path):
    # a ray listed twice cancels over F2, so a divisor file that lists one
    # twice is refused rather than read as two different divisors
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": [[-1, 2], [-1, 1], [-1, 2]]}))
    for command in ("patchwork", "divisor-class"):
        error = _assert_input_error(
            capsys, [command, str(tri), str(tri_dual), "--divisor", str(div)]
        )
        assert "repeats" in error, command


def test_divisor_rays_must_be_a_list(cubic_files, capsys, tmp_path):
    # the rays of a divisor file are a list: an empty object is not read as
    # the zero divisor, and neither a list of non-points nor a top-level
    # list is a divisor file
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    for data in ({"rays": {}}, {"rays": {"-1": 2}}, {"rays": [1]}, []):
        div.write_text(json.dumps(data))
        for command in ("patchwork", "divisor-class"):
            error = _assert_input_error(
                capsys, [command, str(tri), str(tri_dual), "--divisor", str(div)]
            )
            assert str(div) in error, (data, command)
    div.write_text(json.dumps({"rays": []}))
    code, env = run_json(capsys, ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)])
    assert code == 0 and env["result"]["divisor"] == []


def test_triangulation_point_of_the_wrong_length_is_input_error(cubic_files, capsys, tmp_path):
    # a boundary point has as many coordinates as the polytope's rank: a
    # short one in the rank-3 cube's triangulation, or a long one in the
    # cubic's, is refused when the file is read, naming the file, not met
    # later as an index out of range
    _, _, tri, _ = cubic_files
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"rank": 3, "vertices": CUBE_VERTS}))
    tri_cube = tmp_path / "tri_cube.json"
    assert main(["triangulate", str(cube), "-o", str(tri_cube)]) == 0
    capsys.readouterr()
    for path, point in ((tri_cube, [0, -1]), (tri, [0, -1, 0])):
        data = json.loads(path.read_text())
        data["boundary_simplices"][0][0] = point
        bad = tmp_path / f"bad_{path.name}"
        bad.write_text(json.dumps(data))
        error = _assert_input_error(capsys, ["validate", str(bad)])
        assert str(bad) in error and str(tuple(point)) in error, error
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()


def test_malformed_signs_files_are_input_errors(cubic_files, capsys, tmp_path):
    # signs are 0 or 1, exactly one per lattice point of the Newton polytope
    _, _, tri, tri_dual = cubic_files
    T = CentralTriangulation.from_dict(json.loads(tri.read_text()))
    good = [[list(p), int(p == (0, 0))] for p in sorted(T.polytope.lattice_points)]
    cases = {
        "outside": good + [[[5, 5], 0]],
        "three": [[p, 3 if p == [-1, 1] else b] for p, b in good],
        "repeat": good + [[[-1, 1], 1]],
        "missing": good[1:],
    }
    for name, signs in cases.items():
        sf = tmp_path / f"{name}.json"
        sf.write_text(json.dumps({"signs": signs}))
        _assert_input_error(capsys, ["patchwork", str(tri), str(tri_dual), "--signs", str(sf)])
    sf.write_text(json.dumps({"signs": good}))
    code, env = run_json(capsys, ["patchwork", str(tri), str(tri_dual), "--signs", str(sf)])
    assert code == 0 and env["result"]["divisor"] == []


def test_non_integer_divisor_and_signs_are_input_errors(cubic_files, capsys, tmp_path):
    # coordinates are integers: a float ray is not truncated to a cubic ray,
    # a float point is not read as the lattice point it truncates to, and a
    # sign is the integer 0 or 1, not 1.0 or true
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": [[-1.7, 2.2]]}))
    for command in ("patchwork", "divisor-class"):
        error = _assert_input_error(
            capsys, [command, str(tri), str(tri_dual), "--divisor", str(div)]
        )
        assert "non-integer" in error, command
    T = CentralTriangulation.from_dict(json.loads(tri.read_text()))
    good = [[list(p), int(p == (0, 0))] for p in sorted(T.polytope.lattice_points)]
    cases = {
        "float point": good + [[[0.5, 0], 0]],
        "float sign": [[p, 1.0 if p == [0, 0] else b] for p, b in good],
        "bool sign": [[p, True if p == [0, 0] else b] for p, b in good],
    }
    for name, signs in cases.items():
        sf = tmp_path / "s.json"
        sf.write_text(json.dumps({"signs": signs}))
        error = _assert_input_error(
            capsys, ["patchwork", str(tri), str(tri_dual), "--signs", str(sf)]
        )
        assert "repeats" not in error, name


def test_bool_and_float_coordinates_are_input_errors(cubic_files, capsys, tmp_path):
    # JSON true and 2.0 compare equal to the integers 1 and 2, yet neither
    # is an integer coordinate: a polytope vertex, a triangulation point, a
    # divisor ray and a signs point that carry one are all refused
    _, _, tri, tri_dual = cubic_files
    T = CentralTriangulation.from_dict(json.loads(tri.read_text()))
    good = [[list(p), int(p == (0, 0))] for p in sorted(T.polytope.lattice_points)]
    cases = (
        ([[True, 0], [0, 1], [-1, -1]], (1, -1), [True, -1]),
        ([[-1, -1], [-1, 2], [2.0, -1]], (2, -1), [2.0, -1]),
    )
    for vertices, point, bad in cases:
        # point is a boundary lattice point of the cubic, written as bad
        def swap(p):
            return bad if tuple(p) == point else p

        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"rank": 2, "vertices": vertices}))
        data = json.loads(tri.read_text())
        data["boundary_simplices"] = [[swap(p) for p in s] for s in data["boundary_simplices"]]
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(data))
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"rays": [bad]}))
        sf = tmp_path / "s.json"
        sf.write_text(json.dumps({"signs": [[swap(p), b] for p, b in good]}))
        for argv in (
            ["dual", str(poly)],
            ["validate", str(tf)],
            ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)],
            ["patchwork", str(tri), str(tri_dual), "--signs", str(sf)],
        ):
            assert "non-integer" in _assert_input_error(capsys, argv), argv


def test_sweep_samples_below_one_is_usage_error(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    pair = ["sweep", str(tri), str(tri_dual)]
    for flags in (["--samples", "0"], ["--samples", "-3"], ["--samples", "0", "--seed", "2"]):
        assert "--samples" in _assert_input_error(capsys, pair + flags + ["--no-betti"])
    code, env = run_json(capsys, pair + ["--samples", "1", "--no-betti"])
    assert code == 0 and len(env["result"]["rows"]) == 1


def test_sweep_cubic_classes(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    code, env = run_json(
        capsys, ["sweep", str(tri), str(tri_dual), "--no-betti"]
    )
    assert code == 0
    rows = env["result"]["rows"]
    assert len(rows) == 128
    assert env["result"]["agreement"] == "128/128"
    for row in rows:
        assert row["b0"] in (1, 2)


def test_flipped_verdict_is_an_internal_error(cubic_pair, cubic_files, capsys, monkeypatch, tmp_path):
    # a doctored is_null_class flips every verdict, so each row disagrees
    # with its b0: sweep_rows raises, and the CLI reports an internal error
    import tropmirror.patchwork as patchwork
    from tropmirror.errors import VerdictMismatch

    null = patchwork.is_null_class
    monkeypatch.setattr(patchwork, "is_null_class", lambda *a: not null(*a))
    side = cubic_pair.side_a
    for with_betti in (True, False):
        with pytest.raises(VerdictMismatch):
            patchwork.sweep_rows(side, [0], with_betti=with_betti)
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": []}))
    for argv in (
        ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)],
        ["sweep", str(tri), str(tri_dual), "--samples", "2"],
        ["sweep", str(tri), str(tri_dual), "--samples", "2", "--no-betti"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["kind"] == "internal", argv
        assert "b0" in json.loads(err)["error"], argv


def test_doctored_betti_row_is_an_internal_error(cubic_pair, cubic_files, capsys, monkeypatch, tmp_path):
    # the real complex's Betti vector with b_1 one too high, separately its
    # component count one above its b0, and separately a sign complex with
    # its last top-degree position dropped: real_betti compares each with the
    # other route and raises, and the CLI reports an internal error, also
    # for a sweep without Betti numbers, whose rows run both routes
    import tropmirror.patchwork as patchwork
    from tropmirror.errors import InternalCheckError

    betti = patchwork.RealComplex.betti
    sign_complex = patchwork.PhaseData.sign_complex

    def one_more_b1(rc):
        b = betti(rc)
        return [b[0], b[1] + 1, *b[2:]]

    def one_row_fewer(pd):
        positions = sign_complex(pd)
        positions[pd.side.n].pop()
        return positions

    side = cubic_pair.side_a
    eps = patchwork.signs_from_divisor(side, [])
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": []}))
    for cls, name, doctored, message in (
        (patchwork.RealComplex, "betti", one_more_b1, "sign-cosheaf betti"),
        (patchwork.RealComplex, "component_count", lambda rc: betti(rc)[0] + 1, "component count"),
        (patchwork.PhaseData, "sign_complex", one_row_fewer, "sign-cosheaf betti"),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(cls, name, doctored)
            with pytest.raises(InternalCheckError, match=message):
                patchwork.real_betti(side, eps)
            for argv in (
                ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)],
                ["sweep", str(tri), str(tri_dual), "--samples", "2", "--no-betti"],
            ):
                assert main(argv) == 2, argv
                out, err = capsys.readouterr()
                assert out == ""
                assert json.loads(err)["kind"] == "internal"
                assert message in json.loads(err)["error"]


def test_raw_sweep_on_diamond_pair(tmp_path, capsys):
    from conftest import DIAMOND_VERTS, SQUARE_VERTS

    dia = tmp_path / "dia.json"
    dia.write_text(json.dumps({"rank": 2, "vertices": DIAMOND_VERTS}))
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps({"rank": 2, "vertices": SQUARE_VERTS}))
    T = tmp_path / "T.json"
    Td = tmp_path / "Td.json"
    assert main(["triangulate", str(dia), "-o", str(T)]) == 0
    assert main(["triangulate", str(sq), "-o", str(Td)]) == 0
    capsys.readouterr()
    code, env = run_json(capsys, ["sweep", str(T), str(Td), "--raw"])
    assert code == 0
    rows = env["result"]["rows"]
    assert len(rows) == 32  # 2^5 sign distributions
    assert all(row["b0"] == 2 for row in rows)  # this pair always splits


def test_raw_sweep_refuses_too_many_sign_distributions(tmp_path, capsys, monkeypatch):
    # the K3 cube side has 27 lattice points: 2^27 sign distributions are
    # refused as an input error before any Betti numbers are computed
    monkeypatch.setattr(tropmirror.patchwork, "real_betti", None)
    paths = []
    for name, verts in (("cube", CUBE_VERTS), ("octa", OCTA_VERTS)):
        poly = tmp_path / f"{name}.json"
        poly.write_text(json.dumps({"rank": 3, "vertices": [list(v) for v in verts]}))
        paths.append(str(tmp_path / f"tri_{name}.json"))
        assert main(["triangulate", str(poly), "-o", paths[-1]]) == 0
    capsys.readouterr()
    assert main(["sweep", *paths, "--raw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "input" and str(2 ** 27) in err["error"]


def test_raw_sweep_takes_no_class_flags(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    pair = ["sweep", str(tri), str(tri_dual)]
    for flags in (
        ["--samples", "3"],
        ["--samples", "0"],
        ["--seed", "9"],
        ["--seed", "0"],
        ["--no-betti"],
        ["--samples", "2", "--seed", "1", "--no-betti"],
    ):
        assert main(pair + ["--raw"] + flags) == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "input" and "--raw" in err["error"], flags
    # without --seed the envelope still reads seed 0
    for flags, seed in ((["--samples", "2"], 0), (["--samples", "2", "--seed", "7"], 7)):
        code, env = run_json(capsys, pair + flags + ["--no-betti"])
        assert code == 0 and env["seed"] == seed, flags


def test_sweep_seed_needs_samples(cubic_files, capsys):
    # --seed only picks which classes --samples draws, so without --samples
    # it is a usage error rather than a flag that does nothing
    _, _, tri, tri_dual = cubic_files
    pair = ["sweep", str(tri), str(tri_dual)]
    for flags in (["--seed", "7"], ["--seed", "0"], ["--seed", "7", "--no-betti"]):
        assert main(pair + flags) == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "input" and "--samples" in err["error"], flags
    code, env = run_json(capsys, pair + ["--no-betti"])
    assert code == 0 and env["seed"] == 0 and len(env["result"]["rows"]) == 128


def test_outputs_byte_identical(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    main(["hodge", str(tri), str(tri_dual)])
    first = capsys.readouterr().out
    main(["hodge", str(tri), str(tri_dual)])
    second = capsys.readouterr().out
    assert first == second


def test_text_output_renders(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    code = main(["--out", "text", "hodge", str(tri), str(tri_dual)])
    out = capsys.readouterr().out
    assert code == 0
    assert "# hodge" in out and "ranks" in out


# sha256 of the text reports on the cubic pair, run from the directory of
# the inputs: the text view is never parsed back, so only a digest of the
# whole report sees a changed line
TEXT_REPORTS = {
    "hodge": "ecfa93790ab8c12197d66343ba705e0b598a769ede1b85c109b2590bf8df97ad",
    "mirror-check": "14f3c393abbc9e58e30cb9d6d907c05cb2631a42ea2c2961521837e54bcc4ee3",
    "patchwork": "944a7aac35517a4c935359cd289239e4415ad90a8f07ad6042fbf113e5605c08",
    "sweep": "325338db9c5d7b012842053a00f0ff257e283459d0a0f4bb91a8408961ea3167",
}


def test_text_reports_frozen(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cubic.json").write_text(json.dumps({"rank": 2, "vertices": CUBIC_VERTS}))
    (tmp_path / "d.json").write_text(json.dumps({"rays": [[-1, 2], [-1, 1]]}))
    for argv in (
        ["dual", "cubic.json", "-o", "dual.json"],
        ["triangulate", "cubic.json", "-o", "tri.json"],
        ["triangulate", "dual.json", "-o", "tri_dual.json"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    pair = ["tri.json", "tri_dual.json"]
    digests = {}
    for name, argv in (
        ("hodge", ["hodge", *pair, "--ring", "z"]),
        ("mirror-check", ["mirror-check", *pair]),
        ("patchwork", ["patchwork", *pair, "--divisor", "d.json"]),
        ("sweep", ["sweep", *pair]),
    ):
        assert main(["--out", "text", *argv]) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == TEXT_REPORTS


def test_k3_pair_through_cli(tmp_path, capsys):
    from conftest import CUBE_VERTS, OCTA_VERTS

    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"rank": 3, "vertices": [list(v) for v in CUBE_VERTS]}))
    octa = tmp_path / "octa.json"
    octa.write_text(json.dumps({"rank": 3, "vertices": [list(v) for v in OCTA_VERTS]}))
    T = tmp_path / "T.json"
    Td = tmp_path / "Td.json"
    assert main(["triangulate", str(cube), "-o", str(T)]) == 0
    assert main(["triangulate", str(octa), "-o", str(Td)]) == 0
    capsys.readouterr()
    code, env = run_json(capsys, ["hodge", str(T), str(Td), "--ring", "q"])
    assert code == 0
    assert env["result"]["ranks"] == [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    code, env = run_json(
        capsys,
        ["sweep", str(T), str(Td), "--samples", "4", "--seed", "5", "--no-betti"],
    )
    assert code == 0
    rows = env["result"]["rows"]
    assert len(rows) == 4
    assert env["result"]["agreement"] == "4/4"


def test_ring_command_compatibility(cubic_files, capsys, tmp_path):
    _, _, tri, tri_dual = cubic_files
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"rays": [[-1, 2]]}))
    code = main(
        ["patchwork", str(tri), str(tri_dual), "--divisor", str(div), "--ring", "z"]
    )
    assert code == 1  # patchworking is mod-2 only: it takes no ring
    assert json.loads(capsys.readouterr().err)["kind"] == "input"
    code = main(["patchwork", str(tri), str(tri_dual), "--divisor", str(div)])
    assert code == 0
    capsys.readouterr()
    code, env = run_json(capsys, ["hodge", str(tri), str(tri_dual), "--ring", "z"])
    assert code == 0 and env["result"]["ring"] == "z"


def test_usage_errors_are_input_errors(cubic_files, capsys):
    _, _, tri, tri_dual = cubic_files
    for argv in (
        [],
        ["frobnicate"],
        ["validate"],
        ["validate", str(tri), "--bogus"],
        ["hodge", str(tri), str(tri_dual), "--ring", "r"],
        ["sweep", str(tri), str(tri_dual), "--seed", "x"],
        ["--ring", "z", "mirror-check", str(tri), str(tri_dual)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "input", argv
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--help"])
    assert exc.value.code == 0
    assert "--ring" in capsys.readouterr().out


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    """Every line of the README's command-line block runs and exits 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert len(lines) >= 8 and all(line.startswith("tropmirror ") for line in lines)
    monkeypatch.chdir(tmp_path)
    cubic = {"rank": 2, "vertices": CUBIC_VERTS}
    (tmp_path / "cubic.json").write_text(json.dumps(cubic))
    (tmp_path / "D.json").write_text(json.dumps({"rays": [[-1, 2], [-1, 1]]}))
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_hypothesis_failure_exit_code(cubic_files, capsys, monkeypatch):
    _, _, tri, tri_dual = cubic_files
    from tropmirror.errors import HypothesisFails
    import tropmirror.patchwork as pw

    def boom(side):
        raise HypothesisFails(1, 3)

    monkeypatch.setattr(pw, "check_vanishing_hypothesis", boom)
    div = tri.parent / "d.json"
    div.write_text(json.dumps({"rays": [[-1, 2]]}))
    code = main(
        ["patchwork", str(tri), str(tri_dual), "--divisor", str(div)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "hypothesis" in err


def test_non_integer_coordinate_is_input_error(cubic_files, capsys, tmp_path):
    # (2, -1) is the only point with first coordinate 2, so no sort compares
    # its second coordinate before the loader sees it
    _, _, tri, _ = cubic_files
    data = json.loads(tri.read_text())
    data["boundary_simplices"] = [
        [[2, "x"] if p == [2, -1] else p for p in s]
        for s in data["boundary_simplices"]
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_rank_zero_polytope_is_input_error(tmp_path, capsys):
    poly = tmp_path / "rank0.json"
    poly.write_text(json.dumps({"rank": 0, "vertices": [[]]}))
    for command in ("dual", "triangulate"):
        assert main([command, str(poly)]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "input"


def test_rank_one_polytope_is_input_error(tmp_path, capsys):
    # a segment is full-dimensional at rank 1, but every hypersurface here
    # has dimension n = rank - 1 >= 1
    seg = {"rank": 1, "vertices": [[-1], [1]]}
    poly = tmp_path / "seg.json"
    poly.write_text(json.dumps(seg))
    tri = tmp_path / "segT.json"
    tri.write_text(json.dumps({"polytope": seg, "boundary_simplices": [[[-1]], [[1]]]}))
    for argv in (["dual", str(poly)], ["triangulate", str(poly)], ["validate", str(tri)]):
        assert main(argv) == 1, argv
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "rank 1 is below 2" in err["error"], argv


def test_unexpected_exception_is_internal(cubic_files, capsys, monkeypatch):
    _, _, tri, _ = cubic_files
    import tropmirror.cli as cli

    def boom(T):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr(cli, "validate", boom)
    assert main(["validate", str(tri)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "RuntimeError: unforeseen", "kind": "internal"}
