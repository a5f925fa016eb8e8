"""Command line surface: exit codes, canonical output, file formats."""

import hashlib
import json
import re

import pytest

import finiteqm.cli as cli
from finiteqm.cyclotomic import conductor_for
from finiteqm.states import StateSet


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_dim3_passes(self, capsys):
        code, out = run(capsys, "verify", "--dim", "3")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and all(data["checks"].values())

    def test_output_byte_stable(self, capsys):
        _, first = run(capsys, "verify", "--dim", "2")
        _, second = run(capsys, "verify", "--dim", "2")
        assert first == second


class TestGroup:
    def test_wh_dim2(self, capsys):
        code, out = run(capsys, "group", "--dim", "2", "--which", "wh")
        assert code == 0
        assert json.loads(out)["order"] == 16

    def test_clifford_dim3(self, capsys):
        code, out = run(capsys, "group", "--dim", "3", "--which", "clifford")
        assert code == 0
        assert json.loads(out)["order"] == 2592

    def test_projective_dim2(self, capsys):
        code, out = run(capsys, "group", "--dim", "2", "--which", "projective")
        assert json.loads(out)["order"] == 24

    def test_elements_export_roundtrip(self, capsys):
        code, out = run(
            capsys, "group", "--dim", "2", "--which", "wh", "--elements"
        )
        data = json.loads(out)
        assert len(data["elements"]) == 16
        from finiteqm.qgroups import UMatrix

        mats = [UMatrix.from_json(e) for e in data["elements"]]
        assert all(mat.is_unitary() for mat in mats)

    # SHA-256 of stdout of `group --dim N --which W --elements`, recorded
    # when element bodies still came from the exact closure
    ELEMENTS_SHA256 = {
        (2, "wh"): "e6e33924855d61db94b3ea4ed5f4a0a03d4d52cc9ceba2b7964027663e2affe3",
        (2, "clifford"): "a80fce129d1119ea33dee6d06648596b080aca539a4e44daacecf9b7379e3d97",
        (2, "projective"): "84dc263fc32e0dbbf0fd8c36b58d0d0f33b097a2f7afd6a0e926fdf9b001cc36",
        (3, "wh"): "f60477b42687ff5dd3a1c2c31e571f31d0e65900e78646886a25319017c9de58",
        (3, "clifford"): "0afe1f18d8d9bd2d77deb31fd5d4c769373b42a7e2689155ec847fe4c0ff385c",
        (3, "projective"): "0cbf49cefa7d2e8f8a3287b886b9ad06ce812348ce9120b5b401a1aea5caad6d",
    }

    @pytest.mark.parametrize("n,which", sorted(ELEMENTS_SHA256))
    def test_elements_bytes_pinned(self, capsys, n, which):
        code, out = run(
            capsys, "group", "--dim", str(n), "--which", which, "--elements"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.ELEMENTS_SHA256[(n, which)]

    @pytest.mark.parametrize("which", ["wh", "clifford", "projective"])
    def test_closure_is_order_only_without_elements(self, capsys, monkeypatch, which):
        import finiteqm.qgroups as qgroups

        calls = []
        bodies = qgroups._bodies

        def recording(*args):
            calls.append(1)
            return bodies(*args)

        monkeypatch.setattr(qgroups, "_bodies", recording)
        argv = ["group", "--dim", "2", "--which", which]
        code, plain = run(capsys, *argv)
        assert code == 0 and calls == []
        code, full = run(capsys, *argv, "--elements")
        assert code == 0 and calls == [1]
        data = json.loads(full)
        assert data.pop("elements") and data.pop("words")
        assert plain == cli.canonical_dumps(data) + "\n"

    def test_stderr_names_closure_path(self, capsys):
        argv = ["group", "--dim", "3", "--which", "clifford"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            '{"conductor":24,"dim":3,"failures":[],"generators":["X","F","S"],'
            '"ok":true,"order":2592,"projective":false}\n'
        )
        assert re.fullmatch(
            r"closure in \d+\.\d\ds \(order-only mod 73\)\n", captured.err
        )
        assert cli.main(argv + ["--elements"]) == 0
        assert re.fullmatch(
            r"closure in \d+\.\d\ds \(mod 73, exact bodies\)\n",
            capsys.readouterr().err,
        )

    def test_stderr_names_no_prime_for_projective(self, capsys):
        # the projective count reads no residue, so the message names no prime
        argv = ["group", "--dim", "3", "--which", "projective"]
        assert cli.main(argv) == 0
        assert re.fullmatch(
            r"closure in \d+\.\d\ds \(order-only, projective\)\n",
            capsys.readouterr().err,
        )
        assert cli.main(argv + ["--elements"]) == 0
        assert re.fullmatch(
            r"closure in \d+\.\d\ds \(exact bodies, projective\)\n",
            capsys.readouterr().err,
        )

    def test_order_off_the_closed_forms_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_order_fits", lambda which, n, order: False)
        code, out = run(capsys, "group", "--dim", "2", "--which", "wh")
        assert code == 1
        data = json.loads(out)
        assert not data["ok"] and data["order"] == 16
        assert data["failures"] == [{"check": "closed-form order", "actual": 16}]

    def test_cached_orders_must_fit_closed_forms(self):
        assert cli._order_fits("wh", 2, 16) and not cli._order_fits("wh", 2, 17)
        for n, order in [(2, 24), (3, 216), (4, 768), (5, 3000), (6, 5184), (7, 16464)]:
            assert cli._order_fits("projective", n, order)
            assert not cli._order_fits("projective", n, order * 2)
        for n, order in [(2, 192), (3, 2592), (4, 6144), (5, 30000), (6, 124416)]:
            assert cli._order_fits("clifford", n, order)
        assert not cli._order_fits("clifford", 6, 497664)
        assert not cli._order_fits("clifford", 2, "192")


class TestCensus:
    def test_census_matches_closed_forms(self, capsys):
        code, out = run(capsys, "census", "--dims", "2", "3", "4", "5", "6")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["failures"] == []
        assert [
            [row["dim"], row["wh"], row["clifford"], row["scalars"], row["projective"]]
            for row in data["rows"]
        ] == [
            [2, 16, 192, 8, 24],
            [3, 27, 2592, 12, 216],
            [4, 128, 6144, 8, 768],
            [5, 125, 30000, 10, 3000],
            [6, 432, 124416, 24, 5184],
        ]

    def test_census_rows_past_six(self, capsys):
        # these Clifford orders were computed by this package (the projective
        # search with its Schreier scalars); CL(7) was also counted by the
        # plain search of every element, and |PCL(N)| is Appleby's closed form
        code, out = run(capsys, "census", "--dims", "7", "8", "9")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["failures"] == []
        assert [
            [row["dim"], row["wh"], row["clifford"], row["scalars"], row["projective"]]
            for row in data["rows"]
        ] == [
            [7, 343, 460992, 28, 16464],
            [8, 1024, 393216, 16, 24576],
            [9, 729, 472392, 9, 52488],
        ]

    def test_census_row_ten(self, capsys):
        # computed by this package: the quotient search of CL(10) finds
        # |PCL(10)| = 72000 classes and 40 Schreier scalars, under the
        # default cap although |CL(10)| = 2880000 exceeds it
        code, out = run(capsys, "census", "--dims", "10")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["failures"] == []
        assert [
            [row["dim"], row["wh"], row["clifford"], row["scalars"], row["projective"]]
            for row in data["rows"]
        ] == [[10, 2000, 2880000, 40, 72000]]

    def test_timings_go_to_stderr(self, capsys):
        code = cli.main(["census", "--dims", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert re.fullmatch(r"dim 2 in \d+\.\d\ds\n", captured.err)
        assert "in " not in captured.out

    def test_scalar_count_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "center_of", lambda table: [])
        code, out = run(capsys, "census", "--dims", "2")
        assert code == 1
        data = json.loads(out)
        assert data["failures"] == [
            {"check": "scalar subgroup", "dim": 2, "expected": 8, "actual": 0}
        ]

    def test_flags(self):
        args = cli.build_parser().parse_args(["census", "--max-closure", "9"])
        assert args.max_closure == 9 and args.dims == [2, 3, 4, 5, 6]
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["census", "--dims", "1"])

    def test_order_off_the_closed_forms_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_order_fits", lambda which, n, order: which != "wh")
        code, out = run(capsys, "census", "--dims", "3")
        assert code == 1
        assert json.loads(out)["failures"] == [
            {"check": "closed-form order wh", "dim": 3, "actual": 27}
        ]


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cqs", "--dim", "2"],
            ["mub", "--dim", "3"],
            ["verify", "--dim", "2"],
            ["galois", "--p", "2"],
        ],
    )
    def test_closure_flags_only_where_read(self, argv):
        parser = cli.build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--max-closure", "2"])

    def test_closure_flags_on_group_and_crt(self):
        parser = cli.build_parser()
        for argv in (["group", "--dim", "2", "--which", "wh"], ["crt", "--dim", "6"]):
            args = parser.parse_args(argv + ["--max-closure", "9"])
            assert args.max_closure == 9


# SHA-256 of stdout of commands whose field products run in the complex
# embedding (phi(m) >= 24), recorded while they still ran against right
# operators
EMBEDDING_SIDE_SHA256 = {
    ("cqs", "--dim", "5", "--steps", "1"): (  # m = 120
        "267b21d0a59a19abbe72ff94e4a786c3f4725337b3c8edaf83bb01e9b3d3b970"
    ),
    ("group", "--dim", "9", "--which", "clifford"): (  # m = 72
        "8f78bdb4bc9114f65c305c7d6a2edaff5d645e92f9282500f2f85d7029ac4a7d"
    ),
}


@pytest.mark.parametrize("argv", sorted(EMBEDDING_SIDE_SHA256))
def test_embedding_side_stdout_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMBEDDING_SIDE_SHA256[argv]


# SHA-256 of the stdout of cqs --dim 3 --steps 2 (8805 states, whose
# literal pairwise check covers 38.8 million pairs), recorded while the Gram
# kernel still recovered every coefficient of each pair
D3S2_SHA256 = "280fddcb9d5d97d8698c41a9623dd56d103be96042212f838f125051c09c5fea"


def test_dim3_step2_stdout_pinned(capsys):
    code, out = run(capsys, "cqs", "--dim", "3", "--steps", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D3S2_SHA256


class TestCqs:
    def test_dim2_step1_counts(self, capsys):
        code, out = run(capsys, "cqs", "--dim", "2", "--steps", "1")
        assert code == 0
        data = json.loads(out)
        step1 = next(r for r in data["reports"] if r["step"] == 1)
        assert step1["deduped_candidates"] == 48
        assert step1["kept"] == 24
        assert data["count"] == 30
        assert data["requirements"]["pairwise_rational"]

    def test_steps_zero(self, capsys):
        code, out = run(capsys, "cqs", "--dim", "2", "--steps", "0")
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_mismatch_exits_nonzero_with_counts(self, capsys, monkeypatch):
        # force a wrong target: the command must fail loudly, not silently
        monkeypatch.setitem(
            cli._EXPECTED_STEPS, (2, 1), {"deduped_candidates": 47}
        )
        code, out = run(capsys, "cqs", "--dim", "2", "--steps", "1")
        assert code == 1
        data = json.loads(out)
        assert not data["ok"]
        assert data["failures"][0]["expected"] == 47
        assert data["failures"][0]["actual"] == 48
        assert "counts" in data["failures"][0]

    def test_resume(self, capsys, tmp_path):
        out_file = tmp_path / "step1.json"
        code, _ = run(
            capsys, "cqs", "--dim", "2", "--steps", "1", "--out", str(out_file)
        )
        assert code == 0
        code, out = run(
            capsys, "cqs", "--dim", "2", "--steps", "1", "--resume", str(out_file)
        )
        assert code == 0
        assert json.loads(out)["count"] == 414

    def test_resume_from_empty_set(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        ss = StateSet(dim=3, conductor=conductor_for(3))
        empty.write_text(json.dumps(ss.to_json()))
        code, out = run(
            capsys, "cqs", "--dim", "3", "--steps", "1", "--resume", str(empty)
        )
        assert code == 2
        (failure,) = json.loads(out)["failures"]
        assert failure["error"] == "ValueError: initial state set is empty"


class TestMub:
    def test_dim3(self, capsys):
        code, out = run(capsys, "mub", "--dim", "3")
        assert code == 0
        data = json.loads(out)
        assert data["n_bases"] == 4 and data["verified"]

    def test_dim4_galois(self, capsys):
        code, out = run(capsys, "mub", "--dim", "4")
        assert code == 0
        assert json.loads(out)["n_bases"] == 5

    def test_from_orbit(self, capsys):
        code, out = run(capsys, "mub", "--dim", "2", "--from-orbit")
        assert code == 0
        assert json.loads(out)["n_bases"] == 3

    def test_from_orbit_forms_one_probability_matrix(self, capsys, monkeypatch):
        import finiteqm.mub as mub

        calls = []
        probabilities = mub.probabilities

        def counting(rows, cols):
            calls.append(1)
            return probabilities(rows, cols)

        monkeypatch.setattr(mub, "probabilities", counting)
        code, out = run(capsys, "mub", "--dim", "3", "--from-orbit")
        assert code == 0
        data = json.loads(out)
        assert data["n_bases"] == 4 and data["verified"] and not data["failures"]
        assert len(calls) == 1

    def test_non_prime_power_fails(self, capsys):
        code, out = run(capsys, "mub", "--dim", "6")
        assert code == 1
        assert not json.loads(out)["ok"]


class TestCrt:
    def test_dim6_projective(self, capsys):
        code, out = run(capsys, "crt", "--dim", "6")
        assert code == 0
        data = json.loads(out)
        assert data["factors"] == [2, 3]
        pc = data["product_check"]
        assert pc["projective_matches"] is True
        assert pc["shift_tensor_ok"] and pc["clock_tensor_ok"]
        energy5 = next(e for e in data["energy"] if e["k"] == 5)
        assert energy5["components"] == [[1, 2], [1, 3]]

    def test_single_factor_skipped(self, capsys):
        code, out = run(capsys, "crt", "--dim", "9")
        assert code == 0
        assert json.loads(out)["product_check"]["skipped"]


class TestBlochExport:
    def test_octahedron_vertices(self, capsys, tmp_path):
        state_file = tmp_path / "states.json"
        run(capsys, "cqs", "--dim", "2", "--steps", "0", "--out", str(state_file))
        code, out = run(capsys, "bloch-export", "--in", str(state_file))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,z,generation"
        points = {tuple(round(float(v), 9) for v in ln.split(",")[:3])
                  for ln in lines[1:]}
        assert points == {
            (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
        }

    def test_rejects_wrong_dimension(self, capsys, tmp_path):
        state_file = tmp_path / "s3.json"
        run(capsys, "cqs", "--dim", "3", "--steps", "0", "--out", str(state_file))
        code, out = run(capsys, "bloch-export", "--in", str(state_file))
        assert code == 1


class TestGalois:
    def test_field_table(self, capsys):
        code, out = run(capsys, "galois", "--p", "2", "--ell", "2")
        assert code == 0
        data = json.loads(out)
        assert data["field"]["modulus"] == [1, 1, 1]
        assert [e["trace"] for e in data["elements"]] == [0, 0, 1, 1]

    def test_bad_prime(self, capsys):
        code, out = run(capsys, "galois", "--p", "6")
        assert code == 2
        assert not json.loads(out)["ok"]
