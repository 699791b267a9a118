"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json

import numpy as np
import pytest

from latticecpwl import boundary as bnd
from latticecpwl import cli
from latticecpwl import lattices as lat


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basis


def test_basis_csv_frozen(capsys):
    code, out, _ = run(capsys, ["basis", "--family", "an", "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,values"
    assert "gram,2,1" in lines and "gram,1,2" in lines


def test_basis_json_schema(capsys):
    code, out, _ = run(
        capsys, ["basis", "--family", "dn-const-a", "--n", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "dn-const-a"
    assert payload["n"] == 3
    assert payload["gram"][0][0] == 4
    G = np.array(payload["generator"])
    assert np.allclose(G @ G.T, np.array(payload["gram"]))


def test_basis_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, ["basis", "--family", "en", "--n", "5"])
    assert code == 2
    assert out == ""
    assert "requires" in err


# ---------------------------------------------------------------------------
# count


def test_count_csv_rows(capsys):
    code, out, _ = run(capsys, ["count", "--family", "an", "--n", "3"])
    assert code == 0
    assert out.splitlines()[1] == "an,3,8,8,8,True"
    code, out, _ = run(capsys, ["count", "--family", "dn-const-a", "--n", "3"])
    assert code == 0
    assert out.splitlines()[1] == "dn-const-a,3,5,5,5,True"
    code, out, _ = run(capsys, ["count", "--family", "an", "--n", "1"])
    assert code == 0
    assert out.splitlines()[1] == "an,1,1,1,1,True"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_ignores_seed(capsys, fmt):
    argv = ["count", "--family", "an", "--n", "5", "--format", fmt]
    code_0, out_0, _ = run(capsys, argv + ["--seed", "0"])
    code_42, out_42, _ = run(capsys, argv + ["--seed", "42"])
    assert code_0 == code_42 == 0
    assert out_0 == out_42


def test_count_en_json_carries_both_readings(capsys):
    code, out, _ = run(
        capsys, ["count", "--family", "en", "--n", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == 156
    assert payload["formula_readings"] == {
        "multiplicity_over_i": 156,
        "multiplicity_literal": 1,
    }
    assert payload["adjudicated_reading"] == "multiplicity_over_i"


# ---------------------------------------------------------------------------
# fold


def test_fold_reports_tiny_deviation(capsys):
    code, out, _ = run(
        capsys,
        ["fold", "--family", "dn-const-a", "--n", "5", "--samples", "10000"],
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "family,n,samples,max_dev"
    fields = row.split(",")
    assert fields[:3] == ["dn-const-a", "5", "10000"]
    assert float(fields[3]) <= 1e-9


# ---------------------------------------------------------------------------
# synth


def test_synth_depth_accounting(capsys):
    code, out, _ = run(capsys, ["synth", "--family", "an", "--n", "3", "--M", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["depth"] == 12  # 3 * M + base depth 9
    assert len(payload["layers"]) == 12


# ---------------------------------------------------------------------------
# eval and decode


def test_eval_outputs_heights(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    # an interior point of D(B) (the projection of (0.3, 0.2, 0.1, 0.4) G) and
    # the projected corner 0, whose fiber has length zero
    pts.write_text("0.31754264805429416 0.3265986323710905 0.9899494936611666\n"
                   "0.0 0.0 0.0\n")
    code, out, _ = run(
        capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)]
    )
    assert code == 0
    values = [float(line) for line in out.splitlines()]
    assert len(values) == 2
    assert all(np.isfinite(values))


def test_eval_prints_each_value_as_its_repr(capsys, tmp_path, monkeypatch):
    # signed zero, a subnormal and a large value keep their exact repr
    values = [-0.0, 5e-324, 1e300, 0.1, -2.5]
    monkeypatch.setattr(cli.fld, "eval_folded_batch", lambda ff, pts: np.array(values))
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0 0.0 0.0\n" * len(values))
    code, out, _ = run(capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 0
    assert out == "".join(repr(float(v)) + "\n" for v in values)


def test_decode_prints_one_symbol_per_bit(capsys, tmp_path, monkeypatch):
    bits = np.array([1, 0, -1, -1, 0, 1], dtype=np.int8)
    monkeypatch.setattr(cli.bnd, "decode_bit_batch", lambda Y, vals: bits)
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5 0.1 0.2 0.3\n" * len(bits))
    code, out, _ = run(capsys, ["decode", "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 0
    assert out == "1\n0\n?\n?\n0\n1\n"


@pytest.mark.parametrize("family", ["dn-second", "en"])
def test_eval_matches_dense_oracle(capsys, tmp_path, family):
    # eval is fold-first; the dense min-max over every membership is its oracle
    basis = lat.build_basis(lat.FamilyId(family, 8))
    Yt = lat.sample_domain(basis, seed=4, count=200)
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in Yt) + "\n")
    code, out, _ = run(capsys, ["eval", "--family", family, "--n", "8", "--in", str(pts)])
    assert code == 0
    dense, _ = bnd.eval_boundary_batch(bnd.build_boundary(basis), Yt)
    values = np.array([float(line) for line in out.splitlines()])
    np.testing.assert_allclose(values, dense, rtol=0, atol=1e-12)


def test_eval_outside_domain_exits_2(capsys, tmp_path):
    # fiber length of (0.3, 0.2, 0.1) through P(B) is -0.436 for an, n = 4
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0 0.0 0.0\n\n0.3 0.2 0.1\n")
    code, out, err = run(capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert f"{pts}: line 3 lies outside D(B)" in err


def test_eval_wrong_dimension_exits_2(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    # a uniformly short file, and a ragged one whose second row is short
    for text, line, got in [("0.3 0.2\n", 1, 2), ("0.1 0.2 0.1\n\n0.3 0.2\n", 3, 2)]:
        pts.write_text(text)
        code, out, err = run(capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)])
        assert code == 2
        assert out == ""
        assert f"{pts}: line {line} has {got} coordinates, expected 3" in err


def test_eval_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, ["eval", "--family", "an", "--n", "4", "--in", str(tmp_path / "nope")]
    )
    assert code == 2


def test_eval_unparseable_file_exits_2(capsys, tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.1 zebra 0.3\n")
    code, _, err = run(capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 2


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    pts = tmp_path / "pts.txt"
    pts.write_bytes(b"\xff\xfe0.1 0.2\n")
    code, out, err = run(capsys, [command, "--family", "an", "--n", "3", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert f"cannot read {pts}: " in err


@pytest.mark.parametrize("command,row", [("eval", "0.1 0.2"), ("decode", "0.5 0.1 0.2")])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_points_exit_2(capsys, tmp_path, command, row, bad):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"{row} 0.3\n\n{row} {bad}\n")
    code, out, err = run(capsys, [command, "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert str(pts) in err and "line 3" in err and "non-finite" in err


def check_decode_against_nearest_corner(capsys, tmp_path, family, n):
    basis = lat.build_basis(lat.FamilyId(family, n))
    Y = lat.sample_parallelotope(basis, seed=9, count=50)
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in Y) + "\n")
    code, out, _ = run(
        capsys, ["decode", "--family", family, "--n", str(n), "--in", str(pts)]
    )
    assert code == 0
    bits = out.splitlines()
    assert set(bits) <= {"0", "1", "?"}
    corners = lat.enumerate_corners(basis)
    oracle = corners.z[lat.cvp_corners_batch(basis, Y), 0]
    for got, want in zip(bits, oracle):
        if got != "?":
            assert int(got) == want


def test_decode_agrees_with_nearest_corner(capsys, tmp_path):
    check_decode_against_nearest_corner(capsys, tmp_path, "an", 4)


@pytest.mark.parametrize("family,n", [("dn-second", 8), ("en", 8)])
def test_decode_agrees_with_nearest_corner_folded(capsys, tmp_path, family, n):
    check_decode_against_nearest_corner(capsys, tmp_path, family, n)


def test_decode_reduces_shifted_points(capsys, tmp_path):
    basis = lat.build_basis(lat.FamilyId("an", 4))
    Y = lat.sample_parallelotope(basis, seed=9, count=20)
    shifted = Y + 3 * basis.G[2] - 2 * basis.G[3]
    for name, pts in [("a.txt", Y), ("b.txt", shifted)]:
        (tmp_path / name).write_text(
            "\n".join(" ".join(repr(float(v)) for v in row) for row in pts) + "\n"
        )
    _, out_a, _ = run(
        capsys, ["decode", "--family", "an", "--n", "4", "--in", str(tmp_path / "a.txt")]
    )
    _, out_b, _ = run(
        capsys, ["decode", "--family", "an", "--n", "4", "--in", str(tmp_path / "b.txt")]
    )
    assert out_a == out_b


@pytest.mark.parametrize("far", ["1e17 0.3 0.2", "0.1 -3e9 0.2"])
def test_decode_point_too_far_to_reduce_exits_2(capsys, tmp_path, far):
    # the spacing of alpha = y Ginv there exceeds the 1e-7 tie band, so the
    # fractional part that picks the coset is rounding noise
    pts = tmp_path / "pts.txt"
    pts.write_text(f"0.5 0.1 0.2\n\n{far}\n")
    code, out, err = run(capsys, ["decode", "--family", "an", "--n", "3", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert f"{pts}: line 3 is too far from the origin to reduce" in err


# ---------------------------------------------------------------------------
# mc and bounds


def test_mc_passes_at_small_n(capsys):
    code, out, _ = run(
        capsys,
        ["mc", "--family", "an", "--n", "4", "--samples", "20000", "--seed", "7"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,seed,samples,estimate,stderr,bound,pass"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["decode_error", "l1_gap"]
    assert all(line.endswith("True") for line in lines[1:])


def test_mc_fails_honestly_at_n8(capsys):
    code, out, _ = run(
        capsys,
        ["mc", "--family", "an", "--n", "8", "--samples", "5000", "--seed", "7"],
    )
    assert code == 1
    assert any(line.endswith("False") for line in out.splitlines()[1:])


def test_mc_beyond_brute_cap_reports_decode_only(capsys):
    code, out, _ = run(
        capsys, ["mc", "--family", "an", "--n", "12", "--samples", "2000"]
    )
    assert code == 1
    kinds = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert kinds == ["decode_error"]


def test_mc_rejects_a_single_sample(capsys):
    # one sample has no standard error (ddof = 1)
    code, out, err = run(capsys, ["mc", "--family", "an", "--n", "4", "--samples", "1"])
    assert code == 2
    assert out == ""
    assert "--samples must be >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fold", "--family", "an", "--n", "4"],
        ["mc", "--family", "an", "--n", "4", "--samples", "100"],
        ["count", "--family", "an", "--n", "6"],
    ],
    ids=["fold", "mc", "count"],
)
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_bounds_with_separation(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "--family", "an", "--n", "4", "--M", "10", "--L", "2", "--w", "4"],
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["separation_copies_log2"] == "30"
    assert rows["separation_condition_satisfied"] == "True"
    assert float(rows["volume_lower"]) < float(rows["volume_exact"])
    assert float(rows["volume_exact"]) <= float(rows["volume_upper"]) * (1 + 1e-12)


def test_bounds_condition_failure_exits_1(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "--family", "an", "--n", "4", "--M", "10", "--L", "2", "--w", "64"],
    )
    assert code == 1


@pytest.mark.parametrize(
    "flags,missing",
    [
        (["--L", "2"], "--M and --w"),
        (["--w", "4"], "--M and --L"),
        (["--M", "10"], "--L and --w"),
        (["--M", "10", "--L", "2"], "--w"),
        (["--L", "2", "--w", "4"], "--M"),
    ],
)
def test_bounds_partial_separation_exits_2(capsys, flags, missing):
    code, out, err = run(capsys, ["bounds", "--family", "an", "--n", "4"] + flags)
    assert code == 2
    assert out == ""
    assert err.rstrip().endswith(f"missing {missing}")


def test_bounds_without_separation_flags(capsys):
    code, out, _ = run(capsys, ["bounds", "--family", "an", "--n", "4"])
    assert code == 0
    keys = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert keys == sorted(
        ["decoding_error_bound", "volume_exact", "volume_lower", "volume_upper"]
    )


# ---------------------------------------------------------------------------
# plumbing


def test_reruns_are_byte_identical(capsys):
    argv = ["mc", "--family", "an", "--n", "3", "--samples", "4000", "--seed", "11"]
    _, out_a, _ = run(capsys, argv)
    _, out_b, _ = run(capsys, argv)
    assert out_a == out_b
    argv = ["count", "--family", "dn-second", "--n", "4", "--format", "json"]
    _, out_a, _ = run(capsys, argv)
    _, out_b, _ = run(capsys, argv)
    assert out_a == out_b


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    code, out, _ = run(
        capsys,
        ["basis", "--family", "an", "--n", "2", "--format", "json",
         "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["gram"] == [[2, 1], [1, 2]]


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--family", "an", "--n", "2", "--seed", "1"],
        ["eval", "--family", "an", "--n", "4", "--in", "pts.txt", "--samples", "5"],
        ["synth", "--family", "an", "--n", "3", "--format", "json"],
    ],
    ids=["basis-seed", "eval-samples", "synth-format"],
)
def test_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_unknown_family_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--family", "zn", "--n", "3"])
    assert exc.value.code == 2
