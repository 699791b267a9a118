"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json

import numpy as np
import pytest

import oracles
from latticecpwl import boundary as bnd
from latticecpwl import cli
from latticecpwl import lattices as lat
from latticecpwl.errors import DomainError


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


@pytest.mark.parametrize("family,n", [("an", 4), ("dn-const-a", 4), ("dn-second", 4), ("en", 6)])
def test_basis_json_gram_entries_are_integers(capsys, family, n):
    code, out, _ = run(capsys, ["basis", "--family", family, "--n", str(n), "--format", "json"])
    assert code == 0
    gram = json.loads(out)["gram"]
    assert all(type(v) is int for row in gram for v in row)


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
    assert payload["meta"]["depth"] == 6  # M + base depth 5
    assert len(payload["layers"]) == 6


@pytest.mark.parametrize("M,code", [(28, 0), (29, 2), (1100, 2)])
def test_synth_rejects_m_past_decode_tolerance(capsys, M, code):
    # decode's rule: from M = 29 the spacing of 2^M exceeds DECODE_TOL, and
    # M = 1100 would overflow the float scale of the translation stage
    got, out, err = run(capsys, ["synth", "--family", "an", "--n", "3", "--M", str(M)])
    assert got == code
    if code == 0:
        assert json.loads(out)["meta"]["depth"] == M + 5
        assert err == ""
    else:
        assert out == ""
        assert err.startswith(f"error: M = {M} is too large")
        assert err.count("\n") == 1


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


@pytest.mark.parametrize(
    "row",
    ["0.0 1e-300 -1.7976931348623157e308", " ".join(["1.7976931348623157e308"] * 3)],
    ids=["one-huge", "all-huge"],
)
def test_eval_huge_coordinate_exits_2_with_one_line(capsys, tmp_path, recwarn, row):
    # the fiber arithmetic overflows to +-inf; no numpy warning may reach stderr
    pts = tmp_path / "pts.txt"
    pts.write_text(row + "\n")
    code, out, err = run(capsys, ["eval", "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert err == f"error: {pts}: line 1 lies outside D(B)\n"
    assert not recwarn.list


HUGE_MIXED = "1.7976931348623157e308 -1.7976931348623157e308 1.7976931348623157e308"


@pytest.mark.parametrize(
    "command,row,what",
    [
        ("eval", HUGE_MIXED, "lies outside D(B)"),
        ("decode", HUGE_MIXED + " 1", "is too far from the origin to reduce"),
    ],
    ids=["eval", "decode"],
)
def test_huge_mixed_sign_row_exits_2_with_one_line(capsys, tmp_path, recwarn, command, row, what):
    # y Ginv overflows to infinities of both signs, and to nan where they
    # meet; the row is rejected and no numpy warning reaches stderr
    pts = tmp_path / "pts.txt"
    pts.write_text(row + "\n")
    code, out, err = run(capsys, [command, "--family", "an", "--n", "4", "--in", str(pts)])
    assert (code, out, err) == (2, "", f"error: {pts}: line 1 {what}\n")
    assert not recwarn.list


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


@pytest.mark.parametrize("n", [24, 57, 64, 256])
def test_decode_agrees_with_sorted_decoder_at_large_rank(capsys, tmp_path, n):
    # f from the chamber corners serves far past the 2^n corner enumeration;
    # the sorting decoder is the nearest-corner reference there
    basis = lat.build_basis(lat.FamilyId("an", n))
    Y = lat.sample_parallelotope(basis, seed=n, count=1_000)
    pts = tmp_path / "pts.txt"
    np.savetxt(pts, Y, fmt="%.17g")
    code, out, _ = run(capsys, ["decode", "--family", "an", "--n", str(n), "--in", str(pts)])
    assert code == 0
    bits = np.array(out.splitlines())
    want = oracles.sorted_corner_bits(basis, Y).astype(str)
    known = bits != "?"
    assert known.mean() > 0.99
    assert np.array_equal(bits[known], want[known])


@pytest.mark.parametrize("family", ["an", "dn-const-a", "dn-second"])
@pytest.mark.parametrize("n", [64, 256])
def test_serving_commands_meet_the_sorted_closed_form(capsys, tmp_path, family, n):
    """eval, decode and mc's decode-error row against f and the nearest
    corner's bit in closed form. dn-const-a's heights are compared where
    either lies inside the point's fiber: outside it, f's corner pieces need
    not be the closed form's crossing."""
    basis = lat.build_basis(lat.FamilyId(family, n))
    base = ["--family", family, "--n", str(n)]
    Yt = lat.sample_domain(basis, seed=n, count=500)
    pts = tmp_path / "e.txt"
    np.savetxt(pts, Yt, fmt="%.17g")
    code, out, _ = run(capsys, ["eval", *base, "--in", str(pts)])
    assert code == 0
    got, want = np.array(out.split(), dtype=float), oracles.sorted_height(basis, Yt)
    if family == "dn-const-a":
        lo, hi = lat.fiber_interval_batch(basis, Yt)
        inside = ((lo <= got) & (got <= hi)) | ((lo <= want) & (want <= hi))
        assert inside.sum() >= 10
        got, want = got[inside], want[inside]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    Y = lat.sample_parallelotope(basis, seed=n, count=200)
    np.savetxt(pts, Y, fmt="%.17g")
    code, out, _ = run(capsys, ["decode", *base, "--in", str(pts)])
    assert code == 0
    bits, want = np.array(out.split()), oracles.sorted_corner_bits(basis, Y).astype(str)
    known = bits != "?"
    assert known.mean() > 0.99
    assert np.array_equal(bits[known], want[known])

    code, out, _ = run(capsys, ["mc", *base, "--samples", "500", "--seed", "3"])
    row = next(line.split(",") for line in out.splitlines() if line.startswith("decode_error,"))
    want = oracles.decode_error_sorted(basis, seed=3, samples=500)
    assert (float(row[3]), float(row[4])) == (want.estimate, want.stderr)


@pytest.mark.parametrize("family", ["an", "dn-const-a", "dn-second"])
@pytest.mark.parametrize("n", [57, 64])
def test_serving_commands_run_at_large_rank(capsys, tmp_path, family, n):
    # plane keys of n + 1 integers are numbered without packing them into
    # one int64, which overflowed from n = 57 on
    basis = lat.build_basis(lat.FamilyId(family, n))
    projected, full = tmp_path / "e.txt", tmp_path / "d.txt"
    np.savetxt(projected, lat.sample_domain(basis, seed=1, count=100), fmt="%.17g")
    np.savetxt(full, 3.0 * lat.sample_parallelotope(basis, seed=2, count=100), fmt="%.17g")
    base = ["--family", family, "--n", str(n)]
    for argv, want in [
        (["eval", *base, "--in", str(projected)], 0),
        (["decode", *base, "--in", str(full)], 0),
        (["mc", *base, "--samples", "500"], 1),
    ]:
        code, out, err = run(capsys, argv)
        assert (code, err) == (want, ""), argv
        assert len(out.splitlines()) == {"eval": 100, "decode": 100, "mc": 3}[argv[0]]


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


@pytest.mark.parametrize(
    "command,n,good,bad,what",
    [
        ("eval", 4, "0.0 0.0 0.0", "0.3 0.2 0.1", "lies outside D(B)"),
        ("decode", 3, "0.5 0.1 0.2", "1e17 0.3 0.2", "is too far from the origin to reduce"),
        ("eval", 4, "0.1 0.2 0.3", "0.1 0.2 1e400", "has a non-finite coordinate"),
    ],
    ids=["outside", "far", "non-finite"],
)
def test_crlf_file_names_the_file_line_of_a_bad_row(
    capsys, tmp_path, command, n, good, bad, what
):
    # the bad row is row 2 but file line 4, after two whitespace-only lines
    pts = tmp_path / "pts.txt"
    pts.write_bytes(f"{good}\r\n \r\n\t\r\n{bad}\r\n".encode())
    code, out, err = run(capsys, [command, "--family", "an", "--n", str(n), "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert err == f"error: {pts}: line 4 {what}\n"


@pytest.mark.parametrize("command", ["eval", "decode"])
@pytest.mark.parametrize("text", [b"", b" \n\t\r\n\n"], ids=["empty", "whitespace"])
def test_file_without_points_exits_2_with_one_line(capsys, tmp_path, recwarn, command, text):
    # numpy's reader warns on empty input; that warning must not reach stderr
    pts = tmp_path / "pts.txt"
    pts.write_bytes(text)
    code, out, err = run(capsys, [command, "--family", "an", "--n", "4", "--in", str(pts)])
    assert code == 2
    assert out == ""
    assert err == f"error: {pts} contains no points\n"
    assert not recwarn.list


def point_file_corpus() -> dict[str, bytes]:
    """Point files of three coordinates that the two readers must agree on."""
    rows = "0.1 0.2 0.3\n0.4 0.5 0.6\n"
    texts = {
        "lf": rows,
        "crlf": rows.replace("\n", "\r\n"),
        "lone_cr": rows.replace("\n", "\r"),
        "no_final_newline": rows.rstrip("\n"),
        "tabs": rows.replace(" ", "\t"),
        "vertical_tab": rows.replace(" ", "\x0b"),
        "form_feed": rows.replace(" ", " \x0c"),
        "nbsp": rows.replace(" ", "\xa0"),
        "em_space": rows.replace(" ", "\u2003"),
        "blank_lines": "\n \t\n0.1 0.2 0.3\n\n\x0b\n0.4 0.5 0.6\n\n\xa0\n",
        "blank_lines_crlf": "\r\n \r\n0.1 0.2 0.3\r\n\t\r\n0.4 0.5 0.6\r\n \r\n",
        "signs_and_dots": "+1.5 .5 5.\n-.5 +0 -5.\n",
        "zeros_and_extremes": "1e-400 -0 5e-324\n1.7976931348623157e308 -0.0 -1e-400\n",
        "underscore": "1_0 0.2 0.3\n0.4 0.5 0.6\n",
        "full_width_digits": "\uff11\uff12 0.2 0.3\n0.4 0.5 0.6\n",
        "bom": "\ufeff" + rows,
        "hash_token": "0.1 0.2 0.3 # note\n",
        "hash_line": "# x y z\n" + rows,
        "quotes": '"0.1" 0.2 0.3\n',
        "overflow": "0.1 0.2 0.3\n1e400 0.5 0.6\n",
        "nan": "0.1 0.2 0.3\n\nnan 0.5 0.6\n",
        "empty": "",
        "whitespace_only": " \n\t\r\n\n",
        "ragged_first_row": "0.1 0.2\n0.4 0.5 0.6\n",
        "ragged_later_row": "0.1 0.2 0.3\n\n0.4 0.5\n",
        "wrong_width": "0.1 0.2\n0.4 0.5\n",
        "bad_token": "0.1 zebra 0.3\n",
    }
    files = {name: text.encode() for name, text in texts.items()}
    files["not_utf8"] = b"\xff\xfe0.1 0.2 0.3\n"
    rng = np.random.default_rng(14)
    X = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-30, 30, size=(2000, 3))
    X[:2] = [[0.0, -0.0, 5e-324], [-5e-324, 1e-310, -1.7976931348623157e308]]
    for name, fmt in [("repr", repr), ("17g", "%.17g".__mod__),
                      ("25e", "%.25e".__mod__), ("3f", "%.3f".__mod__)]:
        files[f"random_{name}"] = "".join(
            " ".join(fmt(float(v)) for v in row) + "\n" for row in X
        ).encode()
    return files


POINT_FILES = point_file_corpus()


@pytest.mark.parametrize("name", sorted(POINT_FILES))
def test_read_points_matches_line_reader(tmp_path, name):
    # the same array bits (signs of zero included) or the same error message
    path = tmp_path / f"{name}.txt"
    path.write_bytes(POINT_FILES[name])

    def outcome(read):
        try:
            pts = read(str(path), 3)
        except DomainError as exc:
            return str(exc)
        return pts.shape, pts.dtype, pts.tobytes()

    assert outcome(cli._read_points) == outcome(oracles.read_points_by_line)


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


@pytest.mark.parametrize("family", ["an", "dn-const-a", "dn-second"])
def test_mc_beyond_brute_cap_reports_both_rows(capsys, family):
    code, out, _ = run(
        capsys, ["mc", "--family", family, "--n", "12", "--samples", "2000"]
    )
    assert code == 1
    kinds = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert kinds == ["decode_error", "l1_gap"]


MC_PINNED = {
    ("an", 8): (1, """\
kind,seed,samples,estimate,stderr,bound,pass
decode_error,42,10000,0.0721,0.00258666350397733,0.006415654927377436,False
l1_gap,42,10000,0.06878507384948417,0.0007306559338406939,0.006349206349206349,False
"""),
    ("en", 8): (1, """\
kind,seed,samples,estimate,stderr,bound,pass
decode_error,42,10000,0.4304,0.004951569024418458,0.006415654927377436,False
l1_gap,42,10000,0.4287827822199857,0.003895129809220616,0.006349206349206349,False
"""),
    ("dn-second", 6): (1, """\
kind,seed,samples,estimate,stderr,bound,pass
decode_error,42,10000,0.1895,0.003919248786579529,0.09013091992433227,False
l1_gap,42,10000,0.18679301918595384,0.002199527649045648,0.08888888888888889,False
"""),
    ("an", 12): (1, """\
kind,seed,samples,estimate,stderr,bound,pass
decode_error,42,10000,0.0595,0.0023656996118411456,8.610695291507141e-06,False
l1_gap,42,10000,0.0586655481678504,0.000619082130070869,8.551119662230774e-06,False
"""),
}


@pytest.mark.parametrize("family,n", list(MC_PINNED), ids=lambda v: str(v))
def test_mc_stdout_pinned(capsys, family, n):
    # stdout and exit code at the default seed and samples, frozen from the
    # two-draw implementation that decoded by brute-force corner search (an
    # 12 by the sorted decoder, which gave no l1_gap row; that row is frozen
    # from f built from the chamber corners). The l1_gap rows moved in their
    # last digits, under 3e-15 relative, when f's pieces came to be formed
    # over c' from the integer roots; the decode_error rows did not move
    code, out, err = run(capsys, ["mc", "--family", family, "--n", str(n), "--format", "csv"])
    assert (code, out, err) == (*MC_PINNED[(family, n)], "")


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


def test_bounds_large_competitor_depth(capsys):
    # the piece budget 2^1400 is past the largest double; the rows carry
    # its log2 only
    code, out, err = run(
        capsys,
        ["bounds", "--family", "an", "--n", "8", "--M", "10", "--L", "100", "--w", "4"],
    )
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 10 and lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["separation_piece_budget_log2"] == "1400.0"
    assert rows["separation_required_M"] == "208.0"
    assert rows["separation_margin"] == "-198.0"


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


def test_interleaved_instances_rerun_byte_identical(capsys, tmp_path):
    """One process runs every command that builds f on an 8, then en 8, then
    an 8 again: the builders' memos are hit, evicted and rebuilt, and each
    stdout equals that command's first one on the instance."""
    argvs = {}
    for family in ("an", "en"):
        basis = lat.build_basis(lat.FamilyId(family, 8))
        projected, full = tmp_path / f"{family}_eval.txt", tmp_path / f"{family}_decode.txt"
        np.savetxt(projected, lat.sample_domain(basis, seed=1, count=500))
        np.savetxt(full, 3.0 * lat.sample_parallelotope(basis, seed=2, count=500))
        base = ["--family", family, "--n", "8"]
        argvs[family] = [
            ["fold", *base], ["mc", *base], ["eval", *base, "--in", str(projected)],
            ["decode", *base, "--in", str(full)], ["count", *base],
        ]
    first = {}
    for family in ("an", "en", "an"):
        for argv in argvs[family]:
            out = run(capsys, argv)
            assert first.setdefault(tuple(argv), out) == out, argv


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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_fold_rejects_fewer_than_one_sample(capsys, samples):
    # the message names the flag, as mc's does
    code, out, err = run(capsys, ["fold", "--family", "an", "--n", "4", "--samples", samples])
    assert code == 2
    assert out == ""
    assert err == f"error: --samples must be >= 1, got {samples}\n"


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


def test_cached_parser_carries_no_state_between_calls(capsys):
    # main reuses one parser per process; each call must parse as if fresh
    cli.build_parser.cache_clear()
    base = ["--family", "an", "--n", "3"]
    fresh = {cmd: run(capsys, [cmd, *base]) for cmd in ("bounds", "synth")}
    assert cli.build_parser() is cli.build_parser()

    run(capsys, ["bounds", *base, "--M", "10", "--L", "2", "--w", "4"])
    code, out, _ = run(capsys, ["bounds", *base])
    assert (code, out) == fresh["bounds"][:2]
    assert "separation" not in out

    run(capsys, ["synth", *base, "--M", "1"])
    code, out, _ = run(capsys, ["synth", *base])
    assert (code, out) == fresh["synth"][:2]
    assert json.loads(out)["meta"]["provenance"]["translation_blocks"] == 0

    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", *base, "--M", "ten"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, ["bounds", *base])
    assert (code, out) == fresh["bounds"][:2]


def test_unknown_family_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--family", "zn", "--n", "3"])
    assert exc.value.code == 2
