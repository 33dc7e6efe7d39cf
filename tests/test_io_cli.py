"""Graph files, result artifacts, run configuration, command surface."""

import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import heatkern
from heatkern import (
    ball_truncate,
    build_heat_kernel,
    build_space,
    dirac_parametrix,
    eigh_weighted,
    generator,
    green_regularized,
    integer_line,
    load_edges,
    load_graph,
    load_measure,
    profile_parametrix,
    read_matrix_csv,
    resistance,
    write_matrix_csv,
)
from heatkern.config import RunConfig, parse_config_text
from heatkern.errors import CenterNotFound, ConfigError, ParseError
from heatkern.graphio import REPORT_KEYS, write_report
from heatkern.cli import main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ----------------------------------------------------------- graph files


def test_load_edges_whitespace_and_commas(tmp_path):
    path = _write(tmp_path, "g.edges",
                  "# triangle\nsource target weight\na b 1.5\nb,c,2.0\n\nc a 0.5\n")
    triples = load_edges(path)
    assert triples == [("a", "b", 1.5), ("b", "c", 2.0), ("c", "a", 0.5)]


def test_load_edges_errors_name_the_line(tmp_path):
    bad_arity = _write(tmp_path, "a.edges", "a b 1.0\nb c\n")
    with pytest.raises(ParseError, match=r"a\.edges:2"):
        load_edges(bad_arity)
    bad_weight = _write(tmp_path, "b.edges", "a b 1.0\nb c wide\n")
    with pytest.raises(ParseError, match=r"b\.edges:2"):
        load_edges(bad_weight)
    negative = _write(tmp_path, "c.edges", "a b -1\n")
    with pytest.raises(ParseError, match=r"c\.edges:1.*positive"):
        load_edges(negative)
    zero = _write(tmp_path, "d.edges", "a b 0.0\n")
    with pytest.raises(ParseError, match="positive"):
        load_edges(zero)
    empty = _write(tmp_path, "e.edges", "# nothing here\n")
    with pytest.raises(ParseError, match="no edges"):
        load_edges(empty)
    with pytest.raises(ParseError, match="cannot read"):
        load_edges(tmp_path / "missing.edges")


def test_load_measure(tmp_path):
    path = _write(tmp_path, "m.csv", "point lambda\nb 2.5\n")
    lam = load_measure(path, ["a", "b", "c"])
    assert np.array_equal(lam, [1.0, 2.5, 1.0])
    unknown = _write(tmp_path, "u.csv", "z 1.0\n")
    with pytest.raises(ParseError, match=r"u\.csv:1.*'z'"):
        load_measure(unknown, ["a", "b"])


def test_load_graph_accumulates_duplicate_edges(tmp_path):
    path = _write(tmp_path, "g.edges", "a b 1.0\nb a 1.0\na b 0.5\n")
    sp, cond, deg = load_graph(path)
    assert sp.points == ("a", "b")
    assert cond.matrix[0, 1] == 2.5
    assert np.array_equal(deg.c, [2.5, 2.5])


def test_load_graph_keeps_first_appearance_order(tmp_path):
    path = _write(tmp_path, "g.edges", "q r 1.0\na q 2.0\nr a 3.0\n")
    sp, _, _ = load_graph(path)
    assert sp.points == ("q", "r", "a")


def test_load_graph_applies_measure_file(tmp_path):
    edges = _write(tmp_path, "g.edges", "a b 1.0\n")
    measure = _write(tmp_path, "g.measure", "a 4.0\n")
    sp, _, _ = load_graph(edges, measure)
    assert np.array_equal(sp.lam, [4.0, 1.0])


# -------------------------------------------------------------- subgraphs


def test_integer_line_shape():
    sp, cond, deg = integer_line(3)
    assert sp.points == tuple(range(-3, 4))
    assert sp.n == 7
    assert cond.matrix[0, 1] == 1.0
    assert deg.c[0] == 1.0 and deg.c[3] == 2.0


def test_ball_truncate_line():
    sp, cond, _ = integer_line(5)
    sub, subcond, subdeg = ball_truncate(sp, cond, 0, 2)
    assert sub.points == (-2, -1, 0, 1, 2)
    # boundary edges to +-3 are dropped, so the rim degree shrinks to 1
    assert subdeg.c[0] == 1.0 and subdeg.c[2] == 2.0
    assert subcond.matrix[0, 1] == 1.0


def test_ball_truncate_k3_radius_one_is_identity(k3):
    sp, cond, _ = k3
    sub, subcond, _ = ball_truncate(sp, cond, "b", 1)
    assert set(sub.points) == set(sp.points)
    i, j = sub.index("a"), sub.index("c")
    assert subcond.matrix[i, j] == cond.matrix[sp.index("a"), sp.index("c")]


def test_ball_truncate_unknown_center(k3):
    sp, cond, _ = k3
    with pytest.raises(CenterNotFound):
        ball_truncate(sp, cond, "nope", 2)


# --------------------------------------------------------------- writers


def test_matrix_csv_round_trip_is_byte_identical(tmp_path, rng):
    sp, _, _ = build_space("ab", None, [("a", "b", 1.0)])
    blocks = [(t, rng.normal(size=(2, 2))) for t in (0.1, 1.0 / 3.0)]
    first = tmp_path / "m1.csv"
    write_matrix_csv(first, sp, blocks)
    loaded = read_matrix_csv(first, sp)
    second = tmp_path / "m2.csv"
    write_matrix_csv(second, sp, list(loaded.items()))
    assert first.read_bytes() == second.read_bytes()
    for (t, M) in blocks:
        assert np.array_equal(loaded[t], M)


def test_matrix_csv_timeless_block(tmp_path):
    sp, _, _ = build_space("ab", None, [("a", "b", 1.0)])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, sp, [(None, np.eye(2))])
    assert path.read_text().splitlines()[0] == "x,y,value"
    assert np.array_equal(read_matrix_csv(path, sp)[None], np.eye(2))


def test_report_has_fixed_key_order(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, {"command": "build", "n_points": 2})
    data = json.loads(path.read_text())
    assert tuple(data) == REPORT_KEYS
    assert data["defects"] == {}
    assert data["exit_reason"] is None


# ----------------------------------------------------------------- config


def test_config_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()
    assert cfg.parametrix_kind == "dirac"
    assert cfg.tol == 1e-8


def test_config_parses_every_key():
    cfg = parse_config_text("""
        parametrix.kind = spectral
        parametrix.profile = exponential
        parametrix.order = 1
        parametrix.n_modes = 2
        laplacian = normalized
        time.horizon = 4.0
        neumann.tol = 1e-6     # inline comment
        neumann.max_terms = 12
        validate.tolerance = 1e-5
        outputs.dir = somewhere
    """)
    assert cfg.parametrix_kind == "spectral"
    assert cfg.parametrix_n_modes == 2
    assert cfg.laplacian == "normalized"
    assert cfg.horizon == 4.0
    assert cfg.tol == 1e-6
    assert cfg.max_terms == 12
    assert cfg.outputs_dir == "somewhere"


def test_config_profile_shorthand():
    cfg = parse_config_text("parametrix.kind = profile-exponential")
    assert cfg.parametrix_kind == "profile"
    assert cfg.parametrix_profile == "exponential"


def test_config_rejections():
    with pytest.raises(ConfigError, match=r"<config>:1: unknown key"):
        parse_config_text("neuman.tol = 1e-8")
    with pytest.raises(ConfigError, match=r"oops\.cfg:2"):
        parse_config_text("\nneumann.tol = tight", origin="oops.cfg")
    with pytest.raises(ConfigError, match="parametrix.kind"):
        parse_config_text("parametrix.kind = fourier")
    with pytest.raises(ConfigError, match="laplacian"):
        parse_config_text("laplacian = graph")
    with pytest.raises(ConfigError, match="horizon"):
        parse_config_text("time.horizon = -1.0")
    with pytest.raises(ConfigError, match="max_terms"):
        parse_config_text("neumann.max_terms = 0")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


@pytest.mark.parametrize("line", ["neumann.tol = nan", "neumann.tol = 0",
                                  "validate.tolerance = nan", "validate.tolerance = inf",
                                  "time.horizon = inf", "time.horizon = nan"])
def test_config_refuses_non_finite_and_nonpositive_numbers(line):
    with pytest.raises(ConfigError, match="positive and finite"):
        parse_config_text(line)


@pytest.mark.parametrize("line", ["quad.target_tol = 1e-30",
                                  "quad.nodes_per_panel = 8",
                                  "quad.cheb_degree = 16"])
def test_config_has_no_quadrature_keys(line):
    # the build grid and its charged slop follow from neumann.tol alone
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(line)


# -------------------------------------------------------------------- cli


@pytest.fixture
def two_point_file(tmp_path):
    return _write(tmp_path, "two.edges", "a b 1.0\n")


@pytest.fixture
def k3_file(tmp_path):
    return _write(tmp_path, "k3.edges", "a b 1.0\nb c 1.0\nc a 1.0\n")


def _report(outdir):
    return json.loads((outdir / "report.json").read_text())


def test_cli_build_writes_certified_report(two_point_file, tmp_path, capsys):
    out = tmp_path / "art"
    code = main(["build", "--edges", two_point_file, "--out", str(out),
                 "--t", "0.5,1.0"])
    assert code == 0
    assert "built kernel" in capsys.readouterr().out
    rep = _report(out)
    assert rep["command"] == "build"
    assert rep["n_points"] == 2
    assert rep["terms_used"] >= 1
    assert rep["truncation_bound"] < 1e-8
    assert rep["exit_reason"] == "ok"
    sp, _, _ = build_space("ab", None, [("a", "b", 1.0)])
    mats = read_matrix_csv(out / "matrices.csv", sp)
    assert set(mats) == {0.5, 1.0}
    want = (1.0 + np.exp(-2.0)) / 2.0
    assert abs(mats[1.0][0, 0] - want) < 1e-8


@pytest.mark.parametrize("edges", ["a b 1.0\n", "a b 1.0\nb c 1.0\nc a 1.0\n"],
                         ids=["two_point", "k3"])
def test_cli_build_signs_what_the_library_signs(tmp_path, capsys, edges):
    # a tolerance the default grid can certify is certified by both routes
    path = _write(tmp_path, "g.edges", edges)
    out = tmp_path / "art"
    code = main(["build", "--edges", path, "--tol", "1e-11", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    sp, cond, _ = load_graph(path)
    lib = build_heat_kernel(dirac_parametrix(sp, cond), T=RunConfig().horizon,
                            tol=1e-11)
    rep = _report(out)
    assert rep["terms_used"] == lib.terms_used
    assert rep["truncation_bound"] == lib.truncation_bound < 1e-11


def test_cli_oracle_compare_passes_on_k3(k3_file, tmp_path):
    out = tmp_path / "art"
    code = main(["oracle-compare", "--edges", k3_file, "--out", str(out)])
    assert code == 0
    assert _report(out)["max_oracle_dev"] < 1e-8


def test_cli_oracle_compare_flags_loose_build(k3_file, tmp_path, capsys):
    cfg = _write(tmp_path, "loose.cfg", "neumann.tol = 1e-3\n")
    out = tmp_path / "art"
    code = main(["oracle-compare", "--edges", k3_file, "--config", cfg,
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 2
    assert "certificate failure" in capsys.readouterr().err
    rep = _report(out)
    assert rep["exit_reason"].startswith("certificate failure")
    assert rep["max_oracle_dev"] > 1e-10


def test_cli_validate_rejects_truncated_spectral(k3_file, tmp_path, capsys):
    cfg = _write(tmp_path, "trunc.cfg",
                 "parametrix.kind = spectral\nparametrix.n_modes = 1\n")
    code = main(["validate-parametrix", "--edges", k3_file, "--config", cfg])
    assert code == 2
    assert "InvalidParametrix" in capsys.readouterr().err


def test_cli_validate_accepts_dirac(two_point_file, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["validate-parametrix", "--edges", two_point_file, "--out", str(out)]) == 0
    assert "passed" in capsys.readouterr().out
    # the residual curve: 12 times down to 1e-3 of the top, then t = 0
    lines = (out / "plot.tsv").read_text().splitlines()
    assert lines[0] == "t\tdirac_residual"
    assert len(lines) == 14 and lines[-1] == "0\t0"


def test_cli_green(two_point_file, tmp_path, capsys):
    out = tmp_path / "art"
    code = main(["green", "--edges", two_point_file, "--out", str(out)])
    assert code == 0
    sp, cond, _ = load_graph(two_point_file)
    G = read_matrix_csv(out / "matrices.csv", sp)[None]
    assert abs(G[0, 0] - 0.25) < 1e-8
    # the printed budget is the library's (the cutoff 10.4 lies past T = 10)
    res = build_heat_kernel(dirac_parametrix(sp, cond), T=RunConfig().horizon)
    g = green_regularized(sp, cond, eigh_weighted(res.generator_matrix, res.weight), K=res)
    assert f"(certified budget {g.budget:.3e})" in capsys.readouterr().out


def test_cli_resistance_pair(k3_file, capsys):
    code = main(["resistance", "--edges", k3_file, "--pair", "a,c"])
    assert code == 0
    assert "R(a, c)" in capsys.readouterr().out


def test_cli_resistance_matrix(k3_file, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["resistance", "--edges", k3_file, "--out", str(out)]) == 0
    assert "resistance matrix on 3 points" in capsys.readouterr().out
    sp, cond, _ = load_graph(k3_file)
    R = read_matrix_csv(out / "matrices.csv", sp)[None]
    spec = eigh_weighted(*generator(sp, cond, "combinatorial"))
    assert np.array_equal(R, resistance(sp, cond, spec))


def test_cli_resistance_disconnected_exits_two(tmp_path, capsys):
    edges = _write(tmp_path, "two_parts.edges", "a b 1.0\nc d 1.0\n")
    code = main(["resistance", "--edges", edges])
    assert code == 2
    assert "Disconnected" in capsys.readouterr().err


def test_cli_entropy_writes_curve(two_point_file, tmp_path):
    out = tmp_path / "art"
    code = main(["entropy", "--edges", two_point_file, "--point", "a",
                 "--t", "0.5,1.0,2.0", "--out", str(out)])
    assert code == 0
    lines = (out / "plot.tsv").read_text().splitlines()
    assert lines[0] == "t\tentropy"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [["resistance", "--pair", "a,zz"],
                                  ["entropy", "--point", "zz"]])
def test_cli_unknown_point_reports_input_error(k3_file, tmp_path, capsys, argv):
    out = tmp_path / "art"
    code = main([argv[0], "--edges", k3_file, *argv[1:], "--out", str(out)])
    assert code == 1
    assert "unknown point 'zz'" in capsys.readouterr().err
    assert _report(out)["exit_reason"] == "input error: UnknownPoint: unknown point 'zz'"


def test_cli_poisson(two_point_file, tmp_path, capsys):
    out = tmp_path / "art"
    code = main(["poisson", "--edges", two_point_file, "--w", "1.0", "--out", str(out)])
    assert code == 0
    assert "poisson kernel" in capsys.readouterr().out
    # exp(-sqrt(A)) on the unit edge: modes 0 and 2 under the counting measure
    sp, _, _ = load_graph(two_point_file)
    P = read_matrix_csv(out / "matrices.csv", sp)[None]
    want = (1.0 + np.exp(-np.sqrt(2.0))) / 2.0
    assert abs(P[0, 0] - want) < 1e-6


def test_cli_diagnostics(k3_file, capsys):
    code = main(["diagnostics", "--edges", k3_file])
    assert code == 0
    assert "semigroup_defect" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["build", "diagnostics"])
def test_cli_rkhs_reports_semigroup_defect(k3_file, tmp_path, capsys, command):
    # a matrix pairing has no measure, so only the semigroup identity
    # K(s + t) = K(s) G^-1 K(t) is reported
    gram = _write(tmp_path, "gram.csv", "2,1,1\n1,2,1\n1,1,2\n")
    cfg = _write(tmp_path, "rkhs.cfg", "parametrix.kind = rkhs\n")
    out = tmp_path / "art"
    code = main([command, "--edges", k3_file, "--config", cfg, "--gram", gram,
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rep = _report(out)
    assert list(rep["defects"]) == ["semigroup_defect"]
    assert 0.0 <= rep["defects"]["semigroup_defect"] < RunConfig().tol
    assert rep["exit_reason"] == "ok"


@pytest.mark.parametrize("command", ["oracle-compare", "green", "poisson"])
def test_cli_rkhs_spectral_commands_report_input_error(k3_file, tmp_path, capsys,
                                                       command):
    # the spectral oracle diagonalizes in a measure; a Gram-paired build
    # has none, so these commands refuse it as an input error
    gram = _write(tmp_path, "gram.csv", "2,1,1\n1,2,1\n1,1,2\n")
    cfg = _write(tmp_path, "rkhs.cfg", "parametrix.kind = rkhs\n")
    out = tmp_path / "art"
    code = main([command, "--edges", k3_file, "--config", cfg, "--gram", gram,
                 "--out", str(out)])
    assert code == 1
    assert "DimensionMismatch" in capsys.readouterr().err
    assert _report(out)["exit_reason"].startswith("input error: DimensionMismatch")


def test_cli_build_profile_signs_what_the_library_signs(k3_file, tmp_path, capsys):
    cfg = _write(tmp_path, "profile.cfg",
                 "parametrix.kind = profile-exponential\nneumann.tol = 1e-5\n")
    out = tmp_path / "art"
    code = main(["build", "--edges", k3_file, "--config", cfg, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    sp, cond, _ = load_graph(k3_file)
    lib = build_heat_kernel(profile_parametrix(sp, cond, "exponential"),
                            T=RunConfig().horizon, tol=1e-5)
    rep = _report(out)
    assert rep["terms_used"] == lib.terms_used
    assert rep["truncation_bound"] == lib.truncation_bound < 1e-5


def test_cli_module_exit_codes(two_point_file, k3_file, tmp_path):
    # python -m heatkern.cli exits with main's status: 0 on success, 1 on
    # unusable input, 2 on a failed certificate
    env = dict(os.environ, PYTHONPATH=str(Path(heatkern.__file__).parent.parent))
    trunc = _write(tmp_path, "trunc.cfg",
                   "parametrix.kind = spectral\nparametrix.n_modes = 1\n")
    for argv, want in ((["validate-parametrix", "--edges", two_point_file], 0),
                       (["build", "--edges", str(tmp_path / "nope.edges")], 1),
                       (["validate-parametrix", "--edges", k3_file, "--config", trunc], 2)):
        run = subprocess.run([sys.executable, "-m", "heatkern.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == want, (argv, run.stderr)


def test_cli_bad_usage_exits_one(two_point_file, capsys):
    assert main(["build", "--edges", two_point_file, "--frobnicate"]) == 1
    assert main(["entropy", "--edges", two_point_file]) == 1  # --point missing
    assert main(["resistance", "--edges", two_point_file, "--pair", "a"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["green", "--tol", "nan"], "--tol"),
    (["oracle-compare", "--tol", "nan"], "--tol"),
    (["resistance", "--pair", "a,b", "--tol", "nan"], "--tol"),
    (["build", "--tol", "nan"], "--tol"),
    (["build", "--tol", "inf"], "--tol"),
    (["poisson", "--tol", "nan"], "--tol"),
    (["poisson", "--w", "nan"], "--w"),
    (["poisson", "--w", "-1"], "--w"),
    (["validate-parametrix", "--tol", "0"], "--tol"),
])
def test_cli_refuses_non_finite_and_nonpositive_numbers(two_point_file, tmp_path,
                                                        capsys, argv, flag):
    out = tmp_path / "art"
    assert main([*argv, "--edges", two_point_file, "--out", str(out)]) == 1
    capsys.readouterr()
    assert _report(out)["exit_reason"].startswith(
        f"input error: ParseError: argument {flag}: expected a finite positive number")


def test_cli_nan_config_reports_input_error(two_point_file, tmp_path, capsys):
    cfg = _write(tmp_path, "nan.cfg", "neumann.tol = nan\n")
    out = tmp_path / "art"
    assert main(["build", "--edges", two_point_file, "--config", cfg, "--out", str(out)]) == 1
    capsys.readouterr()
    assert _report(out)["exit_reason"].startswith("input error: ConfigError")


def test_cli_missing_file_reports_input_error(tmp_path, capsys):
    out = tmp_path / "art"
    code = main(["build", "--edges", str(tmp_path / "nope.edges"),
                 "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    rep = _report(out)
    assert rep["exit_reason"].startswith("input error")


def test_cli_unknown_config_key_reports_input_error(two_point_file, tmp_path,
                                                    capsys):
    cfg = _write(tmp_path, "bad.cfg", "neumann.terms = 3\n")
    out = tmp_path / "art"
    code = main(["build", "--edges", two_point_file, "--config", cfg,
                 "--out", str(out)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err
    assert _report(out)["exit_reason"].startswith("input error")


def test_cli_outputs_dir_from_config(two_point_file, tmp_path):
    target = tmp_path / "from_config"
    cfg = _write(tmp_path, "o.cfg", f"outputs.dir = {target}\n")
    code = main(["build", "--edges", two_point_file, "--config", cfg])
    assert code == 0
    assert (target / "report.json").exists()
    assert _report(target)["exit_reason"] == "ok"
