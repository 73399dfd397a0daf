"""End-to-end tests of the command-line interface.

Each test drives cli.main in process and checks the exit-code contract:
0 success, 2 usage/domain errors, 3 tolerance or bound failures, 4 numerical
failures, 141 a closed output pipe.  File outputs are re-read and
cross-checked against their stated tolerances; census output is checked for
byte-level determinism.
"""

import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from duffing_melnikov import abelian, checks, cli, melnikov, oracle, quadrature, zeros
from duffing_melnikov.geometry import Annulus
from duffing_melnikov.melnikov import PerturbationParams, enforce_m1_zero
from duffing_melnikov.quadrature import AccuracyError

import numpy as np


def _write_params(path, params: PerturbationParams):
    path.write_text(params.to_json())
    return str(path)


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _crafted():
    # M1 = I_2 - 2 I_0: one simple exterior zero, well inside the disc
    z = [0.0] * 10
    l = list(z)
    l[1] = -2.0
    g = list(z)
    g[6] = 1.0
    return PerturbationParams(tuple(l), tuple(g), tuple(z), tuple(z))


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def _readme_commands() -> list[str]:
    """The duffing-melnikov lines of the README's Command line block."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("duffing-melnikov ")]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 5


# the README's order-1 exterior census holds acceptance 7's known violations
_README_EXIT = {"duffing-melnikov zeros --draws 200 --seed 20260815 --order 1 "
                "--annulus exterior --out census.jsonl": 3}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line, capsys, monkeypatch, tmp_path):
    # each command runs as written, in a directory holding its params.json;
    # the eval example once ran on the default lobe and exited 2
    monkeypatch.chdir(tmp_path)
    _write_params(tmp_path / "params.json", _crafted())
    assert cli.main(shlex.split(line)[1:]) == _README_EXIT.get(line, 0), capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["coeffs", "--no-such-flag"]) == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_bad_h_grid_spec(capsys):
    assert cli.main(["eval", "--h-grid", "1:2"]) == 2
    capsys.readouterr()
    # "--h-grid -1:..." is read as an option, so these pass the grid with "="
    for grid, message in (("-1:2:5:log", "must share a sign"),
                          ("0.5:2:0", "needs at least one point")):
        assert cli.main(["eval", "--annulus", "exterior", f"--h-grid={grid}"]) == 2
        assert message in capsys.readouterr().err
    for grid, hs in (("0.5:2:4", [0.5, 1.0, 1.5, 2.0]), ("0.01:1:3:log", [0.01, 0.1, 1.0])):
        assert cli.main(["eval", "--annulus", "exterior", f"--h-grid={grid}"]) == 0
        assert _config_h(capsys.readouterr().out) == hs
    # a non-finite endpoint is named, not turned into a nan level by linspace
    for grid, end in (("1:inf:3", "'inf'"), ("nan:2:3", "'nan'"), ("1:inf:3:log", "'inf'"),
                      ("-inf:-0.1:3:log", "'-inf'")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--annulus", "exterior", f"--h-grid={grid}"]) == 2
        err = capsys.readouterr().err
        assert f"--h-grid endpoint {end} is not finite" in err and "h=nan" not in err


def test_short_eps_ladder_rejected(capsys, tmp_path):
    path = _write_params(tmp_path / "p.json", _crafted())
    code = cli.main(["oracle", "--params", path, "--annulus", "exterior",
                     "--h", "1.0", "--eps-list", "1e-2,5e-3"])
    assert code == 2
    assert "the cubic fit needs 4 distinct eps values" in capsys.readouterr().err


def test_zero_or_nonfinite_eps_rejected(capsys, monkeypatch):
    # before any flow is integrated and before the config line, which once
    # printed a NaN strength as non-JSON; a NaN strength once hung the run
    monkeypatch.setattr(oracle, "_ladder", None)  # a call would raise TypeError
    for bad in ("nan", "0"):
        assert cli.main(["oracle", "--seed", "0", f"--eps-list={bad},1e-3,2e-3,3e-3"]) == 2
        out, err = capsys.readouterr()
        assert "every eps must be finite and nonzero" in err and out == ""


def test_repeated_eps_rejected(capsys, monkeypatch):
    # a ladder of fewer than four distinct eps cannot fit the cubic; once it
    # integrated every flow and then failed, or fitted a residual of duplicates,
    # and later printed the config line and the table header before failing.
    # A repeat beside four distinct eps once ran a duplicate lane that narrowed
    # the fit sigmas without adding information.
    monkeypatch.setattr(oracle, "_ladder", None)  # a call would raise TypeError
    for ladder in ("1e-3,1e-3,1e-3,1e-3", "1e-3,1e-3,2e-3,3e-3", "1e-2,5e-3,2.5e-3,1.25e-3,1e-2"):
        assert cli.main(["oracle", "--seed", "0", f"--eps-list={ladder}"]) == 2
        out, err = capsys.readouterr()
        assert "needs 4 distinct eps values" in err and "# config" not in out


def test_ill_conditioned_eps_ladder_exits_4(capsys):
    # four distinct eps pass the ladder check, but they are too close to fit
    assert cli.main(["oracle", "--seed", "0", "--h", "-0.125",
                     "--eps-list=1e-3,1.000001e-3,1.000002e-3,1.000003e-3"]) == 4
    assert "displacement fit is ill-conditioned" in capsys.readouterr().err


def test_bad_contour_spec(capsys):
    assert cli.main(["zeros", "--draws", "1", "--contour", "1,2"]) == 2
    assert cli.main(["zeros", "--draws", "1", "--contour", "10,2e-2,1e-3"]) == 2
    assert "cut offset eta must lie in" in capsys.readouterr().err
    for radius in ("inf", "nan", "1e160"):
        assert cli.main(["zeros", "--draws", "2", "--annulus", "exterior",
                         "--contour", f"{radius},1e-3,1e-3"]) == 2
        assert "contour radius R must be finite" in capsys.readouterr().err


def test_non_finite_contour_part_exits_2_before_the_config_line(capsys):
    # the config line once printed such a part as Infinity or NaN, which is not JSON
    for spec in ("1e400,1e-3,1e-3", "nan,1e-3,1e-3", "10,inf,1e-3", "10,1e-3,-nan"):
        assert cli.main(["zeros", "--draws", "1", "--contour", spec]) == 2
        out, err = capsys.readouterr()
        assert "must be finite" in err and "# config" not in out


def test_negative_draw_count_is_usage_error(capsys, tmp_path):
    out = tmp_path / "neg.jsonl"
    assert cli.main(["zeros", "--draws", "-3", "--out", str(out)]) == 2
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["zeros", "--draws", "x"]) == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_zero_draws_write_the_summary_only(capsys, tmp_path):
    out = tmp_path / "none.jsonl"
    assert cli.main(["zeros", "--draws", "0", "--annulus", "exterior",
                     "--out", str(out)]) == 0
    assert "0 draws" in capsys.readouterr().out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records == [{
        "record": "census-summary", "order": 1, "annulus": "exterior", "draws": 0,
        "seed": 0, "bound": 2, "contour": {"R": 10.0, "eta": 0.001, "rho": 0.001},
        "max_winding": 0, "max_real_roots": 0,
        "status_counts": {"bound-violated": 0, "degenerate": 0, "inconclusive": 0,
                          "within-bound": 0},
        "violations": []}]


def test_zeros_seed_needs_draws(capsys, tmp_path):
    # a seed alone once certified the zero perturbation and exited 0
    out = tmp_path / "seed.jsonl"
    assert cli.main(["zeros", "--seed", "5", "--annulus", "exterior",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--draws" in err and "--params" in err
    assert not out.exists()
    # a census without --seed is the seed-0 census, byte for byte
    files = [tmp_path / "unset.jsonl", tmp_path / "zero.jsonl"]
    for path, seed in zip(files, ([], ["--seed", "0"])):
        assert cli.main(["zeros", "--draws", "2", *seed, "--out", str(path)]) == 0
    assert files[0].read_bytes() == files[1].read_bytes()
    configs = [json.loads(path.with_name(path.name + ".config.json").read_text())
               for path in files]
    assert configs[0]["seed"] == 0
    assert {**configs[0], "out": None} == {**configs[1], "out": None}


def test_zeros_params_and_draws_exclude_each_other(capsys, tmp_path):
    # --params beside --draws was once ignored: the census ran and exited 0
    path = tmp_path / "p.json"
    path.write_text(PerturbationParams.random(np.random.default_rng(1)).to_json())
    out = tmp_path / "both.jsonl"
    assert cli.main(["zeros", "--params", str(path), "--draws", "1", "--annulus", "exterior",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--draws" in captured.err and "--params" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["coeffs", "oracle", "eval"])
def test_params_and_seed_exclude_each_other(capsys, tmp_path, command):
    # --seed beside --params was once dropped: the file's parameters ran and exited 0
    out = tmp_path / "both.jsonl"
    assert cli.main([command, "--params", _write_params(tmp_path / "p.json", _crafted()),
                     "--seed", "3", "--annulus", "exterior", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--params" in captured.err and "--seed" in captured.err
    assert "# config" not in captured.out and not out.exists()


def test_zeros_source_flag_is_gone(capsys):
    assert cli.main(["zeros", "--draws", "1", "--source", "legacy"]) == 2


def test_level_outside_annulus(capsys):
    assert cli.main(["eval", "--annulus", "exterior", "--h", "-0.1"]) == 2


def test_extra_param_key_rejected(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"lambda3": [0.0] * 10}))
    assert cli.main(["coeffs", "--params", str(path)]) == 2


@pytest.mark.parametrize("text,argv", [
    ('{"lambda1": 5}', ["coeffs"]),
    ('{"gamma1": [0, 0, 0, null, 0, 0, 0, 0, 0, 0]}', ["coeffs"]),
    ('{"lambda1": [NaN, 0, 0, 0, 0, 0, 0, 0, 0, 0]}', ["zeros"]),
    ('{"gamma2": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1e999]}', ["eval", "--h", "-0.1"]),
], ids=["bare-number", "null", "nan", "overflow"])
def test_malformed_param_file_is_a_usage_error(capsys, tmp_path, text, argv):
    # json reads each file; none holds arrays of ten finite numbers
    path = tmp_path / "p.json"
    path.write_text(text)
    assert cli.main(argv + ["--params", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_needs_parameters(capsys):
    assert cli.main(["oracle", "--h", "-0.125"]) == 2


def _config_h(out: str) -> list[float]:
    line = next(line for line in out.splitlines() if line.startswith("# config "))
    return json.loads(line[len("# config "):])["h"]


def test_repeated_main_calls_share_no_parse_state(capsys):
    # main reuses one parser: --h append lists and usage errors must not carry
    # over from one call to the next
    assert cli.main(["eval", "--annulus", "exterior", "--h", "0.5", "--h", "1"]) == 0
    assert _config_h(capsys.readouterr().out) == [0.5, 1.0]
    assert cli.main(["eval", "--annulus", "exterior", "--h", "2"]) == 0
    assert _config_h(capsys.readouterr().out) == [2.0]
    assert cli.main(["eval", "--annulus", "exterior"]) == 0
    assert _config_h(capsys.readouterr().out) == [0.4, 1.0, 2.5]
    assert cli.main(["eval", "--annulus", "exterior", "--no-such-flag"]) == 2
    assert cli.main(["eval", "--annulus", "exterior", "--h", "2"]) == 0
    assert _config_h(capsys.readouterr().out) == [2.0]
    assert cli.build_parser() is cli.build_parser()


def test_order_two_table_needs_constraint(capsys, tmp_path):
    # m2_form owns the M_1 = 0 precondition, so every command states it alike;
    # oracle fails before its config line, coeffs just after it
    rng = np.random.default_rng(0)
    path = _write_params(tmp_path / "q.json", PerturbationParams.random(rng))
    outs, errs = {}, set()
    for command in ("coeffs", "oracle", "zeros"):
        assert cli.main([command, "--params", path, "--order", "2"]) == 2
        captured = capsys.readouterr()
        outs[command] = captured.out.splitlines()
        errs.add(captured.err)
    assert len(errs) == 1
    assert errs.pop().startswith("error: second-order form needs M1 = 0 on interior-right; ")
    assert outs["oracle"] == []
    assert len(outs["coeffs"]) == 1 and outs["coeffs"][0].startswith("# config ")


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_passthrough_table(capsys, tmp_path):
    params = PerturbationParams.from_dict(
        {"lambda1": [0.0, 1.0] + [0.0] * 8})
    path = _write_params(tmp_path / "p.json", params)
    code = cli.main(["coeffs", "--params", path, "--order", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# config ")
    # lambda1[1] contributes exactly 1.0 to the constant I_0 slot
    table_line = next(line for line in out.splitlines() if "i0-h0" in line)
    assert float(table_line.split()[-1]) == 1.0


def test_coeffs_accepts_empty_params_object(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert cli.main(["coeffs", "--params", str(path)]) == 0


def test_coeffs_seeded_draw_writes_agreement_records(capsys, tmp_path):
    out = tmp_path / "rows.jsonl"
    code = cli.main(["coeffs", "--seed", "42", "--annulus", "exterior",
                     "--order", "2", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = {r["record"] for r in records}
    assert {"m2-table", "quadrature-agreement"} <= kinds
    for rec in records:
        if rec["record"] == "quadrature-agreement":
            assert rec["rel_dev"] <= rec["tol"]
    sidecar = out.with_name(out.name + ".config.json")
    config = json.loads(sidecar.read_text())
    assert config["seed"] == 42
    assert config["constrained"] is True


def test_coeffs_agreement_outside_its_tol_exits_3(capsys, monkeypatch, tmp_path):
    argv = ["coeffs", "--seed", "7", "--order", "1", "--out", str(tmp_path / "rows.jsonl")]
    assert cli.main(argv) == 0
    quad = cli.m1_quadrature
    monkeypatch.setattr(cli, "m1_quadrature", lambda *a: quad(*a) * (1.0 + 1e-6))
    assert cli.main(argv) == 3
    records = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
    agreement = [r for r in records if r["record"] == "quadrature-agreement"]
    assert len(agreement) == 3 and all(r["rel_dev"] > r["tol"] for r in agreement)


def test_coeffs_lists_no_agreement_for_an_identically_zero_m2(capsys, tmp_path):
    # lambda2[0] enters neither M_1 nor M_2, so the quadrature holds only
    # rounding and no agreement row can read it relative to a zero closed form
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"lambda2": [1] + [0] * 9}))
    out = tmp_path / "rows.jsonl"
    for annulus in Annulus:
        assert cli.main(["coeffs", "--params", str(path), "--annulus", annulus.value,
                         "--out", str(out)]) == 0
        kinds = [json.loads(line)["record"] for line in out.read_text().splitlines()]
        assert kinds == ["m1-table", "m1-residuals", "m2-table"]


# ---------------------------------------------------------------------------
# eval and oracle
# ---------------------------------------------------------------------------


def test_eval_table_with_m2_column(capsys, tmp_path):
    params = enforce_m1_zero(
        PerturbationParams.random(np.random.default_rng(5)), Annulus.INTERIOR_RIGHT)
    path = _write_params(tmp_path / "p.json", params)
    code = cli.main(["eval", "--params", path, "--h", "-0.125", "--h", "-0.06"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[1].split("\t")
    assert header == ["h", "i0", "i1", "i2", "m1", "m2"]
    assert len(out.splitlines()) == 4  # config + header + two rows


def test_eval_notes_missing_m2_column(capsys, tmp_path):
    path = _write_params(
        tmp_path / "p.json",
        PerturbationParams.random(np.random.default_rng(6)))
    code = cli.main(["eval", "--params", path, "--h", "-0.125"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m2 column omitted" in out


def test_eval_prints_the_exterior_first_moment_as_exactly_zero(capsys):
    # I_1 vanishes identically outside; eval once printed quadrature rounding there
    assert cli.main(["eval", "--annulus", "exterior", "--h-grid=0.5:2:4"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[2] for row in rows] == [" 0.000000000000e+00"] * 4


def test_eval_refuses_levels_whose_values_overflow(capsys, tmp_path):
    # at h = 1e250 on the exterior annulus I_2 and M_1 overflow; such a row
    # would be written as Infinity, which is not JSON
    out = tmp_path / "run.jsonl"
    argv = ["eval", "--seed", "4", "--annulus", "exterior", "--h", "0.5", "--out", str(out)]
    assert cli.main(argv + ["--h", "1e250"]) == 2
    assert "values at h=1e+250 are not finite" in capsys.readouterr().err
    assert not out.exists() and not out.with_name(out.name + ".config.json").exists()
    assert cli.main(argv + ["--h", "1e150"]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_the_commands_run_without_the_oval_quadrature(capsys, monkeypatch):
    # the closed form is the one period route at run time; the oval rule is
    # only its check, so with every binding of it refusing to run, the
    # closed form, a census, eval and oracle still succeed
    def refuse(terms, hs, annulus):
        raise AssertionError("the oval quadrature ran")

    for module in (quadrature, abelian, melnikov):
        monkeypatch.setattr(module, "_oval_rows", refuse)
    abelian.period_vector.cache_clear()
    oracle.displacement_sign.cache_clear()
    for annulus in Annulus:
        assert np.all(np.isfinite(abelian.closed_form(abelian.BASE_POINTS[annulus], annulus)))
    assert cli.main(["zeros", "--draws", "2"]) == 0
    assert cli.main(["eval", "--seed", "1", "--annulus", "exterior", "--h-grid=0.5:2:4"]) == 0
    assert cli.main(["oracle", "--seed", "3", "--h", "-0.125"]) == 0


def test_oracle_row_carries_error_bars(capsys, tmp_path):
    out = tmp_path / "oracle.jsonl"
    code = cli.main(["oracle", "--seed", "3", "--h", "-0.125", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "m1_sigma" in stdout.splitlines()[1]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 1
    row = records[0]
    assert row["record"] == "oracle-row"
    assert row["m1_sigma"] > 0.0
    assert row["m1_rel_dev"] < 1e-3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_annulus_passes(capsys):
    code = cli.main(["verify", "--annulus", "interior-right"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 7 checks passed" in out
    assert out.count("PASS") == 7


def test_verify_detects_corrupted_period_system(capsys, monkeypatch):
    clean = abelian._pf_matrix
    with monkeypatch.context() as patch:
        patch.setattr(abelian, "_pf_matrix", lambda h: (clean(h)[0] + 1e-3, *clean(h)[1:]))
        code = cli.main(["verify", "--annulus", "interior-right"])
    out = capsys.readouterr().out
    assert code == 3
    failed = next(line for line in out.splitlines() if "check(s) failed" in line)
    # the derivative pair and the transport read the one matrix
    assert "picard-fuchs-residual" in failed and "picard-fuchs-matrix" in failed
    # the corruption must not leak into later runs
    assert cli.main(["verify", "--annulus", "interior-right"]) == 0


def test_a_closed_output_pipe_exits_141_without_a_message():
    # 128 + SIGPIPE, the code a shell reports for a process a closed pipe
    # killed; the broken pipe once read as a usage error, exit 2.  The config
    # line and 4000 rows overfill the pipe, so the reader leaves mid-write.
    argv = [sys.executable, "-m", "duffing_melnikov.cli", "eval", "--annulus", "exterior",
            "--h-grid=0.5:2:4000"]
    with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"# config")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 141


def test_verify_maps_numerical_failure_to_exit_4(capsys, monkeypatch):
    def boom(annuli):
        raise AccuracyError("no convergence", err_est=1.0)

    monkeypatch.setattr(checks, "CHECKS", (boom,) + checks.CHECKS[1:])
    assert cli.main(["verify", "--annulus", "interior-right"]) == 4


def test_saddle_asymptotics_fails_an_off_constant(monkeypatch):
    # 2e-6 is inside the slope's 1e-3 but past the constants' 1e-6
    i0c, i2c = abelian.saddle_constants()
    monkeypatch.setattr(checks, "saddle_constants", lambda: (i0c + 2e-6, i2c))
    rec = checks.saddle_asymptotics(())
    assert rec["ok"] is False
    assert rec["detail"]["failures"] == [
        f"I_0 saddle constant off by {i0c + 2e-6 - 4.0 / 3.0:.3g}"]
    assert rec["worst"] > rec["tol"]


def test_saddle_asymptotics_fails_an_off_log_coefficient(monkeypatch):
    # the log coefficients fail past 1e-4
    a1, a2 = abelian.saddle_log_fit()
    monkeypatch.setattr(checks, "saddle_log_fit", lambda: (a1, a2 + 2e-4))
    rec = checks.saddle_asymptotics(())
    assert rec["ok"] is False
    assert rec["detail"]["failures"] == [
        f"I_0 log coefficients off by {(a1 + 1.0, a2 + 2e-4 - 0.375)}"]
    assert rec["worst"] > rec["tol"]


def test_every_verify_record_passes_exactly_within_its_tol(capsys, tmp_path):
    out = tmp_path / "verify.jsonl"
    assert cli.main(["verify", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["check"] for rec in records] == [
        check.__name__.replace("_", "-") for check in checks.CHECKS]
    for rec in records:
        if rec["check"] == "area-nonvanishing":  # bounds a minimum from below
            assert rec["ok"] is (rec["worst"] > rec["tol"]), rec
        else:
            assert rec["ok"] is (rec["worst"] <= rec["tol"]), rec


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_single_certificate(capsys, tmp_path):
    path = _write_params(tmp_path / "p.json", _crafted())
    code = cli.main(["zeros", "--params", path, "--annulus", "exterior"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=within-bound" in out
    assert "real roots: 9.1" in out
    # with neither --params nor --draws the zero perturbation is certified
    assert cli.main(["zeros", "--annulus", "exterior"]) == 0
    assert "status=degenerate" in capsys.readouterr().out


def test_zero_on_the_contour_is_inconclusive_without_a_warning(capsys, tmp_path):
    # R is the crafted form's real root, so a refined sample is exactly 0 and the
    # phase sum once divided by it with a RuntimeWarning
    path = _write_params(tmp_path / "p.json", _crafted())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["zeros", "--params", path, "--annulus", "exterior", "--order", "1",
                         "--contour", "9.103104841501189,1e-3,1e-3"])
    assert code == 3
    assert "status=inconclusive" in capsys.readouterr().out


def test_zeros_census_is_byte_identical(capsys, tmp_path):
    # the first pass builds every cached table and period value, the second
    # reads them: the cache must not change a byte of the output
    zeros._CONTOUR_CACHE.clear()
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        code = cli.main(["zeros", "--draws", "4", "--seed", "11",
                         "--annulus", "interior-right", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_name(out1.name + ".config.json").exists()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert records[-1]["record"] == "census-summary"
    assert not {"dist", "scale", "source"} & records[-1].keys()
    assert len(records) == 5


def test_census_over_its_bound_exits_3(capsys, tmp_path):
    # draw 8 of this block has winding 3 against the bound 2, as the benchmark's
    # census reference records it
    out = tmp_path / "over.jsonl"
    assert cli.main(["zeros", "--order", "1", "--annulus", "exterior", "--draws", "10",
                     "--seed", "10", "--out", str(out)]) == 3
    assert "bound violated on draws [8]" in capsys.readouterr().out
    *certs, summary = [json.loads(line) for line in out.read_text().splitlines()]
    assert summary["violations"] == [8]
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "census_reference.json"
    draws = json.loads(reference.read_text())["draws"]["1/exterior/10"]
    assert [[c["winding"], len(c["real_roots"]), c["status"]] for c in certs] == draws


_PIN = pathlib.Path(__file__).resolve().parent / "data" / "census_pin.jsonl"
_PIN_CLASSES = ((1, "interior-left"), (1, "interior-right"), (1, "exterior"),
                (2, "interior-right"), (2, "exterior"))


def _assert_runs_match_pin(tmp_path, runs, pin: pathlib.Path) -> None:
    """The runs' --out files against the pin, naming the first differing record and key."""
    produced = b""
    for k, argv in enumerate(runs):
        out = tmp_path / f"run{k}.jsonl"
        assert cli.main(argv + ["--out", str(out)]) in (0, 3)
        produced += out.read_bytes()
    got, want = produced.decode().splitlines(), pin.read_text().splitlines()
    for line, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            rec, ref = json.loads(g), json.loads(w)
            key = next((k for k in [*ref, *rec] if rec.get(k) != ref.get(k)), "(text only)")
            pytest.fail(f"{pin.name} line {line}, {ref.get('check') or ref['record']} "
                        f"draw {ref.get('draw')}: first differing key {key}: "
                        f"got {rec.get(key)!r}, pinned {ref.get(key)!r}")
    assert len(got) == len(want), f"{len(got)} records, {pin.name} has {len(want)}"
    assert produced == pin.read_bytes()


def test_census_output_matches_the_byte_pin(capsys, tmp_path):
    r"""census_pin.jsonl holds the --out files of these six commands, in this order.

    A change that moves any digit of a certificate fails here.  To re-record
    the pin, from the repository root:

        d=$(mktemp -d); export PYTHONPATH=src
        for c in "1 interior-left" "1 interior-right" "1 exterior" \
                 "2 interior-right" "2 exterior"; do set -- $c
          python -m duffing_melnikov.cli zeros --order $1 --annulus $2 \
              --draws 10 --seed 0 --out $d/run.jsonl; cat $d/run.jsonl >> $d/pin.jsonl
        done
        echo '{"lambda1": [0, -2, 0, 0, 0, 0, 0, 0, 0, 0],
               "gamma1": [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]}' > $d/p.json
        python -m duffing_melnikov.cli zeros --params $d/p.json --annulus exterior \
            --out $d/run.jsonl; cat $d/run.jsonl >> $d/pin.jsonl
        cp $d/pin.jsonl tests/data/census_pin.jsonl
    """
    runs = [["zeros", "--order", str(order), "--annulus", annulus,
             "--draws", "10", "--seed", "0"] for order, annulus in _PIN_CLASSES]
    runs.append(["zeros", "--params", _write_params(tmp_path / "p.json", _crafted()),
                 "--annulus", "exterior"])
    _assert_runs_match_pin(tmp_path, runs, _PIN)


def test_verify_quadratures_whole_level_grids(capsys, monkeypatch):
    # Each check quadratures its level grid in one doubling loop, one
    # Gauss-Legendre rule per round; one loop per level made 2288 rounds.
    sizes = []
    rule = quadrature._gl_rule
    monkeypatch.setattr(quadrature, "_gl_rule", lambda n: sizes.append(n) or rule(n))
    assert cli.main(["verify"]) == 0
    assert 0 < len(sizes) <= 300


def test_verify_output_matches_the_byte_pin(capsys, tmp_path):
    r"""verify_pin.jsonl holds the --out files of the default run and the interior-left run.

    To re-record the pin, from the repository root:

        d=$(mktemp -d); export PYTHONPATH=src
        python -m duffing_melnikov.cli verify --out $d/v0.jsonl
        python -m duffing_melnikov.cli verify --annulus interior-left --out $d/v1.jsonl
        cat $d/v0.jsonl $d/v1.jsonl > tests/data/verify_pin.jsonl
    """
    runs = [["verify"], ["verify", "--annulus", "interior-left"]]
    _assert_runs_match_pin(tmp_path, runs, _PIN.with_name("verify_pin.jsonl"))


def test_coeffs_output_matches_the_byte_pin(capsys, tmp_path):
    r"""coeffs_pin.jsonl holds the --out files of these six commands, in this order.

    Their quadrature-agreement rows carry m1_quadrature and
    m2_iliev_quadrature values, so a change that moves any of their digits
    fails here.  To re-record the pin, from the repository root:

        d=$(mktemp -d); export PYTHONPATH=src
        for o in 1 2; do for a in interior-left interior-right exterior; do
          python -m duffing_melnikov.cli coeffs --seed 7 --order $o --annulus $a \
              --out $d/run.jsonl; cat $d/run.jsonl >> $d/pin.jsonl
        done; done
        cp $d/pin.jsonl tests/data/coeffs_pin.jsonl
    """
    runs = [["coeffs", "--seed", "7", "--order", str(order), "--annulus", annulus]
            for order in (1, 2) for annulus in ("interior-left", "interior-right", "exterior")]
    _assert_runs_match_pin(tmp_path, runs, _PIN.with_name("coeffs_pin.jsonl"))


_SYMMETRIC_LADDER = "0.0025,-0.0025,0.00125,-0.00125,0.000625,-0.000625,0.0003125,-0.0003125"
# first-tier entries outside the M_1 residuals, so M_1 = 0 exactly and eval prints m2
_EVAL_PIN_PARAMS = {"lambda1": [0.5, 0, -0.25, 0.75, 0, 1, 0, 0, 0, -0.5],
                    "gamma1": [0.25, -1, 0, 0, 0.5, 0, 0, 0.75, -0.25, 0],
                    "lambda2": [0, 1, 0, 0, 0, 0, 0, 0.5, 0, 0],
                    "gamma2": [0, 0, 0.5, 0, 0, 0, -1, 0, 0, 0]}


def test_oracle_and_eval_output_matches_the_byte_pin(capsys, tmp_path):
    r"""oracle_pin.jsonl holds the --out files of the first three of these
    commands, in this order, and stdout_pin.txt the stdout of all seven.

    A change that moves any digit of a displacement fit, a point value or a
    printed table cell fails here.  Each oracle row's samples are, in the
    config's eps_list order, the [eps, d] of melnikov_fit's samples on the
    same inputs.  The run directory reads TMP in the config lines.  To
    re-record both pins, from the repository root:

        d=$(mktemp -d); export PYTHONPATH=src; m="python -m duffing_melnikov.cli"
        echo '{"lambda1": [0.5, 0, -0.25, 0.75, 0, 1, 0, 0, 0, -0.5],
               "gamma1": [0.25, -1, 0, 0, 0.5, 0, 0, 0.75, -0.25, 0],
               "lambda2": [0, 1, 0, 0, 0, 0, 0, 0.5, 0, 0],
               "gamma2": [0, 0, 0.5, 0, 0, 0, -1, 0, 0, 0]}' > $d/p.json
        { $m oracle --seed 3 --h -0.125 --out $d/run0.jsonl
          $m oracle --seed 3 --order 2 --annulus exterior --h 1.0 \
              --eps-list=0.0025,-0.0025,0.00125,-0.00125,0.000625,-0.000625,0.0003125,-0.0003125 \
              --out $d/run1.jsonl
          $m eval --params $d/p.json --h -0.2 --h -0.05 --out $d/run2.jsonl
          $m eval --seed 4 --annulus exterior
          $m coeffs --seed 7
          $m coeffs --seed 7 --order 2 --annulus exterior
          $m coeffs --params $d/p.json
        } | sed "s|$d|TMP|g" > tests/data/stdout_pin.txt
        cat $d/run0.jsonl $d/run1.jsonl $d/run2.jsonl > tests/data/oracle_pin.jsonl
    """
    params = tmp_path / "p.json"
    params.write_text(json.dumps(_EVAL_PIN_PARAMS))
    runs = [["oracle", "--seed", "3", "--h", "-0.125"],
            ["oracle", "--seed", "3", "--order", "2", "--annulus", "exterior", "--h", "1.0",
             "--eps-list=" + _SYMMETRIC_LADDER],
            ["eval", "--params", str(params), "--h", "-0.2", "--h", "-0.05"]]
    _assert_runs_match_pin(tmp_path, runs, _PIN.with_name("oracle_pin.jsonl"))
    for k in (0, 1):
        config = json.loads((tmp_path / f"run{k}.jsonl.config.json").read_text())
        (row,) = map(json.loads, (tmp_path / f"run{k}.jsonl").read_text().splitlines())
        fit = oracle.melnikov_fit(row["h"], PerturbationParams.from_dict(config["params"]),
                                  Annulus.from_label(config["annulus"]), config["eps_list"])
        assert row["samples"] == [[s.epsilon, s.d] for s in fit.samples]
        assert [e for e, _ in row["samples"]] == config["eps_list"]
    for argv in (["eval", "--seed", "4", "--annulus", "exterior"], ["coeffs", "--seed", "7"],
                 ["coeffs", "--seed", "7", "--order", "2", "--annulus", "exterior"],
                 ["coeffs", "--params", str(params)]):
        assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "TMP")
    assert stdout == _PIN.with_name("stdout_pin.txt").read_text()


def test_coeffs_tables_hold_no_negative_zero(capsys, tmp_path):
    # with lambda1[7] = 0 a slot's product is -0.0, which the table must not
    # print or write as a negative number
    params, out = tmp_path / "p.json", tmp_path / "rows.jsonl"
    params.write_text(json.dumps(_EVAL_PIN_PARAMS))
    assert cli.main(["coeffs", "--params", str(params), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "i2-h1     0.000000000000e+00" in printed
    assert not re.search(r"-0\.0+e[+-]00", printed)
    written = []
    for line in out.read_text().splitlines():
        json.loads(line, parse_float=lambda text: written.append(float(text)))
    assert written and not any(x == 0.0 and math.copysign(1.0, x) < 0 for x in written)


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

# Run in a fresh interpreter: the integrating calls and commands, then those
# that evaluate the closed form, with the module count and the scipy modules
# loaded after each group.
_FOOTPRINT = """
import contextlib, io, json, sys
from duffing_melnikov import Annulus, PerturbationParams, abelian, cli, melnikov, oracle

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

def loaded():
    return [len(sys.modules), sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]

params = PerturbationParams((0.5,) * 10, (-0.25,) * 10, (0.0,) * 10, (0.0,) * 10)
with open(sys.argv[1], "w") as fh:
    fh.write(params.to_json())
seen = {"i0": abs(abelian.continue_paths([[1.0, 0.5 + 0.3j]], [Annulus.EXTERIOR])[0][0]),
        "pv": abelian.period_vector(0.5, Annulus.EXTERIOR)[0],
        "m1": melnikov.m1_quadrature(params, 0.5, Annulus.EXTERIOR),
        "d": oracle.displacement(-0.125, 1e-2, params, Annulus.INTERIOR_RIGHT).d,
        "codes": [run("oracle", "--params", sys.argv[1], "--annulus", "exterior", "--h", "1.0")]}
seen["integrating"] = loaded()
seen["codes"] += [run("coeffs", "--seed", "1"),
                  run("eval", "--seed", "1", "--h", "0.5", "--annulus", "exterior")]
seen["seeded"] = loaded()
seen["codes"] += [run("zeros", "--draws", "2"), run("verify")]
seen["closed_form"] = loaded()
print(json.dumps(seen))
"""


def test_integrating_loads_neither_scipy_integrate_nor_optimize(tmp_path):
    # The DOP853 engine finds scipy's tableau file through the package's import
    # spec and polishes crossings with zeros._brentq, so only
    # abelian.transport_table, the solve_ivp reference route, loads
    # scipy.integrate.  The Gauss-Legendre rule is numpy's and the closed form
    # is the package's own AGM, so no scipy module is loaded at all, not even
    # by zeros and verify.  (--seed draws load numpy.random, 17 more modules,
    # so the counted oracle command reads its parameters.)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path / "p.json")],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0, 0, 0, 0]
    for group in ("integrating", "seeded", "closed_form"):
        count, scipy_loaded = seen[group]
        assert scipy_loaded == [] and count <= 260, group
    assert all(math.isfinite(seen[k]) for k in ("i0", "pv", "m1", "d"))
    assert seen["i0"] > 0 and seen["pv"] > 0 and seen["d"] != 0.0
