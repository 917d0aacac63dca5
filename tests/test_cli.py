"""Command-line behavior: payloads, tables, exit codes, determinism."""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from hilfer_mnc import cli
from hilfer_mnc.cli import main
from hilfer_mnc.config import bundled_example, dump_config, parse_config
from hilfer_mnc.errors import DomainError
from hilfer_mnc.fractional import FracParams, closed_form_constant


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _payload(out: str) -> dict:
    """Parse the JSON payload that ends a mixed table + payload stream."""
    idx = out.index("{")
    return json.loads(out[idx:])


def test_gamma_k_both_methods(capsys):
    code, out = _run(["gamma-k", "0.5", "1.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 0.5
    assert data["z"] == 1.5
    assert data["difference"] < 1e-6
    assert data["integral"] == pytest.approx(data["identity"], abs=1e-6)


def test_gamma_k_integral_only(capsys):
    code, out = _run(["gamma-k", "1.0", "1.0", "--integral"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "identity" not in data
    assert data["integral"] == pytest.approx(1.0, abs=1e-8)


def test_gamma_k_rejects_bad_order(capsys):
    code, out = _run(["gamma-k", "-0.5", "1.0"], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "error"
    assert data["error_type"] == "domain"


def test_frac_int_inline_params(capsys):
    code, out = _run(
        [
            "frac-int",
            "--expr", "1",
            "--x", "1.0", "2.0",
            "--k", "0.5",
            "--rho", "0.5",
            "--gamma-ord", "0.5",
            "--T", "3.0",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# frac-int"
    assert lines[1] == "x,value"
    assert lines[2] == "1.0,0.0"
    x_str, val_str = lines[3].split(",")
    assert x_str == "2.0"
    params = FracParams(k=0.5, rho=0.5, gamma_ord=0.5, T=3.0)
    assert float(val_str) == pytest.approx(closed_form_constant(params, 2.0), rel=1e-6)


def test_frac_int_requires_params(capsys):
    code, out = _run(["frac-int", "--expr", "1", "--x", "2.0"], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["error_type"] == "config"


_NEAR_ONE_ARGS = ["--k", "0.6", "--rho", "0.4", "--gamma-ord", "0.3", "--T", "3", "--panels", "4096"]


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
def test_frac_int_next_to_left_endpoint_is_finite(mesh, capsys):
    xs = ["1.000000000001", "1.000000001"]
    code, out = _run(
        ["frac-int", "--expr", "1", "--x", *xs, *_NEAR_ONE_ARGS, "--mesh", mesh], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[:2] == ["# frac-int", "x,value"]
    params = FracParams(k=0.6, rho=0.4, gamma_ord=0.3, T=3.0)
    for x, line in zip(xs, lines[2:], strict=True):
        x_str, val_str = line.split(",")
        assert x_str == x
        assert float(val_str) == pytest.approx(closed_form_constant(params, float(x)), rel=1e-12)


def test_frac_int_rejects_a_point_beyond_T_before_any_output(capsys):
    code, out = _run(
        ["frac-int", "--expr", "1", "--x", "2.0", "5.0", "--k", "0.5", "--rho", "0.5",
         "--gamma-ord", "0.5", "--T", "3"],
        capsys,
    )
    assert code == 2
    # the error payload is all of stdout: no table, not even the 2.0 row
    data = json.loads(out)
    assert data["error_type"] == "domain"
    assert data["message"].endswith("got 5.0")


def test_frac_int_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = _run(
        [
            "frac-int",
            "--paper-example",
            "--expr", "x",
            "--x", "2.0",
            "--out", str(target),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    lines = target.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,value"
    assert lines[1].startswith("2.0,")


def test_check_without_override_fails_bundled_radius(capsys):
    code, out = _run(["check", "--paper-example"], capsys)
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "fail"
    assert data["r0"] == 0.83
    assert data["system_admissible"] is False
    assert data["gamma_k_standard"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    names = [rec["name"] for rec in data["equations"]]
    assert names == ["alpha", "beta"]
    for rec in data["equations"]:
        assert rec["passes"] is True
        assert rec["kernel_factor_overridden"] is True
        assert rec["gamma_k_overridden"] is False


@pytest.mark.parametrize("flags", [[], ["--r0", "0.5"], ["--gamma-k-override", "2.4047"]])
def test_check_dump_then_config_rerun_tests_the_same_radius(tmp_path, capsys, flags):
    # the radius is the config field certificate.r0 (0.83 in the bundled
    # scenario, --r0 overrides it), so the dump carries it and a --config
    # run of the dump prints the direct run's payload with its exit code
    direct = _run(["check", "--paper-example", *flags], capsys)
    code, dumped = _run(["check", "--paper-example", *flags, "--dump-config"], capsys)
    assert code == 0
    r0 = float(flags[1]) if flags[:1] == ["--r0"] else 0.83
    assert json.loads(dumped)["certificate"] == {"r0": r0}
    assert json.loads(direct[1])["r0"] == r0
    config = tmp_path / "dumped.json"
    config.write_text(dumped, encoding="utf-8")
    assert _run(["check", "--config", str(config)], capsys) == direct
    if not flags:
        assert direct[0] == 3


def test_check_with_override_passes(capsys):
    code, out = _run(["check", "--paper-example", "--gamma-k-override", "2.4047"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["system_admissible"] is True
    assert data["epsilon"] == pytest.approx(0.9988756740272524, rel=1e-12)
    rec = data["equations"][0]
    assert rec["gamma_k_overridden"] is True
    assert rec["threshold"] == pytest.approx(0.8311213415730024, rel=1e-12)


def test_check_explicit_radius(capsys):
    code, out = _run(
        ["check", "--paper-example", "--gamma-k-override", "2.4047", "--r0", "0.5"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["r0"] == 0.5
    assert data["epsilon"] < 0.8


def test_check_structural_failure(tmp_path, capsys):
    data = json.loads(dump_config(bundled_example()))
    data["equations"] = [data["equations"][0]]
    data["equations"][0]["f"] = {"expr": "a", "lipschitz": 1.0}
    data["kernel_factor_override"] = None
    p = tmp_path / "c1.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    code, out = _run(["check", "--config", str(p)], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["equations"][0]["passes"] is False
    assert payload["equations"][0]["c1"] == 1.0


def _strict_json(text: str):
    """json.loads that refuses Infinity and NaN, which RFC 8259 JSON does not have."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def _bundled_with(tmp_path, params: dict | None = None, psi: dict | None = None) -> str:
    """Path of the bundled scenario with params updated (kernel factor computed) or psi replaced."""
    data = json.loads(dump_config(bundled_example()))
    if params is not None:
        data["params"].update(params)
        data["kernel_factor_override"] = None
    if psi is not None:
        for eq in data["equations"]:
            eq["psi"] = psi
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("command", ["check", "mnc-demo"])
def test_overflowing_kernel_factor_exits_2(tmp_path, capsys, command):
    # Gamma_k and rho^(-a) are in range, but (T^rho - 1)^(gamma_ord/k) is not
    path = _bundled_with(tmp_path, {"k": 0.0015, "rho": 0.99, "gamma_ord": 0.9, "T": 100.0})
    code = main([command, "--config", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = _strict_json(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert "(T^rho - 1)^(gamma_ord/k)" in payload["message"]
    assert "overflows a double" in payload["message"]


def test_overflowing_kappa_exits_2(tmp_path, capsys):
    # kernel factor 8.0e210 and rho^(-a) 6.5e125 are finite, their product is not
    path = _bundled_with(tmp_path, {"k": 0.005, "rho": 0.2, "gamma_ord": 0.9, "T": 1e6})
    code = main(["check", "--config", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = _strict_json(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert payload["message"].startswith("kappa")


def test_unbounded_radius_prints_null(tmp_path, capsys):
    # a constant psi makes kappa 0: the threshold and the self-map interval
    # have no upper end, which JSON writes as null
    path = _bundled_with(tmp_path, psi={"expr": "0.1", "lipschitz": 0.0})
    code = main(["check", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    payload = _strict_json(captured.out)
    for rec in payload["equations"]:
        assert rec["kappa"] == 0.0
        assert rec["threshold"] is None
        assert rec["selfmap_interval"] == [0.0, None]
        assert rec["passes"] is True


def test_overflowing_factor_at_r0_exits_2(capsys):
    # kappa is finite (about 1e299) but kappa * r0 is not
    argv = ["check", "--paper-example", "--gamma-k-override", "1e-300", "--r0", "1e10"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = _strict_json(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert "not finite" in payload["message"]


def test_solve_stdout_tables_and_summary(capsys):
    code, out = _run(["solve", "--paper-example", "--nodes", "65"], capsys)
    assert code == 0
    assert "# solve alpha" in out
    assert "# solve beta" in out
    assert out.count("p,step_sup,residual,sup_norm") == 2
    data = _payload(out)
    assert data["status"] == "ok"
    assert data["nodes"] == 65
    for rec in data["equations"]:
        assert rec["converged"] is True
        assert rec["residual"] <= 1e-10
        assert 0.0 <= rec["measured_rate"] < 1.0


def test_solve_zero_seed_single_row(capsys):
    code, out = _run(
        ["solve", "--paper-example", "--seed-value", "0", "--nodes", "33"], capsys
    )
    assert code == 0
    alpha_block = out.split("# solve alpha\n")[1].split("#")[0].strip().split("\n")
    assert alpha_block[0] == "p,step_sup,residual,sup_norm"
    assert alpha_block[1] == "1,0.0,0.0,0.0"
    assert len(alpha_block) == 2


def test_solve_out_files_per_equation(tmp_path, capsys):
    base = tmp_path / "trace.csv"
    code, out = _run(
        ["solve", "--paper-example", "--nodes", "65", "--out", str(base)], capsys
    )
    assert code == 0
    assert "# solve" not in out
    for name in ("alpha", "beta"):
        body = (tmp_path / f"trace_{name}.csv").read_text(encoding="utf-8")
        lines = body.strip().split("\n")
        assert lines[0] == "p,step_sup,residual,sup_norm"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0.0


def test_solve_budget_exhaustion_exits_4(tmp_path, capsys):
    base = tmp_path / "trace.csv"
    code, out = _run(
        [
            "solve",
            "--paper-example",
            "--nodes", "33",
            "--tol", "1e-15",
            "--max-iter", "2",
            "--out", str(base),
        ],
        capsys,
    )
    assert code == 4
    data = _payload(out)
    assert data["status"] == "nonconverged"
    # the trace files are still written for post-mortem inspection
    assert (tmp_path / "trace_alpha.csv").exists()
    assert (tmp_path / "trace_beta.csv").exists()


def test_mnc_demo_table_and_payload(capsys):
    code, out = _run(["mnc-demo", "--paper-example"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "# mnc-demo alpha"
    assert lines[1] == "p,mu0,hausdorff,ratio"
    first = lines[2].split(",")
    assert first[0] == "0"
    assert first[3] == ""  # no ratio for the seed row
    cfg = bundled_example()
    table = [ln for ln in lines[2:] if ln and not ln.startswith(("{", " ", "}"))]
    assert len(table) == cfg.mnc.p_max + 1
    data = _payload(out)
    assert data["status"] == "pass"
    assert data["diagnostic_only"] is False
    assert data["step3_pass"] is True
    assert data["inequality_pass"] is True
    assert data["certificate"]["kernel_factor_overridden"] is True
    assert 0.0 < data["factor"] < 1.0
    assert data["zero_conditions"] is True


def test_mnc_demo_equation_selector(capsys):
    code, out = _run(["mnc-demo", "--paper-example", "--equation", "beta"], capsys)
    assert code == 0
    assert out.startswith("# mnc-demo beta\n")
    code, out = _run(["mnc-demo", "--paper-example", "--equation", "nope"], capsys)
    assert code == 2
    assert json.loads(out)["error_type"] == "config"


def test_dump_config_round_trips(capsys):
    code, out = _run(["solve", "--paper-example", "--dump-config"], capsys)
    assert code == 0
    assert parse_config(json.loads(out)) == bundled_example()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--paper-example"],
        ["solve", "--paper-example"],
        ["mnc-demo", "--paper-example"],
        ["frac-int", "--paper-example", "--expr", "1", "--x", "2"],
        ["paper-example"],
    ],
    ids=["check", "solve", "mnc-demo", "frac-int", "paper-example"],
)
def test_dump_config_has_no_zero_at_zero_and_round_trips(capsys, argv):
    code, out = _run([*argv, "--dump-config"], capsys)
    assert code == 0
    assert "zero_at_zero" not in out
    assert parse_config(_strict_json(out)) == bundled_example()


def test_dump_config_reflects_override(capsys):
    code, out = _run(
        ["check", "--paper-example", "--gamma-k-override", "2.4047", "--dump-config"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["gamma_k_override"] == 2.4047
    assert parse_config(data) == bundled_example().with_gamma_k_override(2.4047)


def test_missing_config_source_exits_2(capsys):
    code, out = _run(["check"], capsys)
    assert code == 2
    assert json.loads(out)["error_type"] == "config"


@pytest.mark.parametrize(
    "argv, section, field, value",
    [
        (["solve", "--tol", "1e-6"], "solver", "tol", 1e-6),
        (["solve", "--max-iter", "50"], "solver", "max_iter", 50),
        (["solve", "--nodes", "4097"], "solver", "nodes", 4097),
        (["frac-int", "--expr", "1", "--x", "2", "--panels", "2048"], "quadrature", "panels", 2048),
        (["frac-int", "--expr", "1", "--x", "2", "--mesh", "graded"], "quadrature", "mesh", "graded"),
        (["solve", "--out", "t.csv"], "output", "path", "t.csv"),
        (["check", "--out", "t.csv"], "output", "path", "t.csv"),
        (["mnc-demo", "--out", "t.csv"], "output", "path", "t.csv"),
        (["frac-int", "--expr", "1", "--x", "2", "--out", "t.csv"], "output", "path", "t.csv"),
    ],
    ids=["tol", "max-iter", "nodes", "panels", "mesh", "solve-out", "check-out", "mnc-demo-out",
         "frac-int-out"],
)
def test_dump_config_reflects_each_override_flag(capsys, argv, section, field, value):
    code, out = _run([*argv, "--paper-example", "--dump-config"], capsys)
    assert code == 0
    data = _strict_json(out)
    assert data[section][field] == value
    data[section][field] = getattr(getattr(bundled_example(), section), field)
    assert parse_config(data) == bundled_example()


# per command: flags a dump carries, and CLI-only arguments a re-run must repeat
_RERUN_CASES = {
    "solve": (["--nodes", "65", "--tol", "1e-6", "--max-iter", "50"], ["--seed-value", "0.3"]),
    "check": (["--gamma-k-override", "2.4047"], ["--r0", "0.5", "--probes", "21"]),
    "mnc-demo": (["--gamma-k-override", "2.4047"], ["--equation", "beta"]),
    "frac-int": (["--panels", "512", "--mesh", "graded"],
                 ["--expr", "sin(x)", "--x", "1.5", "2.5", "--phi-nodes", "513"]),
}


@pytest.mark.parametrize("command", list(_RERUN_CASES))
def test_dump_then_config_rerun_is_byte_identical(tmp_path, capsys, command):
    flags, cli_only = _RERUN_CASES[command]
    tables = tmp_path / "tables"
    tables.mkdir()
    flags = [*flags, "--out", str(tables / "t.csv")]

    def outputs(argv):
        for old in tables.iterdir():
            old.unlink()
        code = main(argv)
        return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in tables.iterdir()}

    direct = outputs([command, "--paper-example", *flags, *cli_only])
    code, dumped = _run([command, "--paper-example", *flags, *cli_only, "--dump-config"], capsys)
    assert code == 0
    config = tmp_path / "dumped.json"
    config.write_text(dumped, encoding="utf-8")
    rerun = outputs([command, "--config", str(config), *cli_only])
    assert rerun == direct
    assert bool(direct[2]) == (command != "check")


@pytest.mark.parametrize("flag", [["--k", "0.9"], ["--rho", "0.9"], ["--gamma-ord", "0.5"], ["--T", "3"]])
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump"])
def test_frac_int_refuses_a_config_source_with_inline_params(capsys, flag, dump):
    code, out = _run(["frac-int", "--paper-example", *flag, "--expr", "1", "--x", "2", *dump], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error_type"] == "config"
    assert "not both" in payload["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["solve", "--nodes", "65"],
        ["mnc-demo"],
        ["frac-int", "--expr", "x", "--x", "2", "--k", "0.5", "--rho", "0.5", "--gamma-ord", "0.5",
         "--T", "3"],
    ],
    ids=["check", "solve", "mnc-demo", "frac-int"],
)
def test_dump_config_without_a_config_source_exits_2(capsys, argv):
    code, out = _run([*argv, "--dump-config"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error_type"] == "config"
    assert payload["message"] == "pass --config PATH or --paper-example"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--tol", "inf"], "solver.tol: expected a finite number, got inf"),
        (["solve", "--tol", "-1"], "solver.tol: must be positive, got -1.0"),
        (["solve", "--max-iter", "0"], "solver.max_iter: must be >= 1, got 0"),
        (["solve", "--nodes", "1"], "solver.nodes: must be >= 2, got 1"),
        (["frac-int", "--expr", "1", "--x", "2", "--panels", "0"], "quadrature.panels: must be >= 1, got 0"),
        (["check", "--r0", "-1"], "certificate.r0: must be >= 0, got -1.0"),
        (["check", "--r0", "inf"], "certificate.r0: expected a finite number, got inf"),
    ],
    ids=["tol-inf", "tol-negative", "max-iter", "nodes", "panels", "r0-negative", "r0-inf"],
)
def test_dump_config_refuses_what_parse_config_refuses(capsys, argv, message):
    # the flag fails its config field's own check, so a run without
    # --dump-config prints the same bytes
    outputs = []
    for dump in (["--dump-config"], []):
        code = main([*argv, "--paper-example", *dump])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    payload = _strict_json(outputs[0])
    assert (payload["status"], payload["error_type"]) == ("error", "config")
    assert payload["message"] == message


@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan], ids=["negative", "zero", "inf", "nan"])
def test_bad_gamma_k_override_fails_one_check_on_every_route(tmp_path, capsys, value):
    # a config file (NaN and Infinity are JSON extensions Python reads), the
    # flag, and the flag with --dump-config print the same bytes
    data = json.loads(dump_config(bundled_example()))
    data["gamma_k_override"] = value
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    flag = ["--paper-example", "--gamma-k-override", str(value)]
    outputs = []
    for argv in (["--config", str(p)], flag, [*flag, "--dump-config"]):
        code = main(["solve", *argv])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    payload = _strict_json(outputs[0])
    assert (payload["status"], payload["error_type"]) == ("error", "config")
    assert payload["message"].startswith("gamma_k_override: ")


def test_mnc_deltas_wider_than_the_domain_exit_2_naming_the_path(tmp_path, capsys):
    data = json.loads(dump_config(bundled_example()))
    data["mnc"]["deltas"] = [5.0, 1.0, 0.5]
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    outputs = []
    for dump in ([], ["--dump-config"]):
        code = main(["mnc-demo", "--config", str(p), *dump])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert _strict_json(outputs[0]) == {
        "status": "error",
        "error_type": "config",
        "message": "mnc.deltas[0]: must not exceed the domain span 2.0, got 5.0",
    }


def test_frac_int_inline_panels_fail_the_quadrature_check(capsys):
    code, out = _run(["frac-int", "--expr", "1", "--x", "2", "--k", "0.5", "--rho", "0.5",
                      "--gamma-ord", "0.5", "--T", "3", "--panels", "0"], capsys)
    assert code == 2
    assert _strict_json(out) == {
        "status": "error", "error_type": "config", "message": "quadrature.panels: must be >= 1, got 0"
    }


def test_config_file_with_a_bad_section_value_exits_2(tmp_path, capsys):
    data = json.loads(dump_config(bundled_example()))
    data["mnc"]["ensemble"] = 0
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    code = main(["mnc-demo", "--config", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert _strict_json(captured.out) == {
        "status": "error", "error_type": "config", "message": "mnc.ensemble: must be >= 1, got 0"
    }


def test_exhausted_quadrature_budget_exits_4(capsys):
    code = main(["gamma-k", "0.5", "1.5", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (4, "")
    assert _strict_json(captured.out) == {
        "status": "error", "error_type": "nonconvergence", "message": "quadrature evaluation budget exhausted"
    }


@pytest.mark.parametrize("expr", ["a", "a^0", "sin(x*a)", "max(x, -a)", "x+0*a"])
@pytest.mark.parametrize(
    "source",
    [["--paper-example"], ["--k", "0.5", "--rho", "0.5", "--gamma-ord", "0.5", "--T", "3"]],
    ids=["config", "inline"],
)
def test_frac_int_refuses_an_integrand_that_reads_a(capsys, expr, source):
    # a^0 is 1 even at a = nan, so only a walk of the tree catches it
    code, out = _run(["frac-int", *source, "--expr", expr, "--x", "2"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error_type"] == "domain"
    assert "variable a" in payload["message"]


def test_invalid_json_config_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    code, out = _run(["solve", "--config", str(p)], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["error_type"] == "config"
    assert "line 1" in data["message"]


def _set_path(data: dict, path: str, value) -> None:
    """data["equations"][0]["f"]["lipschitz"] = value for "equations[0].f.lipschitz"."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
    for key in keys[:-1]:
        data = data[key]
    data[keys[-1]] = value


@pytest.mark.parametrize("command", ["check", "solve", "mnc-demo"])
@pytest.mark.parametrize(
    "path", ["params.T", "solver.tol", "equations[0].f.lipschitz", "mnc.deltas[0]"]
)
def test_nonfinite_config_number_exits_2(tmp_path, capsys, command, path):
    # JSON has no inf literal, but 1e999 overflows to inf when decoded
    data = json.loads(dump_config(bundled_example()))
    _set_path(data, path, "NONFINITE")
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(data).replace('"NONFINITE"', "1e999"), encoding="utf-8")
    code = main([command, "--config", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["error_type"] == "config"
    assert payload["message"] == f"{path}: expected a finite number, got inf"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("min(abs(a),1e999)/6", "number 1e999 overflows a double (at offset 11)"),
        ("+".join(["a"] * 1000), "expression nests deeper than 100 levels (at offset 201)"),
        ("(" * 200 + "a" + ")" * 200, "expression nests deeper than 100 levels (at offset 100)"),
        ("2^" * 600 + "a", "expression nests deeper than 100 levels (at offset 201)"),
        ("-" * 990 + "a", "expression nests deeper than 100 levels (at offset 100)"),
        ("abs(" * 300 + "a" + ")" * 300, "expression nests deeper than 100 levels (at offset 400)"),
    ],
    ids=["literal-1e999", "sum-1000", "parentheses-200", "powers-600", "minus-990", "calls-300"],
)
def test_refused_expression_is_a_config_error_with_and_without_dump(tmp_path, capsys, expr, message):
    data = json.loads(dump_config(bundled_example()))
    data["equations"][0]["f"]["expr"] = expr
    p = tmp_path / "refused.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    outputs = []
    for extra in ([], ["--dump-config"]):
        code = main(["solve", "--config", str(p), *extra])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    payload = _strict_json(outputs[0])
    assert payload["error_type"] == "config"
    assert payload["message"] == f"equations[0].f.expr: {message}"


def test_frac_int_rejects_infinite_T(capsys):
    code = main(["frac-int", "--expr", "1", "--x", "2.0", "--k", "0.5", "--rho", "0.5",
                 "--gamma-ord", "0.5", "--T", "inf"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["error_type"] == "domain"
    assert payload["message"] == "T must be finite, got inf"


@pytest.mark.parametrize(
    "argv, error_type",
    [
        # a flag that sets a config field fails the field's own check
        (["solve", "--paper-example", "--tol", "inf"], "config"),
        (["check", "--paper-example", "--r0", "inf"], "config"),
        (["solve", "--paper-example", "--gamma-k-override", "inf"], "config"),
        (["gamma-k", "0.5", "inf"], "domain"),
        (["frac-int", "--expr", "1", "--x", "2.0", "--k", "0.5", "--rho", "0.5",
          "--gamma-ord", "0.5", "--T", "3", "--gamma-k-override", "inf"], "domain"),
        (["solve", "--paper-example", "--seed-value", "inf"], "domain"),
    ],
    ids=["solve-tol", "check-r0", "solve-gamma-k-override", "gamma-k-z", "frac-int-gamma-k",
         "solve-seed-value"],
)
def test_nonfinite_flag_exits_2(capsys, argv, error_type):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", error_type)
    assert "finite" in payload["message"] and payload["message"].endswith("got inf")


_FRAC_INT_SMALL_K = ["frac-int", "--expr", "x", "--x", "2", "--rho", "0.5", "--gamma-ord", "0.9", "--T", "3"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["gamma-k", "0.5", "400"], "outside the normal double range"),
        ([*_FRAC_INT_SMALL_K, "--k", "0.001"], "outside the normal double range"),
        ([*_FRAC_INT_SMALL_K, "--k", "0.0005"], "overflows a double"),
    ],
    ids=["gamma-k-overflows", "frac-int-gamma-k-underflows", "frac-int-prefactor-overflows"],
)
def test_out_of_range_gamma_k_or_prefactor_exits_2(capsys, argv, fragment):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert fragment in payload["message"]


def test_frac_int_overflowing_row_sum_exits_2(capsys):
    # the prefactor is finite; the prefactor times the sum over phi = 1.7e308 is not
    argv = ["frac-int", "--expr", "1.7e308", "--x", "2", "3"]
    code = main(argv + ["--k", "0.5", "--rho", "0.5", "--gamma-ord", "0.5", "--T", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = _strict_json(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert payload["message"].startswith("the integral overflows a double at x = 2.0 ")


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_frac_int_overflowing_integral_exits_2(tmp_path, capsys, fmt):
    # (X - 1)^(gamma_ord/k) = 9119^90 overflows at x = 1e4; at x = 2 it is in range
    argv = ["frac-int", "--expr", "1", "--x", "2", "1e4"]
    if fmt == "csv":
        argv += ["--k", "0.01", "--rho", "0.99", "--gamma-ord", "0.9", "--T", "1e4"]
    else:
        data = json.loads(dump_config(bundled_example()))
        data["params"] = {"k": 0.01, "rho": 0.99, "gamma_ord": 0.9, "T": 1e4}
        data["output"]["format"] = "json-lines"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv += ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    # the error payload is all of stdout: no row, not even the finite one at x = 2
    payload = _strict_json(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "domain")
    assert "(X - 1)^(gamma_ord/k)" in payload["message"]
    assert "x = 10000.0" in payload["message"]


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_emit_rows_refuses_a_nonfinite_cell(capsys, fmt, bad):
    rows = [[1.0, 2.0, None], [2.0, bad, 0.5]]
    with pytest.raises(DomainError, match=r"^table t, row 2: value = .* is not finite$"):
        cli._emit_rows(["x", "value", "ratio"], rows, fmt, None, label="t")
    assert capsys.readouterr().out == ""
    # a None cell is written empty or as null
    cli._emit_rows(["x", "value", "ratio"], rows[:1], fmt, None, label="t")
    body = capsys.readouterr().out.splitlines()[1:]
    assert body == (["x,value,ratio", "1.0,2.0,"] if fmt == "csv" else ['{"ratio": null, "value": 2.0, "x": 1.0}'])


def _csv_writer_table(header: list[str], rows: list[list]) -> str:
    """The table as csv.writer writes it, each float cell given as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("path", [False, True], ids=["stdout", "file"])
def test_emit_rows_csv_is_what_csv_writer_writes(capsys, tmp_path, path):
    header = ["p", "value", "ratio"]
    floats = [0.1, -0.0, 1e-05, 1e16, -2.5e-300, 2.0, 1.0 / 3.0]
    rows = [[p, v, None if p % 3 == 0 else -v / 7.0] for p, v in enumerate(floats)]
    rows.append([0, None, None])
    want = _csv_writer_table(header, rows)
    assert "1e-05" in want and "1e+16" in want and "-2.5e-300" in want and "-0.0" in want
    out = tmp_path / "t.csv" if path else None
    cli._emit_rows(header, rows, "csv", None if out is None else str(out), label="t")
    got = capsys.readouterr().out
    if out is None:
        assert got == "# t\n" + want
    else:
        assert got == ""
        assert out.read_bytes() == want.encode()


@pytest.mark.parametrize(
    "argv, written",
    [
        (["solve", "--paper-example", "--nodes", "65"], "x_alpha.csv"),
        (["mnc-demo", "--paper-example"], "x.csv"),
    ],
    ids=["solve", "mnc-demo"],
)
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, argv, written):
    missing = tmp_path / "missing"
    code = main([*argv, "--out", str(missing / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert (payload["status"], payload["error_type"]) == ("error", "config")
    assert str(missing / written) in payload["message"]
    assert not missing.exists()


def test_help_and_usage_list_every_subcommand(capsys):
    listing = "{gamma-k,frac-int,check,solve,mnc-demo,paper-example}"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert listing in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--seed-value" in capsys.readouterr().out
    # an argument no subparser takes is reported by the top-level parser
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--paper-example", "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert listing in err and "unrecognized arguments: extra" in err


def test_successive_calls_keep_no_option(capsys):
    code, out = _run(["solve", "--paper-example", "--tol", "1e-6"], capsys)
    assert code == 0
    assert _payload(out)["tol"] == 1e-6
    code, out = _run(["solve", "--paper-example"], capsys)
    assert code == 0
    assert _payload(out)["tol"] == bundled_example().solver.tol == 1e-10


def test_successive_calls_recover_from_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nodes", "abc"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = _run(["solve", "--paper-example", "--nodes", "33"], capsys)
    assert code == 0
    assert _payload(out)["status"] == "ok"


def test_successive_calls_do_not_accumulate_points(capsys):
    argv = ["frac-int", "--expr", "1", "--k", "0.5", "--rho", "0.5", "--gamma-ord", "0.5",
            "--T", "3", "--x"]
    code, out = _run(argv + ["1.5", "2.0"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 4
    code, out = _run(argv + ["2.5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[:2] == ["# frac-int", "x,value"]
    assert len(lines) == 3 and lines[2].startswith("2.5,")


def test_parser_is_built_once_per_command():
    # the successive-call tests above run on these shared parsers
    solve = cli.build_parser(["solve", "--paper-example"])
    assert cli.build_parser(["solve", "--nodes", "33"]) is solve
    assert cli.build_parser(["check", "--paper-example"]) is not solve
    assert cli.build_parser(["--help"]) is cli.build_parser(["no-such-command"])


def _counting(monkeypatch, module, name: str, counts: dict) -> None:
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("override, want_code", [(None, 3), ("2.4047", 0)])
def test_paper_example_is_exactly_its_three_stages(monkeypatch, capsys, override, want_code):
    from hilfer_mnc import cli, config, solvability

    flag = [] if override is None else ["--gamma-k-override", override]
    stages = []
    for command in ("check", "solve", "mnc-demo"):
        _, out = _run([command, "--paper-example", *flag], capsys)
        stages.append(out)

    counts: dict = {}
    _counting(monkeypatch, cli, "certify", counts)
    _counting(monkeypatch, solvability, "estimate_lipschitz", counts)
    _counting(monkeypatch, config, "parse_config", counts)
    code, out = _run(["paper-example", *flag], capsys)
    assert code == want_code
    assert out == "".join(stages)
    # the scenario is loaded once; alpha is certified once, by the check
    # stage, and mnc-demo reuses it
    assert counts == {"certify": 2, "estimate_lipschitz": 6, "parse_config": 1}


def test_paper_example_bundle_without_override_fails(capsys):
    code, out = _run(["paper-example"], capsys)
    assert code == 3
    first = out.index("{")
    check_payload = json.loads(out[first : out.index("}\n# ", first) + 2])
    assert check_payload["status"] == "fail"


def test_paper_example_bundle_with_override(capsys):
    code, out = _run(["paper-example", "--gamma-k-override", "2.4047"], capsys)
    assert code == 0
    assert "# solve alpha" in out
    assert "# mnc-demo alpha" in out
    assert '"status": "pass"' in out


def _subprocess_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def test_mnc_demo_bytes_identical_across_threads():
    # the batched operator matmul must not depend on how the BLAS splits it
    cmd = [sys.executable, "-m", "hilfer_mnc.cli", "mnc-demo", "--paper-example"]
    runs = {
        threads: subprocess.run(
            cmd, capture_output=True, env=_subprocess_env(threads), check=True
        )
        for threads in ("1", "2")
    }
    assert runs["1"].stdout == runs["2"].stdout
    assert runs["1"].stdout  # nonempty
    # a second single-thread run is byte-identical too
    again = subprocess.run(cmd, capture_output=True, env=_subprocess_env("1"), check=True)
    assert again.stdout == runs["1"].stdout


# the bundled OpenBLAS's thread count after import, after a library solve,
# and after one CLI command; "none" where numpy bundles no such library
_BLAS_PROBE = """
import contextlib, ctypes, io, pathlib
import numpy as np
import hilfer_mnc
from hilfer_mnc import cli

libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
libs = [ctypes.CDLL(str(lib)) for lib in sorted(libs.glob("*openblas*"))]
getters = [lib.scipy_openblas_get_num_threads64_ for lib in libs if hasattr(lib, "scipy_openblas_get_num_threads64_")]
def threads():
    return getters[0]() if getters else "none"
seen = [threads()]
eq = hilfer_mnc.bundled_example().equations[0]
nodes = hilfer_mnc.uniform_nodes(eq.params.T, 65)
hilfer_mnc.solve(eq, hilfer_mnc.GridFunction(nodes=nodes, values=np.zeros(65)), tol=1e-8)
seen.append(threads())
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["gamma-k", "0.5", "1.5"])
seen.append(threads())
print(*seen)
"""


def test_cli_runs_the_bundled_blas_on_one_thread():
    # with OPENBLAS_NUM_THREADS=2 the library API leaves the BLAS on its two
    # threads, and the CLI's main sets one, silently
    env = _subprocess_env("2")
    probe = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env, check=True)
    assert probe.stderr == ""
    imported, solved, after_cli = probe.stdout.split()
    if imported in ("none", "1"):
        pytest.skip("no bundled OpenBLAS with a thread-count getter, or one core: nothing to pin")
    assert imported == solved == "2"
    assert after_cli == "1"


# live threads after import and after each CLI stage, and the threads each
# stage started, with one helper thread per call: a 4097-node solve builds
# the large-grid operator's near band on the calling thread
_THREAD_PROBE = """
import contextlib, io, threading
import hilfer_mnc
from hilfer_mnc import cli, fractional

fractional._helper_count = lambda: 1
started = []
start = threading.Thread.start

def counted(self):
    started.append(self.name)
    start(self)

threading.Thread.start = counted
counts = [threading.active_count()]
starts = []
x = [str(1.0 + j / 32) for j in range(65)]
for argv in (
    ["paper-example"],
    ["solve", "--paper-example"],
    ["solve", "--paper-example", "--nodes", "4097"],
    ["frac-int", "--paper-example", "--expr", "x", "--x", *x],
):
    started.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    counts.append(threading.active_count())
    starts.append(len(started))
blocks = -(-len(x) // (fractional._POINT_BLOCK // 1025))
print(*counts, *starts, blocks)
"""


def test_every_thread_a_stage_starts_ends_with_it():
    run = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE],
        capture_output=True, text=True, env=_subprocess_env("1"), check=True,
    )
    values = list(map(int, run.stdout.split()))
    counts, starts, blocks = values[:5], values[5:9], values[9]
    # only the point rule starts threads: the 129-node stages and the
    # 4097-node solve start none, and 65 points on the bundled 1024-panel
    # mesh take at least two blocks, so frac-int starts one; every call
    # joins its helpers before it returns
    assert blocks >= 2
    assert starts == [0, 0, 0, 1]
    assert counts == [1, 1, 1, 1, 1]


def test_closed_stdout_exits_quietly():
    # `hilfer-mnc paper-example | head -n 5`: the reader closes the pipe
    # before the output ends; the run stops with exit 1 and no traceback
    cmd = [sys.executable, "-m", "hilfer_mnc.cli", "paper-example"]
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env("1")
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# the second of two paper-example runs in one process; prints its minor faults
_FAULT_PROBE = """
import contextlib, io, resource
from hilfer_mnc import cli
argv = ["paper-example", "--gamma-k-override", "2.4047"]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()), reason="glibc Linux only")
def test_repeated_paper_example_reuses_freed_heap():
    # with glibc's default thresholds the growing Darbo temporaries are
    # mapped and unmapped on every step: about 1,450 faults per run
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True, text=True, env=_subprocess_env("1"), check=True, timeout=120,
    )
    assert int(proc.stdout) < 300


@pytest.mark.parametrize(
    "module, name",
    [(ctypes, "CDLL"), (os, "confstr")],
    ids=["mallopt-lookup-fails", "not-glibc"],
)
def test_main_runs_unchanged_without_mallopt(monkeypatch, capsys, module, name):
    argv = ["paper-example", "--gamma-k-override", "2.4047"]
    want = _run(argv, capsys)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise OSError("no C library here")

    monkeypatch.setattr(module, name, refuse)
    assert _run(argv, capsys) == want
    assert want[0] == 0 and calls
