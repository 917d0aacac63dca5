"""Config schema validation, round trips, and the bundled scenario."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from hilfer_mnc.config import (
    BUNDLED_R0,
    CertificateConfig,
    MncConfig,
    OutputConfig,
    QuadratureConfig,
    RunConfig,
    SolverConfig,
    bundled_example,
    config_to_dict,
    dump_config,
    load_config,
    parse_config,
)
from hilfer_mnc.errors import ConfigError
from hilfer_mnc.expressions import evaluate
from hilfer_mnc.fractional import MAX_FLOATS, FracParams


def _base() -> dict:
    return json.loads(dump_config(bundled_example()))


def test_bundled_scenario_shape():
    cfg = bundled_example()
    assert cfg.names == ("alpha", "beta")
    assert cfg.params.k == pytest.approx(1.0 / 3.0)
    assert cfg.params.rho == pytest.approx(1.0 / 3.0)
    assert cfg.params.gamma_ord == pytest.approx(2.0 / 3.0)
    assert cfg.params.T == 3.0
    assert cfg.kernel_factor_override == 0.5358
    assert cfg.params.gamma_k_override is None
    assert not hasattr(cfg, "gamma_k_override")
    assert cfg.solver.nodes == 129
    assert cfg.quadrature == type(cfg.quadrature)(panels=1024, mesh="uniform")
    assert cfg.mnc.deltas == (0.25, 0.125, 0.0625, 0.03125)
    assert BUNDLED_R0 == 0.83


def test_bundled_nonlinearities_evaluate():
    cfg = bundled_example()
    eq = cfg.equations[0]
    assert evaluate(eq.f.expr, x=2.0, a=-3.0) == pytest.approx(0.5)
    assert evaluate(eq.psi.expr, x=1.0, a=-2.0) == 2.0
    assert eq.g.lipschitz == pytest.approx(1.0 / 3.0)


def _readme_example(zero_at_zero: bool) -> dict:
    """The config example of the README, with or without the zero_at_zero flag of older configs."""

    def block(expr: str, lipschitz: float) -> dict:
        out = {"expr": expr, "lipschitz": lipschitz}
        if zero_at_zero:
            out["zero_at_zero"] = True
        return out

    return {
        "params": {"k": 0.333, "rho": 0.333, "gamma_ord": 0.667, "T": 3.0},
        "equations": [
            {
                "name": "alpha",
                "f": block("abs(a)/6", 0.1667),
                "psi": block("abs(a)", 1.0),
                "g": block("a/(3+log(x))", 0.333),
            }
        ],
        "solver": {"tol": 1e-10, "max_iter": 200, "nodes": 129},
        "quadrature": {"panels": 1024, "mesh": "uniform"},
        "gamma_k_override": None,
        "kernel_factor_override": None,
        "mnc": {"deltas": [0.25, 0.125, 0.0625, 0.03125], "ensemble": 30, "p_max": 8, "rng_seed": 42},
        "output": {"format": "csv", "path": None},
    }


def test_zero_at_zero_key_still_loads_and_is_ignored():
    old = _readme_example(zero_at_zero=True)
    assert all("zero_at_zero" in old["equations"][0][n] for n in ("f", "psi", "g"))
    assert parse_config(old) == parse_config(_readme_example(zero_at_zero=False))
    # any value loads, as for every other key the schema does not use
    old["equations"][0]["f"]["zero_at_zero"] = "yes"
    assert parse_config(old) == parse_config(_readme_example(zero_at_zero=False))


def test_dump_parse_round_trip():
    cfg = bundled_example()
    again = parse_config(json.loads(dump_config(cfg)))
    assert again == cfg


def test_config_to_dict_round_trip_after_override():
    base = bundled_example()
    assert base.with_gamma_k_override(None) is base
    cfg = base.with_gamma_k_override(2.4047)
    # one params object, on the config and on every equation
    assert cfg.params == replace(base.params, gamma_k_override=2.4047)
    assert all(eq.params is cfg.params for eq in cfg.equations)
    data = config_to_dict(cfg)
    # the override stays a top-level key of the file, not a field of params
    assert data["gamma_k_override"] == 2.4047 and "gamma_k_override" not in data["params"]
    again = parse_config(data)
    assert again == cfg
    assert again.params.gamma_k_override == 2.4047
    assert all(eq.params is again.params for eq in again.equations)


def test_rejects_equations_that_disagree_on_the_gamma_k_override():
    cfg = bundled_example()
    alpha, beta = cfg.equations
    beta = replace(beta, params=replace(beta.params, gamma_k_override=2.4))
    with pytest.raises(ConfigError, match=r"^equations\[1\]\.params: .*gamma_k_override=2\.4\) differ from params"):
        replace(cfg, equations=(alpha, beta))


@pytest.mark.parametrize(
    "value, message",
    [
        (-1, "gamma_k_override: must be positive, got -1.0"),
        (0, "gamma_k_override: must be positive, got 0.0"),
        (float("inf"), "gamma_k_override: expected a finite number, got inf"),
        (float("nan"), "gamma_k_override: expected a finite number, got nan"),
    ],
    ids=["negative", "zero", "inf", "nan"],
)
def test_gamma_k_override_is_checked_once_for_file_and_flag(value, message):
    # the config key and with_gamma_k_override (the CLI flag) run one check
    data = _base()
    data["gamma_k_override"] = value
    for build in (lambda: parse_config(data), lambda: bundled_example().with_gamma_k_override(value)):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message


def test_rejects_mnc_deltas_wider_than_the_domain():
    # T = 3: the span is 2, and a first delta of exactly 2 passes
    with pytest.raises(ConfigError) as info:
        parse_config(_replaced(("mnc", "deltas"), [5.0, 1.0, 0.5]))
    assert str(info.value) == "mnc.deltas[0]: must not exceed the domain span 2.0, got 5.0"
    assert parse_config(_replaced(("mnc", "deltas"), [2.0, 1.0, 0.5])).mnc.deltas[0] == 2.0
    with pytest.raises(ConfigError, match=r"^mnc\.deltas\[0\]: must not exceed"):
        replace(bundled_example(), mnc=MncConfig(deltas=(2.5, 1.0, 0.5)))


def test_rejects_params_that_differ_from_the_equations():
    cfg = bundled_example()
    with pytest.raises(ConfigError, match=r"^equations\[0\]\.params: .* differ from params"):
        replace(cfg, params=FracParams(0.5, 0.5, 0.5, 4.0))


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(dump_config(bundled_example()), encoding="utf-8")
    assert load_config(str(p)) == bundled_example()


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "params": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2 column 14"):
        load_config(str(p))


def test_load_config_rejects_an_overlong_integer(tmp_path):
    # Python refuses to convert integer strings beyond its digit limit
    p = tmp_path / "long.json"
    p.write_text('{"params": {"k": ' + "1" * 5000 + "}}", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"invalid JSON: Exceeds the limit"):
        load_config(str(p))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.json")


def test_missing_required_field():
    data = _base()
    del data["params"]["k"]
    with pytest.raises(ConfigError, match=r"params\.k: missing required field"):
        parse_config(data)
    data = _base()
    del data["equations"][0]["f"]
    with pytest.raises(ConfigError, match=r"equations\[0\]\.f"):
        parse_config(data)


def test_rejects_bad_mesh():
    data = _base()
    data["quadrature"]["mesh"] = "chebyshev"
    with pytest.raises(ConfigError, match="quadrature.mesh"):
        parse_config(data)


def test_certificate_radius_is_a_config_field():
    # the bundled scenario certifies 0.83; a config without the section, or
    # with r0 null, certifies no radius
    assert bundled_example().certificate.r0 == BUNDLED_R0
    data = _base()
    assert data["certificate"] == {"r0": BUNDLED_R0}
    del data["certificate"]
    assert parse_config(data).certificate.r0 is None
    data["certificate"] = {"r0": None}
    assert parse_config(data).certificate.r0 is None
    data["certificate"] = {"r0": 0.5}
    assert parse_config(data).certificate.r0 == 0.5


@pytest.mark.parametrize(
    "value, message",
    [(-0.1, "must be >= 0, got -0.1"), ("0.8", "expected a number"), (1e999, "expected a finite number")],
)
def test_rejects_bad_certificate_radius(value, message):
    data = _base()
    data["certificate"]["r0"] = value
    with pytest.raises(ConfigError, match=rf"^certificate\.r0: {message}"):
        parse_config(data)


def test_rejects_three_equations():
    data = _base()
    data["equations"].append(data["equations"][0] | {"name": "gamma"})
    with pytest.raises(ConfigError, match="one or two blocks"):
        parse_config(data)


def test_rejects_duplicate_names():
    data = _base()
    data["equations"][1]["name"] = "alpha"
    with pytest.raises(ConfigError, match="names must be distinct"):
        parse_config(data)


def test_rejects_nondecreasing_deltas():
    data = _base()
    data["mnc"]["deltas"] = [0.0625, 0.125, 0.25]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(data)
    data["mnc"]["deltas"] = [0.25, 0.125]
    with pytest.raises(ConfigError, match="at least 3"):
        parse_config(data)


def test_rejects_nonpositive_tol():
    data = _base()
    data["solver"]["tol"] = 0.0
    with pytest.raises(ConfigError, match="solver.tol"):
        parse_config(data)


def test_rejects_bool_where_number_expected():
    data = _base()
    data["params"]["k"] = True
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(data)
    data = _base()
    data["solver"]["max_iter"] = True
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(data)


def test_rejects_nonfinite_numbers():
    # NaN and Infinity are JSON extensions that Python's decoder reads; an
    # integer beyond the float range would overflow to inf
    for value, shown in ((float("nan"), "nan"), (-float("inf"), "-inf"), (10**400, "inf")):
        data = _base()
        data["params"]["k"] = value
        with pytest.raises(ConfigError, match=rf"^params\.k: expected a finite number, got {shown}$"):
            parse_config(data)
    data = _base()
    data["gamma_k_override"] = float("inf")
    with pytest.raises(ConfigError, match=r"^gamma_k_override: expected a finite number"):
        parse_config(data)


def test_rejects_bad_expression_with_path():
    data = _base()
    data["equations"][0]["g"]["expr"] = "a/(3+"
    with pytest.raises(ConfigError, match=r"equations\[0\]\.g\.expr"):
        parse_config(data)


def test_rejects_out_of_range_params():
    data = _base()
    data["params"]["gamma_ord"] = 1.5
    with pytest.raises(ConfigError, match="params"):
        parse_config(data)
    data = _base()
    data["params"]["T"] = 1.0
    with pytest.raises(ConfigError, match="params"):
        parse_config(data)


def test_rejects_bad_output_format():
    data = _base()
    data["output"]["format"] = "xml"
    with pytest.raises(ConfigError, match="output.format"):
        parse_config(data)


def test_default_sections_fill_in():
    data = _base()
    for key in ("solver", "quadrature", "mnc", "output"):
        del data[key]
    del data["gamma_k_override"]
    del data["kernel_factor_override"]
    cfg = parse_config(data)
    assert isinstance(cfg, RunConfig)
    assert cfg.solver.tol == 1e-10
    assert cfg.solver.nodes == 257
    assert cfg.quadrature.mesh == "uniform"
    assert cfg.mnc.p_max == 8
    assert cfg.kernel_factor_override is None


def test_names_default_by_position():
    data = _base()
    for block in data["equations"]:
        del block["name"]
    cfg = parse_config(data)
    assert cfg.names == ("alpha", "beta")


def _replaced(keys: tuple, value):
    """The bundled scenario's mapping with the entry at keys set to value; value itself for no keys."""
    if not keys:
        return value
    data = _base()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


@pytest.mark.parametrize(
    "keys, value, message",
    [
        ((), [], "config root must be an object"),
        (("params",), [1.0], "params: expected an object"),
        (("gamma_k_override",), 0, "gamma_k_override: must be positive, got 0.0"),
        (("kernel_factor_override",), -1, "kernel_factor_override: must be positive, got -1.0"),
        (("equations", 1), "beta", "equations[1]: expected an object"),
        (("equations", 0, "name"), "", "equations[0].name: expected a nonempty string"),
        (("equations", 0, "f"), "abs(a)/6", "equations[0].f: expected an object"),
        (("equations", 0, "psi"), None, "equations[0].psi: expected an object"),
        (("equations", 1, "g"), ["a"], "equations[1].g: expected an object"),
        (("equations", 0, "g", "expr"), "", "equations[0].g.expr: expected a nonempty string"),
        (("equations", 0, "f", "lipschitz"), -0.5, "equations[0].f: lipschitz must be >= 0, got -0.5"),
        (("solver",), [], "solver: expected an object"),
        (("mnc", "ensemble"), 0, "mnc.ensemble: must be >= 1, got 0"),
        (("mnc", "p_max"), 0, "mnc.p_max: must be >= 1, got 0"),
        (("output", "path"), 3, "output.path: expected a string or null"),
    ],
    ids=["root", "params", "gamma-k-override", "kernel-factor-override", "equation", "name", "f",
         "psi", "g", "expr", "lipschitz", "section", "ensemble", "p-max", "output-path"],
)
def test_parse_config_names_the_path_of_each_bad_value(keys, value, message):
    with pytest.raises(ConfigError) as info:
        parse_config(_replaced(keys, value))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        (SolverConfig(), "tol", -1.0, "solver.tol: must be positive, got -1.0"),
        (SolverConfig(), "tol", float("inf"), "solver.tol: expected a finite number, got inf"),
        (SolverConfig(), "max_iter", 0, "solver.max_iter: must be >= 1, got 0"),
        (SolverConfig(), "nodes", 2.0, "solver.nodes: expected an integer, got 2.0"),
        (QuadratureConfig(), "panels", 0, "quadrature.panels: must be >= 1, got 0"),
        (QuadratureConfig(), "mesh", "chebyshev", "quadrature.mesh: must be 'uniform' or 'graded', got 'chebyshev'"),
        (MncConfig(), "deltas", (0.5, 0.25), "mnc.deltas: expected a list of at least 3 values"),
        (MncConfig(), "deltas", (0.5, 0.25, "x"), "mnc.deltas[2]: expected a number, got 'x'"),
        (MncConfig(), "deltas", (0.5, 0.25, 0.25), "mnc.deltas: must be positive and strictly decreasing"),
        (MncConfig(), "rng_seed", None, "mnc.rng_seed: expected an integer, got None"),
        (OutputConfig(), "format", "xml", "output.format: must be 'csv' or 'json-lines', got 'xml'"),
        (CertificateConfig(), "r0", -1.0, "certificate.r0: must be >= 0, got -1.0"),
        (CertificateConfig(), "r0", True, "certificate.r0: expected a number, got True"),
    ],
    ids=["tol", "tol-inf", "max-iter", "nodes", "panels", "mesh", "deltas-short", "delta",
         "deltas-order", "rng-seed", "format", "r0", "r0-bool"],
)
def test_each_section_checks_its_own_fields(section, field, value, message):
    # a flag override is a replace of the section, so it meets the check a config file meets
    with pytest.raises(ConfigError) as info:
        replace(section, **{field: value})
    assert str(info.value) == message
    data = _base()
    name = {SolverConfig: "solver", QuadratureConfig: "quadrature", MncConfig: "mnc",
            OutputConfig: "output", CertificateConfig: "certificate"}[type(section)]
    data[name][field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [2**60, 2**62, 2**63 - 1])
@pytest.mark.parametrize(
    "section, field", [(SolverConfig(), "nodes"), (QuadratureConfig(), "panels"), (MncConfig(), "ensemble")]
)
def test_counts_no_float64_array_holds_are_refused(section, field, value):
    # numpy refuses arrays of these sizes before allocating; the section
    # refuses the count first, from a flag (a replace) or a file alike
    name = {SolverConfig: "solver", QuadratureConfig: "quadrature", MncConfig: "mnc"}[type(section)]
    message = f"{name}.{field}: must be <= {MAX_FLOATS}, the most one float64 array may hold, got {value}"
    with pytest.raises(ConfigError) as info:
        replace(section, **{field: value})
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        parse_config(_replaced((name, field), value))
    assert str(info.value) == message
    assert getattr(replace(section, **{field: MAX_FLOATS}), field) == MAX_FLOATS


def test_sections_normalise_numbers():
    assert type(SolverConfig(tol=1).tol) is float
    assert type(CertificateConfig(r0=2).r0) is float
    assert MncConfig(deltas=[4, 2, 1.5]).deltas == (4.0, 2.0, 1.5)
    assert all(type(d) is float for d in MncConfig(deltas=[4, 2, 1]).deltas)
    # on [1, 5], so that a delta of 4 fits the domain
    data = _replaced(("mnc", "deltas"), [4, 2, 1])
    data["params"]["T"] = 5.0
    assert parse_config(data).mnc == MncConfig(deltas=(4.0, 2.0, 1.0))
