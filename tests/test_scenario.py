"""Scenario parsing, validation, defaulting, hashing."""

import math
import re
from pathlib import Path

import pytest

from liouq import (
    DensityGrid,
    EvolverConfig,
    GridSpec,
    PiecewiseLinear,
    Polynomial,
    load_scenario,
    scenario_from_text,
)
from liouq.errors import ConfigError
from liouq.potentials import Linear
from liouq.scenario import SCHEMA, parse_scenario_text

MINIMAL = """
potential.kind = harmonic
potential.params.omega = 1.0
"""


def test_minimal_scenario_gets_defaults():
    s = scenario_from_text(MINIMAL)
    assert s["grid.n"] == 128
    assert s["grid.L"] == 10.0
    assert s["state.sigma_x"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert s["evolve.dt"] == 1e-3
    assert s.build_potential() == Polynomial((0.0, 0.0, 0.5))
    cfg = s.build_evolver_config()
    assert cfg.n_steps == 1000


def test_missing_required_parameter_names_the_key():
    with pytest.raises(ConfigError, match="potential.params.omega"):
        scenario_from_text("potential.kind = harmonic").build_potential()


def test_unknown_key_rejected_with_line():
    for line, key in [
        ("banana = 1", "banana"),
        ("noise.mode = quenched", "noise.mode"),
        ("evolve.include_kinetic = false", "evolve.include_kinetic"),
    ]:
        with pytest.raises(ConfigError, match=f"line 2.*{re.escape(key)}"):
            parse_scenario_text(f"grid.n = 64\n{line}\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_scenario_text("grid.n = 64\ngrid.n = 32\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_scenario_text("grid.n = 64\n# fine\nnot an assignment\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_scenario_text("grid.n = 3.5\n")
    with pytest.raises(ConfigError, match="noise.seed"):
        parse_scenario_text("noise.seed = true\n")


def test_bare_strings_and_json_values():
    mapping = parse_scenario_text(
        'potential.kind = harmonic\nprobes = [[1, 2], [3, 4]]\n'
    )
    assert mapping["potential.kind"] == "harmonic"
    assert mapping["probes"] == [[1, 2], [3, 4]]


def test_probe_bounds_checked():
    with pytest.raises(ConfigError, match="probes"):
        scenario_from_text(MINIMAL + "probes = [[0, 200]]\ngrid.n = 64\n")


def test_piecewise_linear_from_config():
    s = scenario_from_text(
        "potential.kind = piecewise_linear\n"
        "potential.breakpoints = [-1.0, 0.0, 1.0]\n"
        "potential.values = [1.0, 0.0, 1.0]\n"
    )
    v = s.build_potential()
    assert isinstance(v, PiecewiseLinear)
    assert float(v.value(0.5)) == pytest.approx(0.5)


def test_delta_triggers_linearization():
    s = scenario_from_text(
        "grid.L = 2.0\npotential.kind = quartic\npotential.params.lam = 1.0\n"
        "potential.delta = 0.5\n"
    )
    v = s.build_potential()
    assert isinstance(v, PiecewiseLinear)
    assert v.breakpoints[0] == -2.0 and v.breakpoints[-1] == pytest.approx(2.0)


def test_schedule_from_config():
    s = scenario_from_text(
        "potential.kind = linear\npotential.params.a_schedule = [[0.0, 1.0], [1.0, 0.0]]\n"
    )
    v = s.build_potential()
    assert isinstance(v, Linear)
    assert v.time_dependent


def test_t_final_must_divide_dt():
    with pytest.raises(ConfigError, match="t_final"):
        scenario_from_text(
            MINIMAL + "evolve.dt = 0.3\nevolve.t_final = 1.0\n"
        ).build_evolver_config()


def test_hash_stable_and_sensitive(tmp_path):
    s1 = scenario_from_text(MINIMAL)
    s2 = scenario_from_text(MINIMAL)
    s3 = scenario_from_text(MINIMAL + "grid.n = 64\n")
    assert s1.content_hash == s2.content_hash
    assert s1.content_hash != s3.content_hash
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL)
    assert load_scenario(path).content_hash == s1.content_hash


def test_validation_happens_before_compute():
    # an invalid evolver section fails at load time, not at run time
    with pytest.raises(ConfigError):
        scenario_from_text(MINIMAL + "evolve.dt = -0.1\n")
    with pytest.raises(ConfigError):  # not a division by zero
        scenario_from_text(MINIMAL + "evolve.dt = 0.0\n")
    with pytest.raises(ConfigError):
        scenario_from_text(MINIMAL + "grid.L = 0.0\n")
    with pytest.raises(ConfigError):
        scenario_from_text(MINIMAL + "grid.n = 9\n")
    with pytest.raises(ConfigError):
        scenario_from_text(MINIMAL + "evolve.engine = magic\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # each value is rejected by the builder that _validate calls
        ("potential.kind = magic\n", "unknown potential.kind 'magic'"),
        (MINIMAL + "evolve.t_final = 0.0\n", "t_final must be a positive multiple"),
        (MINIMAL + "evolve.t_final = -1.0\n", "t_final must be a positive multiple"),
        (MINIMAL + "evolve.record_every = -1\n", "record_every must be at least 1"),
    ],
    ids=["kind", "t_final-zero", "t_final-negative", "record_every"],
)
def test_builders_reject_at_load_time(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        scenario_from_text(text)


SCENARIOS = sorted((Path(__file__).parents[1] / "scenarios").glob("*.cfg"))

# the Polynomial each shorthand kind stands for, from its parameters
SHORTHANDS = {
    "constant": lambda s: (s["potential.params.c"] or 0.0,),
    "harmonic": lambda s: (0.0, 0.0, 0.5 * s["potential.params.omega"] ** 2),
    "quartic": lambda s: (0.0, 0.0, 0.0, 0.0, s["potential.params.lam"]),
}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenario_builds(path):
    s = load_scenario(path)
    grid = s.build_grid()
    assert isinstance(grid, GridSpec)
    v = s.build_potential()
    assert isinstance(s.build_evolver_config(), EvolverConfig)
    # a file that sets no state key runs a study that reads none (spectrum);
    # the default packet does not fit its small grid
    if any(key.startswith("state.") for key in parse_scenario_text(path.read_text())):
        f0 = s.build_initial_density()
        assert isinstance(f0, DensityGrid) and f0.grid == grid
    kind = s["potential.kind"]
    if kind in SHORTHANDS:
        assert v == Polynomial(SHORTHANDS[kind](s))


def test_scenarios_are_shipped():
    assert {p.stem for p in SCENARIOS} >= {
        "cat_decoherence", "harmonic_equivalence", "quartic_divergence", "spectrum_small"
    }


def _readme_scenario_keys() -> set:
    """Keys named in the first column of README.md's scenario-key table."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    keys = set()
    for line in lines[lines.index("| key | default | meaning |") + 2:]:
        if not line.startswith("|"):
            break
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            # `potential.params.c/a` names potential.params.c and potential.params.a
            stem, dot, last = name.rpartition(".")
            keys.update(stem + dot + leaf for leaf in last.split("/"))
    return keys


def test_readme_key_table_names_exactly_the_schema():
    assert _readme_scenario_keys() == set(SCHEMA)
