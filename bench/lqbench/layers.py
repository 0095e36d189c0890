"""Per-layer metrics of one traced iteration, named after liouq's modules.

``traced_targets`` lists the public functions wrapped in spans, as
``(module attribute holder, attribute)`` pairs: the calls ``studies``
makes into the layers below it, plus ``sample_noise`` as called from
``ensemble_evolve``.
"""

from __future__ import annotations

from liouq import stochastic, studies

ENGINES = ("liouville_evolve_xp", "von_neumann_evolve", "qq_liouville_evolve")
STUDY_SPANS = (
    "studies.run_equivalence_study",
    "studies.run_decoherence_study",
    "studies.run_void_study",
)
KERNELS = (
    "evolvers.fft_pair_us",
    "evolvers.phase_mul_us",
    "evolvers.hermiticity_defect_us",
    "evolvers.matmul_us",
    "grids.boundary_fraction_us",
    "grids.density_grid_us",
)
_STUDIES_CALLS = ENGINES + (
    "superoperator_field",
    "xp_to_Qq",
    "save_state",
    "ensemble_evolve",
    "lindblad_evolve",
    "compare_ensemble_vs_lindblad",
    "decay_predict",
    "void_probability_mc",
)
_ZERO = {"s": 0.0, "self_s": 0.0, "calls": 0}


def traced_targets():
    return [(studies, name) for name in _STUDIES_CALLS] + [(stochastic, "sample_noise")]


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(totals: dict, n_steps: int, include_kinetic: bool,
                  work: int, kernel_us: dict) -> dict:
    """Per-layer values of one traced iteration.

    ``totals`` maps span name -> ``{"s", "self_s", "calls"}``; a layer
    the workload never calls reads 0.  ``kernel_us`` maps each name in
    ``KERNELS`` to its microbenchmark time.
    """
    def get(name):
        return totals.get(name, _ZERO)

    out = {}
    engine_s = 0.0
    fft_pairs = 0
    for engine in ENGINES:
        span = get(f"evolvers.{engine}")
        out[f"evolvers.{engine}_s"] = span["s"]
        out[f"evolvers.{engine}.step_us"] = _per(span["s"], span["calls"] * n_steps, 1e6)
        engine_s += span["s"]
        if include_kinetic:
            fft_pairs += 2 * n_steps * span["calls"]
    out["evolvers.fft_pairs"] = fft_pairs
    out.update({name: kernel_us[name] for name in KERNELS})
    out["evolvers.fft_share"] = _per(fft_pairs * kernel_us["evolvers.fft_pair_us"], engine_s, 1e-6)

    ensemble = get("stochastic.ensemble_evolve")
    noise = get("stochastic.sample_noise")
    out["stochastic.ensemble_evolve_s"] = ensemble["s"]
    out["stochastic.per_realization_ms"] = _per(ensemble["s"], work if ensemble["calls"] else 0, 1e3)
    out["stochastic.sample_noise.calls"] = noise["calls"]
    out["stochastic.sample_noise_s"] = noise["s"]
    out["stochastic.lindblad_evolve_s"] = get("stochastic.lindblad_evolve")["s"]
    out["stochastic.compare_s"] = get("stochastic.compare_ensemble_vs_lindblad")["s"]
    out["stochastic.decay_predict_s"] = get("stochastic.decay_predict")["s"]

    void = get("causet.void_probability_mc")
    out["causet.void_probability_mc_s"] = void["s"]
    out["causet.per_trial_us"] = _per(void["s"], work if void["calls"] else 0, 1e6)

    for name in ("save_state", "xp_to_Qq"):
        span = get(f"grids.{name}")
        out[f"grids.{name}_ms"] = _per(span["s"], span["calls"], 1e3)
        out[f"grids.{name}.calls"] = span["calls"]
    field = get("potentials.superoperator_field")
    out["potentials.superoperator_field_ms"] = _per(field["s"], field["calls"], 1e3)
    out["scenario.load_s"] = get("scenario.load_scenario")["s"]
    out["studies.self_s"] = sum(get(name)["self_s"] for name in STUDY_SPANS)
    out["studies.emit_outputs_s"] = get("studies.emit_outputs")["s"]
    return out
