"""Every check a study emits fails under a named mutation.

A check that no faulty program can fail certifies nothing.  Each row of
``MUTATIONS`` runs one study small, asserts that the named check passes,
then applies one fault with ``monkeypatch`` on a module attribute and
asserts that the same check fails: mutation analysis (DeMillo, Lipton
and Sayward, IEEE Computer 11(4), 1978).  A fault that only breaks a
construction some unit test already pins does not count.
``test_every_emitted_check_has_a_row`` runs every CLI subcommand and
holds the checks it emits to this table plus ``WITHOUT_TEETH``.
"""

import argparse
import functools
import json
import re

import pytest

from liouq import causet, evolvers, scenario_from_text, stochastic, studies
from liouq.cli import _build_parser, main
from liouq.potentials import Polynomial

from test_studies_cli import CAT, HARMONIC, QUARTIC, SPEC

SEGCHECK = (
    "grid.n = 64\ngrid.L = 8.0\npotential.kind = quartic\n"
    "potential.params.lam = 1.0\npotential.delta = 0.25\n"
)

STUDIES = {
    "compare_harmonic": lambda: studies.run_equivalence_study(scenario_from_text(HARMONIC)),
    "compare_quartic": lambda: studies.run_equivalence_study(scenario_from_text(QUARTIC)),
    "decohere_cat": lambda: studies.run_decoherence_study(scenario_from_text(CAT)),
    "void": lambda: studies.run_void_study(0.5, trials=100_000, seed=0),
    "segcheck": lambda: studies.run_segment_checks(
        scenario_from_text(SEGCHECK), n_pairs=200, seed=1
    ),
}


# every row reads this before it mutates, so only unmutated runs are cached
@functools.cache
def unmutated(study):
    return STUDIES[study]()[0]


def scaled(module, name, factor):
    """``module.name``'s result times ``factor``."""
    def apply(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: factor * real(*args))
    return apply


def replaced(name, other):
    """The study calls engine ``other`` where it calls ``name``."""
    def apply(monkeypatch):
        monkeypatch.setattr(studies, name, getattr(studies, other))
    return apply


def von_neumann_with(potential=lambda v: v, extra=lambda x: None):
    """Von Neumann's engine with a changed V or an added phase field."""
    def apply(monkeypatch):
        def run(f0, v, cfg):
            return evolvers._evolve_density(f0, potential(v), extra(f0.grid.x), cfg)
        monkeypatch.setattr(studies, "von_neumann_evolve", run)
    return apply


def last_empty_word_at(factor):
    """Trials decided against exp(-factor * rho V4), the law against exp(-rho V4)."""
    def apply(monkeypatch):
        real = causet._last_empty_word
        monkeypatch.setattr(causet, "_last_empty_word", lambda mean: real(factor * mean))
    return apply


def segment_sum_without_end_segments(monkeypatch):
    def interior_only(v, q, Q):
        bp = v.breakpoints
        lo, hi = sorted((float(q), float(Q)))
        nodes = bp[(bp > lo) & (bp < hi)]
        total = float(sum(
            (b - a) * v.derivative(0.5 * (a + b)) for a, b in zip(nodes[:-1], nodes[1:])
        ))
        return total if q < Q else -total
    monkeypatch.setattr(studies, "segment_sum", interior_only)


# (study, check, mutation); the mutated value and its bar, as measured, in
# each comment
MUTATIONS = {
    # 1.5e-3 > 1e-6
    "vonneumann_V_x1.01": ("compare_harmonic", "pairwise_distance", von_neumann_with(
        potential=lambda v: Polynomial(tuple(1.01 * c for c in v.coeffs)))),
    # 7.5e-7 > 1e-9: a phase field symmetric under Q <-> q
    "vonneumann_symmetric_field": ("compare_harmonic", "hermiticity_drift", von_neumann_with(
        extra=lambda x: 1e-6 * (x[:, None] + x[None, :]))),
    # 1.0e-6 > 1e-9: the dense propagator is not unitary
    "spectral_operator_x(1-1e-9)": ("compare_harmonic", "trace_drift",
                                    scaled(evolvers, "_spectral_operator", 1.0 - 1e-9)),
    # 1.0 > 1e-2
    "qq_is_vonneumann": ("compare_quartic", "classical_vs_qq_identity",
                         replaced("qq_liouville_evolve", "von_neumann_evolve")),
    # 3.9e-5 < 1e-3
    "vonneumann_is_qq": ("compare_quartic", "divergence_at_t1",
                         replaced("von_neumann_evolve", "qq_liouville_evolve")),
    # pass flag 0; x 1.1 passes, also at M = 1000
    "lindblad_rates_x1.5": ("decohere_cat", "ensemble_vs_stepper",
                            scaled(stochastic, "_decay_rates", 1.5)),
    # 0.082 > 0.05
    "probe_law_rates_x1.1": ("decohere_cat", "probe_0_fit_error",
                             scaled(studies, "_decay_rates", 1.1)),
    # 4.9e-3 > 1e-8
    "lindblad_rates_x1.05": ("decohere_cat", "probe_0_stepper_vs_closed_form",
                             scaled(stochastic, "_decay_rates", 1.05)),
    # 0.028 > 3 sigma; unmutated 0.0013
    "last_empty_word_x1.1": ("void", "empirical_vs_exact", last_empty_word_at(1.1)),
    # 472 > 1e-12
    "segment_sum_drops_end_segments": ("segcheck", "segment_sum_identity",
                                       segment_sum_without_end_segments),
}

# checks the benchmark reference pins although no mutation above fails them:
# divergence_monotone reads 1 under von Neumann := qq, V x 0.5 and V := 0
# (ROADMAP item 14); the closed forms write f0's diagonal back, so
# diagonal_probe_<k>_flat reads 0 under every mutation (item 13)
WITHOUT_TEETH = {"divergence_monotone", "diagonal_probe_<k>_flat"}


@pytest.mark.parametrize("study, check, mutate", MUTATIONS.values(), ids=list(MUTATIONS))
def test_check_fails_under_its_mutation(monkeypatch, study, check, mutate):
    assert unmutated(study).checks[check].passed
    mutate(monkeypatch)
    assert not STUDIES[study]()[0].checks[check].passed


def folded(name):
    return re.sub(r"probe_\d+", "probe_<k>", name)


# one small run, or more, of every subcommand: (scenario text, options)
SMALL_RUNS = {
    "evolve": [(HARMONIC, [])],
    "compare": [(HARMONIC, []), (QUARTIC, [])],
    "decohere": [(CAT, ["--realizations", "20"])],
    "void": [(None, ["--dr", "0.5", "--trials", "1000"])],
    "segcheck": [(SEGCHECK, ["--pairs", "20"])],
    "spectrum": [(SPEC, [])],
}


def test_every_emitted_check_has_a_row(tmp_path):
    # a new subcommand needs a small run, and each check it emits a row
    parser = _build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(SMALL_RUNS) == set(commands)
    emitted = set()
    for command, runs in SMALL_RUNS.items():
        for idx, (text, args) in enumerate(runs):
            out = tmp_path / f"{command}_{idx}"
            if text is not None:
                cfg = tmp_path / f"{command}_{idx}.cfg"
                cfg.write_text(text)
                args = ["--scenario", str(cfg), *args]
            assert main([command, *args, "--out", str(out)]) in (0, 1)
            summary = json.loads((out / "summary.json").read_text())
            emitted |= {folded(name) for name in summary["checks"]}
    table = {folded(check) for _, check, _ in MUTATIONS.values()}
    assert emitted == table | WITHOUT_TEETH
