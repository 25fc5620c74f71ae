"""Each benchmark check passes wpl's real output and fails a perturbed one.

    python3 -m pytest -q wplbench/test_checks.py      (about 40 s)

A check that cannot tell a right answer from a slightly wrong one would let
a regression through unseen.  Every job of every workload runs once: its
real output must pass, and the same output with a small fault put in must
fail.  The known-fault jobs must fail as they are.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from wpl import finite_kernel as fk  # noqa: E402
from wpl.errors import WplError  # noqa: E402
from wpl.freeprob import EnsembleParams  # noqa: E402


def _scale_csv_column(text: str, column: str, factor: float, first_only: bool = False) -> str:
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    for n in range(1, len(lines)):
        if lines[n].startswith("#"):
            continue
        cells = lines[n].split(",")
        cells[idx] = repr(float(cells[idx]) * factor)
        lines[n] = ",".join(cells)
        if first_only:
            break
    return "\n".join(lines) + "\n"


def _flip_contour(out):
    grid, contour = out
    contour = contour.copy()
    contour[0] = -contour[0]
    return grid, contour


def _flip_anchor(out):
    grid, contour = out
    grid = grid.copy()
    grid[4, 4] = -grid[4, 4]
    return grid, contour


def _flip_off_spot(out):
    # flip a grid entry that no timed contour spot matches, so that only the
    # full-grid check against the contour route can see it
    grid, contour = out
    spots = {int(np.argmin(np.abs(grid - c))) for c in contour}
    k = min(set(range(grid.size)) - spots)
    grid = grid.copy()
    grid.flat[k] = -grid.flat[k]
    return grid, contour


def _off_identity(g):
    g = g.copy()
    g[0, 1] += 1e-6
    return g


# job-name prefix -> perturbations of that job's output, each of which its
# check must reject
PERTURB = {
    "global_density": [lambda v: [x * (1 + 1e-6) for x in v]],
    "cli_density": [lambda text: _scale_csv_column(text, "rho_solver", 1 + 1e-6)],
    "spectra": [lambda eig: eig * 1.25],
    "mc_charpoly": [lambda out: (out[0] + 6.0 * out[1], out[1])],
    "kernel_N": [_flip_contour, _flip_anchor, _flip_off_spot],
    "kernel_trace": [lambda t: t * (1 + 1e-5)],
    "cli_kernel": [lambda text: _scale_csv_column(text, "K", -1.0, first_only=True)],
    "biorth_matrix": [_off_identity],
    "k_hard_grid": [lambda v: np.asarray(v) * (1 + 1e-6)],
    "k_hard_diag": [lambda v: np.asarray(v) * (1 + 1e-8)],
    "k_hard_pair": [lambda v: v * (1 + 1e-6)],
    "k_hard_cd": [lambda out: (out[0], out[1] * (1 + 1e-6))],
    "cli_hardedge": [lambda text: _scale_csv_column(text, "K", 1 + 1e-6)],
    "charpoly_hard_limit": [lambda v: [x * (1 + 1e-9) for x in v]],
}


def _perturbations(name: str):
    for prefix, fns in PERTURB.items():
        if name.startswith(prefix):
            return fns
    raise KeyError(f"no perturbation for job {name}")


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_real_output_passes_and_perturbed_output_fails(workload):
    for job in W.WORKLOADS[workload](1):
        if job.known_fault:
            try:
                outcome = job.compare(job.run(), job.ref)
            except WplError:
                continue
            assert not outcome.ok, f"{job.name} no longer shows its fault: {job.known_fault}"
            continue
        out = job.run()
        good = job.compare(out, job.ref)
        assert good.ok, f"{job.name}: {good.note}"
        for perturb in _perturbations(job.name):
            bad = job.compare(perturb(out), job.ref)
            assert not bad.ok, f"{job.name} accepted a perturbed output: {bad.note}"


def test_non_finite_output_fails():
    assert not checks.pointwise([1.0, np.nan], [1.0, 1.0], 1e-3).ok
    assert not checks.normwise([[np.inf]], [[1.0]], 1e-3).ok
    assert not checks.identity(np.full((2, 2), np.nan), 1e-3).ok
    assert not checks.z_scores([np.nan], [1.0], [0.0], 5.0).ok


def test_tracer_patches_every_lookup_and_restores():
    from spans import Tracer

    original = fk.ln_gamma
    tracer = Tracer()
    tracer.install()
    try:
        assert fk.ln_gamma is not original  # imported by name into finite_kernel
        fk.BiorthSystem(EnsembleParams(N=3, r=1, s=0, nu=(0,)))
    finally:
        tracer.uninstall()
    assert fk.ln_gamma is original
    names = [s[0] for s in tracer.spans]
    build = names.index("finite_kernel.build")
    assert any(s[0] == "specfun.ln_gamma" and s[3] == build for s in tracer.spans)
    self_s = tracer.self_times()
    total = tracer.spans[build][2] - tracer.spans[build][1]
    assert 0.0 <= self_s["finite_kernel.build"] <= total
