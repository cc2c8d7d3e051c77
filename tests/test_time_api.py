"""The time-taking public API of decoherence, observables and field.

Every function that takes t_seconds accepts a scalar or a 1-D array of
times: a bad time (negative, NaN or infinite) is a DomainError, checked once
in ModelParams.tau, and an array of times gives exactly the stack of the
scalar results, shapes included.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from qed_decoherence import decoherence as dec
from qed_decoherence import field as fld
from qed_decoherence import observables as obs
from qed_decoherence.params import DomainError

from conftest import make_params

PARAMS = make_params(temperature=300.0)
OMEGA = PARAMS.omega_cut
T_GRID = np.array([0.0, 1e-3, 0.5, 7.0, 1e3, 1e6]) / OMEGA

# The single-quantity functions that snapshot's columns replaced keep their
# labels here, so each case id stays and each column is checked on its own.
SNAPSHOT_COLUMNS = {
    "momentum_width": "delta_p_t", "momentum_coherence_length": "l_p",
    "mean_displacement": "mean_q", "mean_velocity": "mean_v", "mean_acceleration": "accel",
    "dressed_mass": "mass_t", "inv_mass_time_average": "inv_mass_avg",
    "spatial_width": "delta_r_t", "spatial_width_free": "delta_r_free",
    "spatial_coherence_length": "l_r", "brems_power_estimate": "brems_power",
}

# name -> (call with a time argument, valid times)
CASES = {
    "decoherence.gamma_vac_factor": (lambda t: dec.gamma_vac_factor(PARAMS, t), T_GRID),
    "decoherence.gamma_th_factor": (lambda t: dec.gamma_th_factor(PARAMS, t), T_GRID),
    "decoherence.phase_factor": (lambda t: dec.phase_factor(PARAMS, t), T_GRID),
    # p^2 times the interaction part of Phi, at p = 0.3
    "decoherence.xi": (lambda t: dec.coupling_scale(PARAMS.alpha) * 0.3 * 0.3
                       * dec.tau_minus_arctan(PARAMS.tau(t)), T_GRID),
    "decoherence.DecoherenceFactors.at_time":
        (lambda t: dec.DecoherenceFactors.at_time(PARAMS, t), T_GRID),
    **{f"observables.{name}": (lambda t, fn=getattr(obs, name): fn(PARAMS, t), T_GRID)
       for name in obs.__all__ if name != "ObservableSnapshot"},
    **{f"observables.{name}": (lambda t, col=col: getattr(obs.snapshot(PARAMS, t), col), T_GRID)
       for name, col in SNAPSHOT_COLUMNS.items()},
    "field.mean_photon_number": (lambda t: fld.mean_photon_number(PARAMS, 0.2, t), T_GRID),
    "field.mean_field_energy": (lambda t: fld.mean_field_energy(PARAMS, 0.2, t), T_GRID),
    "field.field_mass_shift": (lambda t: -2.0 * obs.mass_shift(PARAMS, t), T_GRID),
}


def test_cases_cover_every_time_taking_function():
    covered = {name.split("[")[0] for name in CASES}
    for module in (dec, obs, fld):
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):   # constructors of a class: its classmethods
                members = [(f"{name}.{m}", getattr(obj, m)) for m, v in vars(obj).items()
                           if isinstance(v, classmethod)]
            else:
                members = [(name, obj)] if callable(obj) else []
            for qual, fn in members:
                if "t_seconds" in inspect.signature(fn).parameters:
                    assert f"{short}.{qual}" in covered, qual


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_time_is_domain_error(name, bad):
    call, times = CASES[name]
    with pytest.raises(DomainError, match="time must be >= 0"):
        call(bad)
    with pytest.raises(DomainError, match="time must be >= 0"):
        call(np.array([times[0], bad]))


def _assert_stacked(array_result, scalar_results):
    if dataclasses.is_dataclass(array_result):
        for f in dataclasses.fields(array_result):
            _assert_stacked(getattr(array_result, f.name),
                            [getattr(r, f.name) for r in scalar_results])
        return
    got = np.asarray(array_result)
    want = np.stack([np.asarray(r) for r in scalar_results])
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_of_times_stacks_scalar_calls(name):
    call, times = CASES[name]
    scalars = [call(float(t)) for t in times]
    for r in scalars:
        value = r.gamma if isinstance(r, dec.DecoherenceFactors) else (
            r.l_p if isinstance(r, obs.ObservableSnapshot) else r)
        assert value is None or np.ndim(value) == 0
    _assert_stacked(call(times), scalars)
