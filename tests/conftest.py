import warnings

import pytest

from qed_decoherence.params import DipoleValidityWarning, ModelParams


@pytest.fixture
def default_params() -> ModelParams:
    """The worked defaults: alpha = fine structure, Omega = 1e19 rad/s, T = 1 K,
    electron mass, p0 = dp = 0.1 m0 c. Sits inside the dipole warning band."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DipoleValidityWarning)
        return ModelParams()


@pytest.fixture
def fig3_params() -> ModelParams:
    """Stationary packet with alpha large enough that 3 tau_vac is resolvable:
    tau_vac = exp(3 pi/(2 alpha) (m0 c/dp)^2)/Omega = e^pi/Omega at alpha = 150."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DipoleValidityWarning)
        return ModelParams(alpha=150.0, p0=0.0, delta_p=0.1)


def make_params(**kw) -> ModelParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DipoleValidityWarning)
        return ModelParams(**kw)
