import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from blowlab.profiles import GridSpec, SphericalDomain1D, solve_profile
from blowlab.spectral import first_eigenpair


def half_sphere(n=3):
    return SphericalDomain1D(
        "polar-sphere", 0.0, np.pi / 2,
        bc_lo="regular-pole", bc_hi="blowup", label=f"half-sphere-n{n}",
    )


def cap(theta0):
    return SphericalDomain1D(
        "polar-sphere", 0.0, theta0,
        bc_lo="regular-pole", bc_hi="blowup", label=f"cap-{theta0:g}",
    )


def cap_complement(r):
    return SphericalDomain1D(
        "polar-sphere", r, np.pi,
        bc_lo="blowup", bc_hi="regular-pole", label=f"cap-complement-{r:g}",
    )


def band(a, b):
    return SphericalDomain1D("polar-sphere", a, b, label=f"band-{a:g}-{b:g}")


def pytest_configure(config):
    # hypothesis writes a cache of the constants it scans from local modules
    # into its storage directory at collection, even with database=None;
    # a temporary directory keeps .hypothesis/ out of the checkout
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


FINE = GridSpec(count=3200, grading=2.0)
MEDIUM = GridSpec(count=1600, grading=2.0)


@pytest.fixture(scope="session")
def half_sphere_profiles():
    return {n: solve_profile(half_sphere(), n, grid=FINE) for n in (3, 4, 6)}


@pytest.fixture(scope="session")
def half_sphere_eigen(half_sphere_profiles):
    return {n: first_eigenpair(p) for n, p in half_sphere_profiles.items()}


@pytest.fixture(scope="session")
def cap_pi3_n3_profile():
    return solve_profile(cap(np.pi / 3), 3, grid=FINE)
