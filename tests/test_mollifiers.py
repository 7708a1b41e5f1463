"""Radial mollifier families.

Core claims:
    - all three families integrate to unit mass in dimensions 1..3
    - eval is the radial profile of |x|, with dimension checking
    - tail_mass is exact for compact supports and matches the chi-square
      tail formula for the gaussian
    - support_radius returns eps for compact families and a radius whose
      tail sits at or below the tolerance otherwise
    - radial_bands tile the support and carry the full unit mass
    - importing nldef does not import scipy.integrate; the two functions that
      integrate import it themselves and give the bits of the eager import
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

import nldef
from nldef import DimensionError, FAMILIES, MollifierSpec, ParameterError
from nldef.mollifiers import SURFACE_AREA


def test_families_list():
    assert FAMILIES == ("scaled_bump", "gaussian", "shell")

def test_validation():
    with pytest.raises(ParameterError):
        MollifierSpec("triangle", 0.1, 2)
    with pytest.raises(ParameterError):
        MollifierSpec("shell", 0.0, 2)
    with pytest.raises(ParameterError):
        MollifierSpec("shell", -0.1, 2)
    with pytest.raises(DimensionError):
        MollifierSpec("shell", 0.1, 4)

@pytest.mark.parametrize("family", FAMILIES)
def test_normalising_constant_must_be_finite_and_positive(family):
    # eps^d under- or overflows for these eps: a ParameterError at eps, not
    # a ZeroDivisionError or OverflowError from the first profile evaluation
    for eps, dim in ((1e-300, 2), (5e-324, 3), (1e300, 3)):
        with pytest.raises(ParameterError) as err:
            MollifierSpec(family, eps, dim)
        assert err.value.key == "eps"
    spec = MollifierSpec(family, 1e-100, 3)
    assert 0.0 < spec.radial_profile(0.75e-100) < math.inf

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_mass(family, dim):
    spec = MollifierSpec(family, 0.13, dim)
    hi = spec.support_radius(1e-14) if family == "gaussian" else spec.eps
    val, _ = quad(
        lambda r: SURFACE_AREA[dim] * r ** (dim - 1) * spec.radial_profile(r),
        0.0,
        hi,
        limit=400,
    )
    assert abs(val - 1.0) < 1e-9

def test_eval_is_radial():
    spec = MollifierSpec("gaussian", 0.1, 2)
    x = np.array([[0.03, 0.04], [0.0, 0.05]])
    # both points sit at radius 0.05
    v = spec.eval(x)
    assert abs(v[0] - v[1]) < 1e-15
    assert abs(v[0] - spec.radial_profile(np.array([0.05]))[0]) < 1e-15

def test_eval_dimension_check():
    spec = MollifierSpec("shell", 0.1, 2)
    with pytest.raises(DimensionError):
        spec.eval(np.zeros((4, 3)))

def test_shell_profile_support():
    eps = 0.2
    spec = MollifierSpec("shell", eps, 2)
    r = np.array([0.05, 0.099995, 0.15, 0.2, 0.25])
    v = spec.radial_profile(r)
    assert v[0] == 0.0 and v[4] == 0.0
    assert v[2] > 0.0 and v[2] == v[3]

def test_bump_profile_support():
    spec = MollifierSpec("scaled_bump", 0.1, 2)
    assert spec.radial_profile(np.array([0.11]))[0] == 0.0
    assert spec.radial_profile(np.array([0.05]))[0] > 0.0
    # scalar input works too
    assert spec.radial_profile(0.05) > 0.0


# -- tails -------------------------------------------------------------------

def test_tail_compact_exact_zero():
    for family in ("scaled_bump", "shell"):
        spec = MollifierSpec(family, 0.1, 2)
        assert spec.tail_mass(0.1) == 0.0
        assert spec.tail_mass(0.3) == 0.0

def test_tail_shell_values():
    # constant density on [eps/2, eps]: tail(delta) interpolates the volume
    eps = 0.1
    for dim in (1, 2, 3):
        spec = MollifierSpec("shell", eps, dim)
        assert abs(spec.tail_mass(0.01) - 1.0) < 1e-10
        full = eps**dim - (eps / 2) ** dim
        part = eps**dim - 0.07**dim
        assert abs(spec.tail_mass(0.07) - part / full) < 1e-9

def test_tail_gaussian_chi_square():
    for dim in (1, 2, 3):
        spec = MollifierSpec("gaussian", 0.07, dim)
        for delta in (0.05, 0.1, 0.2):
            ref = gammaincc(dim / 2.0, delta**2 / (2.0 * 0.07**2))
            assert abs(spec.tail_mass(delta) - ref) < 1e-10

def test_tail_monotone_and_validated():
    spec = MollifierSpec("gaussian", 0.1, 2)
    deltas = [0.05, 0.1, 0.2, 0.4]
    tails = [spec.tail_mass(d) for d in deltas]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    with pytest.raises(ParameterError):
        spec.tail_mass(0.0)


# -- support radius and bands ------------------------------------------------

def test_support_radius_compact():
    assert MollifierSpec("shell", 0.1, 2).support_radius(1e-10) == 0.1
    assert MollifierSpec("scaled_bump", 0.25, 3).support_radius(1e-6) == 0.25

def test_support_radius_gaussian():
    spec = MollifierSpec("gaussian", 0.1, 2)
    for tol in (1e-6, 1e-10):
        r = spec.support_radius(tol)
        assert spec.tail_mass(r) <= tol
        # not absurdly conservative: one grid step tighter already fails
        assert spec.tail_mass(r / 2 ** (1.0 / 8.0)) > tol

def test_support_radius_validation():
    spec = MollifierSpec("gaussian", 0.1, 2)
    with pytest.raises(ParameterError):
        spec.support_radius(0.0)
    with pytest.raises(ParameterError):
        spec.support_radius(1.0)

@pytest.mark.parametrize("family", FAMILIES)
def test_radial_bands_cover_support(family):
    spec = MollifierSpec(family, 0.1, 2)
    bands = spec.radial_bands(1e-12)
    assert all(b > a for a, b in bands)
    # contiguous, increasing
    for (_, b1), (a2, _) in zip(bands, bands[1:]):
        assert abs(b1 - a2) < 1e-15
    if family == "shell":
        assert bands == [(0.05, 0.1)]
    # Gauss integration over the bands recovers the unit mass
    z, w = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for a, b in bands:
        r = 0.5 * (b - a) * z + 0.5 * (a + b)
        total += (0.5 * (b - a) * w * SURFACE_AREA[2] * r * spec.radial_profile(r)).sum()
    assert abs(total - 1.0) < 1e-9


# -- lazy scipy import -------------------------------------------------------

def test_import_leaves_scipy_integrate_out_and_values_unchanged():
    """A fresh `import nldef` leaves scipy.integrate unimported; the bump
    constant and the gaussian support radius, computed there afterwards, equal
    bit for bit a direct quad of the constant and this process's radii, where
    scipy.integrate was imported before nldef."""
    code = (
        "import sys\n"
        "import nldef\n"
        "from nldef.mollifiers import MollifierSpec, _bump_const\n"
        "print('scipy.integrate' in sys.modules)\n"
        "print(' '.join(_bump_const(d).hex() for d in (1, 2, 3)))\n"
        "print(' '.join(MollifierSpec('gaussian', 0.1, d).support_radius(1e-10).hex()\n"
        "               for d in (1, 2, 3)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nldef.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded, bump, radius = proc.stdout.splitlines()
    assert loaded == "False"
    for dim, got in zip((1, 2, 3), bump.split()):
        integral, _ = quad(lambda r: r ** (dim - 1) * math.exp(-1.0 / (1.0 - r * r)),
                           0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)
        assert float.fromhex(got) == 1.0 / (SURFACE_AREA[dim] * integral)
    want = [MollifierSpec("gaussian", 0.1, d).support_radius(1e-10) for d in (1, 2, 3)]
    assert [float.fromhex(v) for v in radius.split()] == want
