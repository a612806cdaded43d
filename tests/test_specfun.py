import numpy as np
import pytest
import scipy.special

from itofrft.specfun import DEGREE_CAP, hermite_real


class TestHermiteReal:
    def test_low_degrees(self):
        assert hermite_real(0, 7.0) == 1.0
        assert hermite_real(1, 3.0) == 6.0
        # H_3(x) = 8x^3 - 12x
        assert hermite_real(3, 1.0) == pytest.approx(-4.0)

    def test_against_scipy(self):
        xs = np.linspace(-3.0, 3.0, 13)
        for n in range(13):
            np.testing.assert_allclose(
                hermite_real(n, xs),
                scipy.special.eval_hermite(n, xs),
                rtol=1e-10,
                atol=1e-8,
            )

    def test_preserves_longdouble(self):
        xs = np.linspace(-1.0, 1.0, 5).astype(np.longdouble)
        assert hermite_real(6, xs).dtype == np.longdouble

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite_real(DEGREE_CAP + 1, 0.0)
