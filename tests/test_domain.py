"""Domain rules: each has one home, every public entry point calls it, and
NaN, inf and boundary values, of parameters and of evaluation points, raise
ValueError instead of coming back as NaN or as a value for other
parameters."""

import math
import sys

import numpy as np
import pytest

from itofrft import cli, ito_hermite, kernels, quadrature, spectral
from itofrft.ito_hermite import hermite_ito, null_index_set, psi_table, zero_radii
from itofrft.kernels import TransformParams, bergman_kernel, frft_kernel, mehler_closed, mehler_series
from itofrft.quadrature import bidisk_rule, plane_rule, quadrant_rule
from itofrft.spectral import finite_rank_tail, gamma_norm, kw_constant, schatten_partial, spectrum
from itofrft.transforms import (
    CoeffFunction,
    adjoint_apply,
    bargmann2_apply,
    bergman_norm,
    dual_apply_coeff,
    frft_apply,
    hankel_apply,
)

from helpers import save_coeff_file

NAN, INF = math.nan, math.inf

PLANE = plane_rule(1.0, 8, 8)
BIDISK = bidisk_rule(1.0, 1.0, 4, 4)
QUADRANT = quadrant_rule(1.0, 1.0, 8)
F = CoeffFunction(1.0, {(1, 0): 1.0})
P = TransformParams(1.0, 0.2, 0.3)


def one(*args):
    return np.ones(np.broadcast_shapes(*map(np.shape, args)))


def case(name, call):
    return pytest.param(call, id=name)


BAD_CALLS = [
    # nu: finite and > 0
    case("psi_table-nu-nan", lambda: psi_table(NAN, 0.5, 2, 2)),
    case("zero_radii-nu-inf", lambda: zero_radii(INF, 1, 1)),
    case("CoeffFunction-nu-nan", lambda: CoeffFunction(NAN, {(0, 0): 1.0})),
    case("CoeffFunction-nu-inf", lambda: CoeffFunction(INF, {(0, 0): 1.0})),
    case("CoeffFunction-nu-0", lambda: CoeffFunction(0.0, {(0, 0): 1.0})),
    case("plane_rule-nu-nan", lambda: plane_rule(NAN, 4, 4)),
    case("plane_rule-nu-inf", lambda: plane_rule(INF, 4, 4)),
    case("TransformParams-nu-inf", lambda: TransformParams(INF, 0.2, 0.3)),
    case("kw_constant-nu-nan", lambda: kw_constant(NAN, 1.0, 1.0, 0.5)),
    case("finite_rank_tail-nu-nan", lambda: finite_rank_tail(NAN, 1.0, 1.0, 0.5, 2, 2)),
    case("finite_rank_tail-nu-inf", lambda: finite_rank_tail(INF, 1.0, 1.0, 0.5, 2, 2)),
    case("hankel_apply-nu-nan", lambda: hankel_apply(NAN, 0, 0.3, 0.3, one, 0.5)),
    case("adjoint_apply-nu-nan", lambda: adjoint_apply(NAN, 0.5, one, 0.1, BIDISK)),
    # index in [0, DEGREE_CAP]
    case("CoeffFunction-index-nan", lambda: CoeffFunction(1.0, {(NAN, 0): 1.0})),
    case("CoeffFunction-index-201", lambda: CoeffFunction(1.0, {(0, 201): 1.0})),
    # Bergman monomial index and cut: integers >= 0, no cap; coefficients finite
    case("bergman_norm-coeff-nan", lambda: bergman_norm({(0, 0): NAN}, 1.0, 1.0)),
    case("bergman_norm-coeff-inf", lambda: bergman_norm({(0, 0): INF}, 1.0, 1.0)),
    case("bergman_norm-index--1", lambda: bergman_norm({(-1, 0): 1.0}, 1.0, 1.0)),
    case("bergman_norm-index-1.5", lambda: bergman_norm({(1.5, 0): 1.0}, 1.0, 1.0)),
    case("gamma_norm-index--1", lambda: gamma_norm(1.0, 1.0, -1, 0)),
    case("gamma_norm-index-1.5", lambda: gamma_norm(1.0, 1.0, 1.5, 0)),
    case("gamma_norm-index-array--1", lambda: gamma_norm(1.0, 1.0, np.arange(-1, 3), 0)),
    case("gamma_norm-index-float-array", lambda: gamma_norm(1.0, 1.0, np.arange(3.0), 0)),
    case("finite_rank_tail-cut-2.5", lambda: finite_rank_tail(1.0, 1.0, 1.0, 1.0, 2.5, 2)),
    case("finite_rank_tail-cut--1", lambda: finite_rank_tail(1.0, 1.0, 1.0, 1.0, 2, -1)),
    # alpha, beta finite and > -1
    case("gamma_norm-alpha-nan", lambda: gamma_norm(NAN, 1.0, 0, 0)),
    case("gamma_norm-beta-inf", lambda: gamma_norm(1.0, INF, 0, 0)),
    case("gamma_norm-beta--1", lambda: gamma_norm(1.0, -1.0, 0, 0)),
    case("bidisk_rule-alpha-nan", lambda: bidisk_rule(NAN, 1.0, 4, 4)),
    # rule sizes: integers >= 1
    case("bidisk_rule-n_angular-0", lambda: bidisk_rule(1.0, 1.0, 3, 0)),
    case("bidisk_rule-n_radial-0", lambda: bidisk_rule(1.0, 1.0, 0, 4)),
    case("plane_rule-n_angular-2.5", lambda: plane_rule(1.0, 4, 2.5)),
    case("quadrant_rule-n-4.0", lambda: quadrant_rule(1.0, 1.0, 4.0)),
    case("quadrant_rule-beta-nan", lambda: quadrant_rule(1.0, NAN, 4)),
    case("bergman_kernel-alpha--2", lambda: bergman_kernel(-2.0, 1.0, (0.1, 0.2), (0.3, 0.1))),
    case("bergman_kernel-alpha-nan", lambda: bergman_kernel(NAN, 1.0, (0.1, 0.2), (0.3, 0.1))),
    # bounded regime: alpha, beta finite and > 0
    case("spectrum-alpha-0", lambda: spectrum(1.0, 0.0, 1.0, 0.5, 2, 2)),
    case("spectrum-beta-nan", lambda: spectrum(1.0, 1.0, NAN, 0.5, 2, 2)),
    case("kw_constant-alpha-nan", lambda: kw_constant(1.0, NAN, 1.0, 0.5)),
    case("kw_constant-beta-inf", lambda: kw_constant(1.0, 1.0, INF, 0.5)),
    case("finite_rank_tail-alpha-nan", lambda: finite_rank_tail(1.0, NAN, 1.0, 0.5, 2, 2)),
    # open unit disk
    case("TransformParams-u-nan", lambda: TransformParams(1.0, NAN, 0.5)),
    case("TransformParams-v-1", lambda: TransformParams(1.0, 0.5, 1.0)),
    case("bergman_kernel-point-nan", lambda: bergman_kernel(1.0, 1.0, (NAN, 0.2), (0.3, 0.1))),
    case("bargmann2_apply-point-nan", lambda: bargmann2_apply(one, (0.1, NAN), QUADRANT)),
    # a quadrant rule built by hand, without the alpha, beta the transform reads
    case("bargmann2_apply-rule-without-weights", lambda: bargmann2_apply(
        one, (0.1, 0.2), quadrature.QuadratureRule(
            "quadrant", None, np.array(QUADRANT.weights), axes=tuple(map(np.array, QUADRANT.axes))))),
    # the rule matches the transform
    case("frft_apply-rule-nu", lambda: frft_apply(TransformParams(2.0, 0.2, 0.3), one, 0.5, PLANE)),
    case("adjoint_apply-rule-kind", lambda: adjoint_apply(1.0, 0.5, one, 0.1, QUADRANT)),
    # positive scalars
    case("null_index_set-tol-nan", lambda: null_index_set(1.0, 0.5, 2, 2, NAN)),
    case("null_index_set-tol-0", lambda: null_index_set(1.0, 0.5, 2, 2, 0.0)),
    case("null_index_set-tol-inf", lambda: null_index_set(1.0, 0.5, 2, 2, INF)),
    case("schatten_partial-p-nan",
         lambda: schatten_partial(spectrum(1.0, 1.0, 1.0, 0.5, 2, 2), NAN)),
    case("schatten_partial-p-inf",
         lambda: schatten_partial(spectrum(1.0, 1.0, 1.0, 0.5, 2, 2), INF)),
    # hankel parameters: real u, v in (0, 1), y >= 0
    case("hankel_apply-u-complex", lambda: hankel_apply(1.0, 0, 0.3 + 0.5j, 0.3, one, 0.5)),
    case("hankel_apply-v-nan", lambda: hankel_apply(1.0, 0, 0.3, NAN, one, 0.5)),
    case("hankel_apply-y-nan", lambda: hankel_apply(1.0, 0, 0.3, 0.3, one, NAN)),
    case("hankel_apply-y-inf", lambda: hankel_apply(1.0, 0, 0.3, 0.3, one, INF)),
    # evaluation points: finite
    case("psi_table-z-nan", lambda: psi_table(1.0, NAN, 2, 2)),
    case("psi_table-z-inf", lambda: psi_table(1.0, np.array([0.5, complex(0.1, INF)]), 2, 2)),
    case("psi-z-nan", lambda: psi_table(1.0, NAN, 1, 1)[1, 1]),
    case("hermite_ito-z-inf", lambda: hermite_ito(1.0, 1, 0, INF)),
    case("null_index_set-w-nan", lambda: null_index_set(1.0, NAN, 2, 2, 1e-10)),
    case("spectrum-w-nan", lambda: spectrum(1.0, 1.0, 1.0, NAN, 2, 2)),
    case("CoeffFunction-call-nan", lambda: F(NAN)),
    case("frft_apply-xi-nan", lambda: frft_apply(P, F, NAN)),
    case("frft_apply-quadrature-xi-nan", lambda: frft_apply(P, one, np.array([0.5, NAN]), PLANE)),
    case("dual_apply_coeff-w-nan", lambda: dual_apply_coeff(1.0, NAN, F, (0.1, 0.2))),
    case("kw_constant-w-nan", lambda: kw_constant(1.0, 1.0, 1.0, NAN)),
    case("finite_rank_tail-w-nan", lambda: finite_rank_tail(1.0, 1.0, 1.0, NAN, 2, 2)),
    case("finite_rank_tail-w-inf", lambda: finite_rank_tail(1.0, 1.0, 1.0, INF, 2, 2)),
    case("adjoint_apply-w-nan", lambda: adjoint_apply(1.0, NAN, one, 0.1, BIDISK)),
    case("adjoint_apply-z-nan",
         lambda: adjoint_apply(1.0, 0.5, one, np.array([0.1, NAN]), BIDISK)),
    case("frft_kernel-xi-nan", lambda: frft_kernel(P, 0.5, NAN)),
    case("mehler_closed-z-inf", lambda: mehler_closed(P, INF, 0.5)),
    # the dual transform's points (u, v): open unit disk
    case("dual_apply_coeff-u-1.5", lambda: dual_apply_coeff(1.0, 0.5, F, (1.5, 0.2))),
    case("dual_apply_coeff-v-nan", lambda: dual_apply_coeff(1.0, 0.5, F, (0.1, NAN))),
]


@pytest.mark.parametrize("call", BAD_CALLS)
def test_rejects_bad_value(call):
    with pytest.raises(ValueError):
        call()


# an index is an integer: a float such as 2.5, or even 2.0, is rejected, and a
# numpy integer gives what the Python integer gives
INDEX_CALLS = [
    case("CoeffFunction", lambda k: dict(CoeffFunction(1.0, {(k, 0): 1.0, (1, 1): 0.5}).coeffs)),
    case("zero_radii", lambda k: zero_radii(1.0, k, 2).radii),
    case("psi_table", lambda k: psi_table(1.0, 0.5 + 0.2j, k, 2)),
    case("hermite_ito", lambda k: hermite_ito(1.0, k, 1, 0.5 + 0.2j)),
    case("spectrum", lambda k: spectrum(1.0, 1.0, 1.0, 0.5, k, 2).values),
    case("null_index_set", lambda k: null_index_set(1.0, 1.0, k, 2, 1e-10)),
    case("mehler_series", lambda k: mehler_series(P, 0.5, 0.3j, k)),
]


@pytest.mark.parametrize("call", INDEX_CALLS)
def test_index_is_an_integer(call):
    for k in (2.5, 2.0):
        with pytest.raises(ValueError, match="must be integers in"):
            call(k)
    np.testing.assert_equal(call(np.int64(2)), call(2))


def test_bergman_index_has_no_cap():
    # the closed forms hold at any index: past DEGREE_CAP, and numpy integers
    # give what Python integers give
    assert 0 < gamma_norm(1.0, 1.0, 500, 10**30) < math.inf
    assert gamma_norm(1.0, 1.0, np.int64(3), np.int32(2)) == gamma_norm(1.0, 1.0, 3, 2)
    assert finite_rank_tail(1.0, 1.0, 1.0, 1.0, np.int64(250), 2) > 0


# values beyond double precision: a named OverflowError, with no RuntimeWarning
# (an error under this suite) and never an inf or NaN result
OVERFLOWS = [
    case("bergman_kernel-alpha-2e4", lambda: bergman_kernel(2e4, 1.0, (0.3, 0.0), (0.2, 0.0))),
    case("kw_constant-w-27", lambda: kw_constant(1.0, 1.0, 1.0, 27.0)),
    case("kw_constant-w-30", lambda: kw_constant(1.0, 1.0, 1.0, 30.0)),
    case("kw_constant-upper", lambda: kw_constant(1.0, 1e-9, 1e-9, 26.4)),
    case("finite_rank_tail-w-30", lambda: finite_rank_tail(1.0, 1.0, 1.0, 30.0, 2, 2)),
    case("zero_radii-nu-subnormal", lambda: zero_radii(1e-320, 3, 2)),
    # scipy's ive is NaN at this y; the true value is 1
    case("hankel_apply-y-1e8", lambda: hankel_apply(1.0, 0, 0.5, 0.5, one, 1e8)),
]


@pytest.mark.parametrize("call", OVERFLOWS)
def test_overflow_is_named(call):
    with pytest.raises(OverflowError, match=r"^(bergman_kernel|kw_constant|finite_rank_tail|zero_radii|hankel_apply) at "):
        call()


def test_overflow_names_the_point():
    with pytest.raises(OverflowError, match=r"at nu=1\.0, w=\(27\+0j\) is out of range"):
        kw_constant(1.0, 1.0, 1.0, 27.0)
    with pytest.raises(OverflowError, match=r"at nu=2\.0, w=20j is out of range: nu \|w\|\^2 = 800"):
        finite_rank_tail(2.0, 1.0, 1.0, 20j, 2, 2)
    # a large weight whose kernel still fits double precision is a value
    assert abs(bergman_kernel(1e4, 1.0, (0.3, 0.0), (0.2, 0.0))) == pytest.approx(1.2077637e272)


@pytest.mark.parametrize("w", [1e200, 1e200j, complex(1e200, -1e200)])
def test_huge_point_gives_a_named_overflow(w):
    # nu |w|^2 past double precision is inf, not a bare OverflowError from
    # float power: k_w and the tail name the point, spectra and null sets
    # name the psi table that overflows
    for call in (kw_constant, lambda *a: finite_rank_tail(*a, 2, 2)):
        with pytest.raises(OverflowError, match=r"at nu=1\.0, w=.* nu \|w\|\^2 = inf exceeds 700"):
            call(1.0, 1.0, 1.0, w)
    with pytest.raises(OverflowError, match=r"^psi table up to index \(4, 4\) .* overflows"):
        spectrum(1.0, 1.0, 1.0, w, 4, 4)
    with pytest.raises(OverflowError, match=r"^psi table up to index \(4, 4\) .* overflows"):
        null_index_set(1.0, w, 4, 4, 1e-3)


@pytest.mark.parametrize("z", [0.7, np.array([0.0, -1.1, 2.0])], ids=["scalar", "array"])
def test_public_values_stay_complex_at_real_points(z):
    # psi tables and entries take the kind of their point, but the public
    # functions built on them return complex values at a real point too,
    # equal to those at the same point as a complex number
    f = CoeffFunction(1.3, {(0, 0): 1.0, (2, 1): 0.5, (3, 3): -2.0})
    p = TransformParams(1.3, 0.3, 0.2)
    for call in (f, lambda z: mehler_series(p, z, z, 6), lambda z: hermite_ito(1.3, 3, 1, z)):
        got, want = call(z), call(np.asarray(z, dtype=complex))
        assert np.result_type(got) == np.complex128 and type(got) is type(want)
        np.testing.assert_array_equal(got, want)


def test_hankel_accepts_real_complex():
    # a complex u, v with zero imaginary part is the real parameter
    prof = lambda r: np.exp(-r * r)  # noqa: E731
    want = hankel_apply(1.0, 1, 0.3, 0.4, prof, 0.7)
    assert hankel_apply(1.0, 1, 0.3 + 0j, complex(0.4), prof, 0.7) == want


def test_point_rule_names_the_first_non_finite_entry():
    with pytest.raises(ValueError, match=r"psi table point z must be finite, got \(nan\+0j\)"):
        psi_table(1.0, np.array([0.5, NAN, INF]), 2, 2)


@pytest.mark.parametrize("bad", [NAN, -INF, complex(0.5, NAN)], ids=["nan", "minus_inf", "complex"])
def test_point_rule_names_a_value_the_same_way_in_any_container(bad):
    # a Python number, a 0-d array, a list and an array name the same entry,
    # formatted as a complex number, also where a real point steps a real table
    messages = set()
    for point in (bad, np.array(bad), [0.5, bad], np.array([0.5, bad, NAN])):
        for call in (lambda: ito_hermite._check_point("psi table point z", point),
                     lambda: psi_table(1.0, point, 2, 2)):
            with pytest.raises(ValueError, match="psi table point z must be finite") as err:
                call()
            messages.add(str(err.value))
    assert messages == {"psi table point z must be finite, got %s" % complex(bad)}


# Each rule has one home.  With the home made to raise a sentinel, every
# listed caller raises it: a caller with a private copy of the rule would
# not, so such a copy cannot come back unnoticed.


class Sentinel(Exception):
    pass


def _raise_sentinel(*args, **kwargs):
    raise Sentinel


def _transform_dual(tmp_path):
    path = tmp_path / "f.json"
    save_coeff_file(path, F)
    return cli.main(["transform", "--kind", "dual", "--input", str(path), "--grid-count", "1"])


HOMES = {
    (ito_hermite, "_check_nu"): [
        lambda _: psi_table(1.0, 0.5, 2, 2),
        lambda _: spectrum(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: null_index_set(1.0, 0.5, 2, 2, 1e-3),
        lambda _: zero_radii(1.0, 1, 1),
        lambda _: TransformParams(1.0, 0.2, 0.3),
        lambda _: CoeffFunction(1.0, {(0, 0): 1.0}),
        lambda _: plane_rule(1.0, 4, 4),
        lambda _: kw_constant(1.0, 1.0, 1.0, 0.5),
        lambda _: finite_rank_tail(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: hankel_apply(1.0, 0, 0.3, 0.3, one, 0.5),
        lambda _: adjoint_apply(1.0, 0.5, one, 0.1, BIDISK),
    ],
    (ito_hermite, "_check_index"): [
        lambda _: psi_table(1.0, 0.5, 2, 2),
        lambda _: zero_radii(1.0, 1, 1),
        lambda _: CoeffFunction(1.0, {(0, 0): 1.0}),
    ],
    (ito_hermite, "_integer_in"): [
        lambda _: psi_table(1.0, 0.5, 2, 2),
        lambda _: plane_rule(1.0, 4, 4),
        lambda _: bidisk_rule(1.0, 1.0, 4, 4),
        lambda _: quadrant_rule(1.0, 1.0, 4),
    ],
    (ito_hermite, "_check_bergman_index"): [
        lambda _: gamma_norm(1.0, 1.0, 0, 0),
        lambda _: bergman_norm({(1, 0): 1.0}, 1.0, 1.0),
        lambda _: finite_rank_tail(1.0, 1.0, 1.0, 0.5, 2, 2),
    ],
    (quadrature, "_check_sizes"): [
        lambda _: plane_rule(1.0, 4, 4),
        lambda _: bidisk_rule(1.0, 1.0, 4, 4),
        lambda _: quadrant_rule(1.0, 1.0, 4),
    ],
    (quadrature, "_check_weights"): [
        lambda _: bidisk_rule(1.0, 1.0, 4, 4),
        lambda _: bargmann2_apply(one, (0.1, 0.2), QUADRANT),
        lambda _: quadrant_rule(1.0, 1.0, 4),
        lambda _: gamma_norm(1.0, 1.0, 0, 0),
        lambda _: bergman_kernel(1.0, 1.0, (0.1, 0.2), (0.3, 0.1)),
    ],
    (spectral, "_check_bounded"): [
        lambda _: spectrum(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: kw_constant(1.0, 1.0, 1.0, 0.5),
        lambda _: finite_rank_tail(1.0, 1.0, 1.0, 0.5, 2, 2),
    ],
    (kernels, "_check_disk"): [
        lambda _: TransformParams(1.0, 0.2, 0.3),
        lambda _: bergman_kernel(1.0, 1.0, (0.1, 0.2), (0.3, 0.1)),
        lambda _: bargmann2_apply(one, (0.1, 0.2), QUADRANT),
        lambda _: dual_apply_coeff(1.0, 0.5, F, (0.1, 0.2)),
        _transform_dual,
    ],
    (ito_hermite, "_radius"): [
        lambda _: spectrum(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: null_index_set(1.0, 0.5, 2, 2, 1e-3),
        lambda _: kw_constant(1.0, 1.0, 1.0, 0.5),
        lambda _: finite_rank_tail(1.0, 1.0, 1.0, 0.5, 2, 2),
    ],
    (ito_hermite, "_check_point"): [
        lambda _: psi_table(1.0, 0.5, 2, 2),
        lambda _: spectrum(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: null_index_set(1.0, 0.5, 2, 2, 1e-3),
        lambda _: kw_constant(1.0, 1.0, 1.0, 0.5),
        lambda _: finite_rank_tail(1.0, 1.0, 1.0, 0.5, 2, 2),
        lambda _: adjoint_apply(1.0, 0.5, one, 0.1, BIDISK),
        lambda _: frft_kernel(P, 0.5, 0.1),
        lambda _: mehler_closed(P, 0.5, 0.1),
        lambda _: hankel_apply(1.0, 0, 0.3, 0.3, one, 0.5),
        lambda _: frft_apply(P, one, 0.5, PLANE),
        lambda _: bergman_norm({(1, 0): 1.0}, 1.0, 1.0),
    ],
    (ito_hermite, "_require_finite"): [
        lambda _: psi_table(1.0, 0.5, 2, 2),
        lambda _: zero_radii(1.0, 3, 2),
        lambda _: bergman_kernel(1.0, 1.0, (0.1, 0.2), (0.3, 0.1)),
        lambda _: kw_constant(1.0, 1.0, 1.0, 0.5),
    ],
    (quadrature, "_check_rule"): [
        lambda _: frft_apply(TransformParams(1.0, 0.2, 0.3), F, 0.5, PLANE),
        lambda _: adjoint_apply(1.0, 0.5, one, 0.1, BIDISK),
        lambda _: bargmann2_apply(one, (0.1, 0.2), QUADRANT),
    ],
}


@pytest.mark.parametrize("home", list(HOMES), ids=[name for _, name in HOMES])
def test_callers_go_through_the_home(monkeypatch, tmp_path, home):
    module, name = home
    fn = getattr(module, name)
    bound = [m for key, m in sorted(sys.modules.items()) if key.startswith("itofrft")
             and getattr(m, name, None) is fn]
    assert module in bound
    for m in bound:
        monkeypatch.setattr(m, name, _raise_sentinel)
    for caller in HOMES[home]:
        with pytest.raises(Sentinel):
            caller(tmp_path)
