import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from itofrft import cli, verify
from itofrft.cli import load_coeff_file
from itofrft.ito_hermite import psi_table
from itofrft.kernels import TransformParams
from itofrft.spectral import schatten_partial, spectrum
from itofrft.transforms import CoeffFunction

from helpers import save_coeff_file, strict_json

CLI = [sys.executable, "-m", "itofrft.cli"]


def run_cli(*args):
    """`cli.main(args)` in this process, with its stdout and stderr captured
    and a SystemExit (from argparse) read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def run_cli_process(*args, env=None):
    """The entry point `python -m itofrft.cli` in a child process: for the
    smoke tests of the module entry, its exit codes and ITOFRFT_OUT_DIR."""
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=180
    )


def write_coeffs(path, nu, coeffs):
    save_coeff_file(path, CoeffFunction(nu=nu, coeffs=coeffs))
    return str(path)


class TestHermiteCommand:
    def test_eval(self, schemas):
        res = run_cli_process(
            "hermite", "eval", "--m", "0", "--n", "0", "--z-re", "2", "--z-im", "3"
        )
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"] == {"re": 1.0, "im": 0.0}

    def test_zeros(self, schemas):
        res = run_cli("hermite", "zeros", "--m", "1", "--n", "1")
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["zeros_output"])
        assert doc["radii"] == pytest.approx([1.0])
        assert doc["origin"] is False

    def test_zeros_overflow(self):
        # at a subnormal nu the radii exceed double precision: one line, not
        # Infinity in the output and a numpy warning
        res = run_cli_process("hermite", "zeros", "--nu", "1e-320", "--m", "3", "--n", "2")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.strip().splitlines() == [
            "zero_radii at nu=1e-320, index (3, 2) overflows double precision"
        ]

    def test_nullset(self, schemas):
        res = run_cli("hermite", "nullset", "--max-m", "2", "--max-n", "2")
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["nullset_output"])
        assert [1, 0] in doc["indices"]
        assert [1, 1] not in doc["indices"]

    def test_usage_error(self):
        res = run_cli_process("hermite", "eval", "--m", "-1")
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_overflow(self):
        # H_{200,200}(0.5) is near 1e374: a one-line error, never NaN output
        res = run_cli_process("hermite", "eval", "--m", "200", "--n", "200", "--z-re", "0.5")
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        assert "overflow" in res.stderr

    def test_nullset_overflow(self):
        res = run_cli(
            "hermite", "nullset", "--w-re", "60", "--max-m", "200", "--max-n", "200"
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1

    def test_domain_error(self):
        res = run_cli("hermite", "eval", "--nu", "0")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags",
        [("eval", "--nu=nan"), ("eval", "--nu=inf"), ("nullset", "--tol=nan"),
         ("nullset", "--tol=inf"), ("eval", "--nu", "abc")],
        ids=["eval_nu_nan", "eval_nu_inf", "nullset_tol_nan", "nullset_tol_inf",
             "eval_nu_not_a_number"],
    )
    def test_invalid_flag(self, flags):
        res = run_cli("hermite", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1


class TestKernelCommand:
    def test_mehler_identity_point(self, schemas):
        res = run_cli("kernel", "--kind", "mehler", "--z-re", "1", "--w-re", "-2")
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(1.0)

    def test_frft(self, schemas):
        res = run_cli("kernel", "--kind", "frft", "--nu", "2")
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(2.0 / math.pi)

    def test_bergman(self, schemas):
        res = run_cli("kernel", "--kind", "bergman", "--alpha", "0", "--beta", "0")
        assert res.returncode == 0
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(1.0 / math.pi**2)

    def test_invalid_parameters(self):
        res = run_cli("kernel", "--kind", "frft", "--u-re", "1.0")
        assert res.returncode == 1

    def test_bergman_overflow(self):
        # (1 - 0.06)^20002 underflows: one line, no RuntimeWarning, no NaN output
        res = run_cli_process("kernel", "--kind", "bergman", "--alpha", "20000", "--beta", "1",
                              "--z-re", "0.3", "--z2-re", "0.2")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.strip().splitlines() == [
            "bergman_kernel at alpha=20000.0, beta=1.0 overflows double precision"
        ]

    @pytest.mark.parametrize(
        "flags",
        [
            ("--kind", "bergman", "--alpha", "nan"),
            ("--kind", "bergman", "--beta=-2"),
            ("--kind", "bergman", "--z2-re", "nan"),
            ("--kind", "mehler", "--v-im", "nan"),
            ("--kind", "frft", "--z-re", "nan"),
            ("--kind", "mehler", "--w-im", "inf"),
        ],
        ids=["bergman_alpha_nan", "bergman_beta_-2", "bergman_point_nan",
             "mehler_v_nan", "frft_point_nan", "mehler_point_inf"],
    )
    def test_domain_error(self, flags):
        # one line, never NaN (not JSON) on stdout
        res = run_cli("kernel", *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flags",
        [("--kind", "frft", "--nu", "inf"), ("--kind", "frft", "--nu", "-1")],
        ids=["frft_nu_inf", "frft_nu_negative"],
    )
    def test_invalid_flag(self, flags):
        # a bad --nu is a usage error, one line, before any kernel is formed
        res = run_cli("kernel", *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        assert "--nu" in res.stderr


class TestTransformCommand:
    def test_frft_eigenfunction(self, tmp_path, schemas):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(2, 1): 1.0})
        res = run_cli(
            "transform", "--kind", "frft", "--input", path,
            "--u-re", "0.5", "--v-re", "0.5",
            "--grid-center-re", "0.5", "--grid-half", "0", "--grid-count", "1",
        )
        assert res.returncode == 0, res.stderr
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert len(doc) == 1
        want = 0.5**3 * psi_table(1.0, 0.5, 2, 1)[2, 1]
        assert doc[0]["value"]["re"] == pytest.approx(want.real, abs=1e-10)
        assert doc[0]["value"]["im"] == pytest.approx(want.imag, abs=1e-10)

    def test_dual(self, tmp_path, schemas):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(1, 0): 1.0})
        res = run_cli(
            "transform", "--kind", "dual", "--input", path, "--w-re", "1",
            "--grid-center-re", "0.3", "--grid-center-im", "0.2",
            "--grid-half", "0", "--grid-count", "1",
        )
        assert res.returncode == 0, res.stderr
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert doc[0]["point"] == {"u": 0.3, "v": 0.2}
        assert doc[0]["value"]["re"] == pytest.approx(0.3 * psi_table(1.0, 1.0, 1, 0)[1, 0].real)

    def test_negative_value_in_exponent_form(self, tmp_path):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 1): 1.0})
        args = (
            "transform", "--kind", "dual", "--input", path,
            "--grid-center-im", "0.5", "--grid-count", "1",
        )
        spaced = run_cli(*args, "--w-re", "-2.5e-1", "--w-im", "-1e-05")
        assert spaced.returncode == 0, spaced.stderr
        joined = run_cli(*args, "--w-re=-0.25", "--w-im=-0.00001")
        assert spaced.stdout == joined.stdout
        value = strict_json(spaced.stdout)[0]["value"]
        want = psi_table(1.0, -0.25 - 1e-05j, 0, 1)[0, 1] * 0.5
        assert complex(value["re"], value["im"]) == pytest.approx(want, rel=1e-13)

    def test_hankel_fixed_point(self, tmp_path, schemas):
        # psi_00 is the constant 1/sqrt(pi), a fixed profile at order 0
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli(
            "transform", "--kind", "hankel", "--input", path,
            "--u-re", "0.3", "--v-re", "0.3",
            "--grid-center-re", "1.0", "--grid-half", "0", "--grid-count", "1",
        )
        assert res.returncode == 0, res.stderr
        doc = strict_json(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert doc[0]["point"] == {"y": 1.0}
        assert doc[0]["value"]["re"] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_hankel_order_is_the_input_mode(self, tmp_path):
        # every coefficient has m - n = 1, so the order is 1, and at real
        # y > 0 the reduction equals the 2D transform at xi = y
        path = write_coeffs(tmp_path / "f.json", 1.0, {(1, 0): 1.0, (2, 1): 0.5j})
        grid = ("--u-re", "0.3", "--v-re", "0.3", "--grid-center-re", "0.75",
                "--grid-half", "0.25", "--grid-count", "3")
        hankel = run_cli("transform", "--kind", "hankel", "--input", path, *grid)
        assert hankel.returncode == 0, hankel.stderr
        frft = run_cli("transform", "--kind", "frft", "--input", path, *grid)
        assert frft.returncode == 0, frft.stderr
        got = [complex(r["value"]["re"], r["value"]["im"]) for r in strict_json(hankel.stdout)]
        want = [complex(r["value"]["re"], r["value"]["im"]) for r in strict_json(frft.stdout)
                if r["point"]["im"] == 0.0]
        assert [r["point"]["y"] for r in strict_json(hankel.stdout)] == [0.5, 0.75, 1.0]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_hankel_matches_frft_far_out(self, tmp_path):
        # an input expansion is transformed exactly, so the radial transform
        # equals the 2D one at xi = y out to y = 100, where quadrature failed
        path = write_coeffs(tmp_path / "f.json", 1.0, {(1, 0): 1.0, (3, 2): 0.5})
        grid = ("--u-re", "0.5", "--v-re", "0.3", "--grid-center-re", "50",
                "--grid-half", "50", "--grid-count", "5")
        hankel = run_cli("transform", "--kind", "hankel", "--input", path, *grid)
        assert hankel.returncode == 0, hankel.stderr
        frft = run_cli("transform", "--kind", "frft", "--input", path, *grid)
        assert frft.returncode == 0, frft.stderr
        got = [complex(r["value"]["re"], r["value"]["im"]) for r in strict_json(hankel.stdout)]
        want = [complex(r["value"]["re"], r["value"]["im"]) for r in strict_json(frft.stdout)
                if r["point"]["im"] == 0.0]
        assert [r["point"]["y"] for r in strict_json(hankel.stdout)] == [0, 25, 50, 75, 100]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert got[-1].real == pytest.approx(9.16e6, rel=1e-3)

    @pytest.mark.parametrize(
        "coeffs",
        [{(1, 0): 1.0, (0, 0): 1.0}, {(0, 1): 1.0}],
        ids=["hankel_two_modes", "hankel_negative_mode"],
    )
    def test_hankel_needs_one_mode(self, tmp_path, coeffs):
        path = write_coeffs(tmp_path / "f.json", 1.0, coeffs)
        res = run_cli("transform", "--kind", "hankel", "--input", path, "--u-re", "0.3", "--v-re", "0.3")
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        assert "m - n" in res.stderr

    def test_hankel_default_grid(self, tmp_path):
        # with no grid flags the hankel radii start at 0: y = 0, 0.5, 1
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli("transform", "--kind", "hankel", "--input", path, "--u-re", "0.3", "--v-re", "0.3")
        assert res.returncode == 0, res.stderr
        doc = strict_json(res.stdout)
        assert [rec["point"] for rec in doc] == [{"y": 0.0}, {"y": 0.5}, {"y": 1.0}]

    def test_deterministic_output(self, tmp_path):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(1, 1): 0.5})
        args = (
            "transform", "--kind", "frft", "--input", path,
            "--u-re", "0.4", "--v-re", "0.1", "--grid-count", "2",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_bad_input_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nu": 1.0, "coeffs": [{"m": 0, "n": 0, "re": 1.0}]}')
        res = run_cli("transform", "--kind", "frft", "--input", str(path))
        assert res.returncode == 1
        assert "re, im" in res.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {"nu": 1.0, "coeffs": 5},
            {"nu": 1.0, "coeffs": None},
            {"nu": 1.0, "coeffs": [{"m": 1.7, "n": 0, "re": 1.0, "im": 0.0}]},
            {"nu": 1.0, "coeffs": [{"m": True, "n": 0, "re": 1.0, "im": 0.0}]},
            {"nu": 1.0, "coeffs": [{"m": 0, "n": 0, "re": "2", "im": 0.0}]},
            {"nu": True, "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]},
        ],
        ids=["coeffs_number", "coeffs_null", "m_fraction", "m_bool", "re_string", "nu_bool"],
    )
    def test_schema_invalid_file(self, tmp_path, schemas, doc):
        # a file the schema rejects is never read as some other expansion
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schemas["coeff_file"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run_cli("transform", "--kind", "frft", "--input", str(path), "--grid-count", "1")
        assert res.returncode == 1
        assert res.stdout == "" and len(res.stderr.strip().splitlines()) == 1, res.stderr

    def test_parameter_outside_disk(self, tmp_path):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli("transform", "--kind", "frft", "--input", path, "--u-re", "1.5")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--kind", "hankel", "--u-re", "0.3", "--u-im", "0.5", "--v-re", "0.3"),
            ("--kind", "hankel", "--u-re", "0.3", "--v-re", "0.3", "--v-im=-0.1"),
            ("--kind", "hankel", "--u-re", "1.5", "--v-re", "0.3"),
            ("--kind", "hankel", "--u-re", "0.3", "--v-re", "0.3",
             "--grid-center-re", "0", "--grid-half", "1", "--grid-count", "3"),
            ("--kind", "dual", "--grid-half", "1.5"),
            ("--kind", "dual", "--grid-center-re", "nan"),
            ("--kind", "frft", "--u-re", "0.3", "--v-im", "nan"),
        ],
        ids=["hankel_u_im", "hankel_v_im", "hankel_u_outside", "hankel_grid_negative",
             "dual_grid_outside", "dual_grid_nan", "frft_v_nan"],
    )
    def test_domain_error(self, tmp_path, flags):
        # a real parameter is never read off a complex flag pair, and no
        # grid point is dropped or evaluated outside the disk
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli("transform", "--input", path, *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--kind", "frft", "--grid-count", "0"),
            ("--kind", "dual", "--grid-count=-1"),
            ("--kind", "frft", "--grid-half=-1"),
            ("--kind", "hankel", "--grid-half", "inf"),
            ("--kind", "dual", "--grid-half", "nan"),
        ],
        ids=["grid_count_0", "grid_count_negative", "grid_half_negative", "grid_half_inf",
             "grid_half_nan"],
    )
    def test_invalid_flag(self, tmp_path, flags):
        # rejected before the input is read: the file does not exist
        res = run_cli("transform", "--input", str(tmp_path / "absent.json"), *flags)
        assert res.returncode == 2
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert res.stdout == ""


    @pytest.mark.parametrize(
        "flags",
        [
            ("--kind", "frft", "--grid-half", "1e308"),
            ("--kind", "dual", "--grid-half", "1e308"),
            ("--kind", "hankel", "--u-re", "0.3", "--v-re", "0.3", "--grid-half", "1e200"),
        ],
        ids=["frft_axis_overflows", "dual_axis_overflows", "hankel_shift_overflows"],
    )
    def test_oversized_grid_is_one_line(self, tmp_path, flags):
        # an axis or a y^2 beyond double precision: one message, no numpy warning
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli("transform", "--input", path, "--grid-count", "3", *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr

    @pytest.mark.parametrize("kind", ["frft", "dual", "hankel"])
    def test_one_call_per_grid(self, tmp_path, monkeypatch, kind):
        # each kind makes one library call over its whole grid, and its
        # records equal the per-point calls
        # the dual transform is frft_apply read at w, over the (u, v) grid
        name = "hankel_apply" if kind == "hankel" else "frft_apply"
        library, calls = getattr(cli, name), []
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or library(*args))
        nu, coeffs = 1.0, {(1, 0): 1.0, (2, 1): 0.5 - 0.25j}  # one mode, k = 1
        path = write_coeffs(tmp_path / "f.json", nu, coeffs)
        res = run_cli("transform", "--kind", kind, "--input", path, "--u-re", "0.3",
                      "--v-re", "0.4", "--w-re", "0.7", "--grid-half", "0.4", "--grid-count", "4")
        assert res.returncode == 0, res.stderr
        assert len(calls) == 1
        doc = strict_json(res.stdout)
        assert len(doc) == (4 if kind == "hankel" else 16)
        f = CoeffFunction(nu=nu, coeffs=coeffs)
        if kind == "frft":
            p = TransformParams(nu, 0.3, 0.4)
            want = [library(p, f, complex(r["point"]["re"], r["point"]["im"])) for r in doc]
        elif kind == "dual":
            want = [library(TransformParams(nu, r["point"]["u"], r["point"]["v"]), f, 0.7) for r in doc]
        else:
            want = [library(nu, 1, 0.3, 0.4, f, r["point"]["y"]) for r in doc]
        got = [complex(r["value"]["re"], r["value"]["im"]) for r in doc]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestCoeffFileRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        f = CoeffFunction(nu=1.25, coeffs={(0, 1): 0.1 + 0.7j, (3, 2): -2.0})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_coeff_file(p1, f)
        g = load_coeff_file(p1)
        assert g.nu == f.nu and dict(g.coeffs) == dict(f.coeffs)
        save_coeff_file(p2, g)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_valid(self, tmp_path, schemas):
        p = tmp_path / "f.json"
        save_coeff_file(p, CoeffFunction(nu=2.0, coeffs={(1, 4): 1.0j}))
        jsonschema.validate(strict_json(p.read_text()), schemas["coeff_file"])

    def test_duplicate_index_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({
            "nu": 1.0,
            "coeffs": [
                {"m": 0, "n": 0, "re": 1.0, "im": 0.0},
                {"m": 0, "n": 0, "re": 2.0, "im": 0.0},
            ],
        }))
        res = run_cli("transform", "--kind", "frft", "--input", str(p))
        assert res.returncode == 1
        assert "duplicate" in res.stderr

    @pytest.mark.parametrize("nu", ["NaN", "Infinity", "0", "-1", '"1"'])
    def test_bad_nu_rejected(self, tmp_path, nu):
        p = tmp_path / "f.json"
        p.write_text('{"nu": %s, "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]}' % nu)
        res = run_cli("transform", "--kind", "frft", "--input", str(p))
        assert res.returncode == 1
        assert res.stdout == ""
        assert "nu" in res.stderr and len(res.stderr.strip().splitlines()) == 1


    @pytest.mark.parametrize("kind", ["frft", "dual"])
    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "1e400"], ids=["nan", "inf", "minus_inf", "overflow"]
    )
    def test_nonfinite_coefficient_rejected(self, tmp_path, kind, value):
        # never NaN (not JSON) on stdout: one line on stderr, exit 1
        p = tmp_path / "f.json"
        p.write_text('{"nu": 1.0, "coeffs": [{"m": 1, "n": 0, "re": %s, "im": 0.0}]}' % value)
        res = run_cli("transform", "--kind", kind, "--input", str(p), "--grid-count", "1")
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr

    @pytest.mark.parametrize("kind", ["frft", "dual"])
    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"nu": 1.0, "x": 2, "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]}, "'x'"),
            ({"nu": 1.0, "coeffs": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0, "extra": 1}]}, "'extra'"),
            ({"nu": 1.0, "coeffs": [{"m": 0, "n": 0, "Re": 1.0, "re": 1.0, "im": 0.0}]}, "'Re'"),
        ],
        ids=["top_level", "record", "misspelt"],
    )
    def test_unknown_key_rejected(self, tmp_path, schemas, kind, doc, key):
        # additionalProperties: false at both levels of the schema
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schemas["coeff_file"])
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        res = run_cli("transform", "--kind", kind, "--input", str(p), "--grid-count", "1")
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert key in res.stderr


class TestSpectrumCommand:
    def test_artifacts(self, tmp_path, schemas):
        res = run_cli(
            "spectrum", "--alpha", "1", "--beta", "1", "--w-re", "0",
            "--max-m", "5", "--max-n", "4", "--out-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        paths = strict_json(res.stdout)
        jsonschema.validate(paths, schemas["spectrum_paths"])

        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "n", "s"]
        assert len(rows) == 1 + 6 * 5
        assert float(rows[1][2]) == pytest.approx(math.sqrt(math.pi) / 2.0)

        summary = strict_json(open(paths["summary"]).read())
        jsonschema.validate(summary, schemas["spectrum_summary"])
        top = summary["top"][0]
        assert top["s"] == pytest.approx(spectrum(1.0, 1.0, 1.0, 0.0, 5, 4)[top["m"], top["n"]])
        assert summary["kw"]["lower"] <= summary["kw"]["value"] <= summary["kw"]["upper"]
        # Hilbert-Schmidt partial sums grow with the cutoff
        parts = summary["schatten_partial"]
        assert parts["10"] <= parts["20"] <= parts["40"]
        # each cut is read off one table, and equals its own spectrum's sum
        for cut in (10, 20, 40):
            want = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.0, cut, cut), 2.0)
            assert parts[str(cut)] == pytest.approx(want, rel=1e-14)

    def test_out_dir_env_override(self, tmp_path):
        env = dict(os.environ, ITOFRFT_OUT_DIR=str(tmp_path / "envdir"))
        res = run_cli_process(
            "spectrum", "--alpha", "1", "--beta", "1",
            "--max-m", "2", "--max-n", "2", "--out-dir", str(tmp_path / "flagdir"),
            env=env,
        )
        assert res.returncode == 0
        assert (tmp_path / "envdir" / "spectrum.csv").exists()
        assert not (tmp_path / "flagdir").exists()

    def test_unwritable_out_dir(self, tmp_path):
        # an --out-dir below a plain file: exit 1 with one line, no traceback
        (tmp_path / "file").write_text("")
        res = run_cli_process("spectrum", "--alpha", "1", "--beta", "1",
                              "--out-dir", str(tmp_path / "file" / "sub"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    def test_unbounded_regime(self):
        res = run_cli("spectrum", "--alpha", "0", "--beta", "1")
        assert res.returncode == 1
        assert "alpha" in res.stderr

    @pytest.mark.parametrize(
        "flag",
        ["--max-m=-1", "--max-n=-1", "--nu=0", "--nu=-1", "--schatten=-1", "--schatten=0",
         "--nu=inf", "--nu=nan", "--schatten=nan", "--schatten=inf"],
    )
    def test_invalid_flag(self, tmp_path, flag):
        # a usage error before any computation: exit 2, one line, no file
        out = tmp_path / "out"
        res = run_cli("spectrum", "--alpha", "1", "--beta", "1", flag, "--out-dir", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_schatten_overflow(self, tmp_path):
        # s^2000 overflows at w = 3: exit 1 with one line (no warning), and
        # no file is written
        out = tmp_path / "out"
        res = run_cli_process(
            "spectrum", "--alpha", "1", "--beta", "1", "--max-m", "3", "--max-n", "3",
            "--w-re", "3", "--schatten", "2000", "--out-dir", str(out),
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert "overflows" in res.stderr
        assert not (out / "summary.json").exists() and not (out / "spectrum.csv").exists()

    def test_kw_overflow(self, tmp_path):
        # nu |w|^2 = 900: a named error before the k_w integrand is formed
        out = tmp_path / "out"
        res = run_cli_process("spectrum", "--alpha", "1", "--beta", "1", "--w-re", "30",
                              "--out-dir", str(out))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.strip().splitlines() == [
            "kw_constant at nu=1.0, w=(30+0j) is out of range: nu |w|^2 = 900 exceeds 700"
        ]
        assert not out.exists()

    def test_underflowing_weights(self, tmp_path):
        # alpha beta = 1e-400 underflows to 0: a named overflow of the k_w
        # bound in one line, not a ZeroDivisionError traceback
        out = tmp_path / "out"
        res = run_cli_process("spectrum", "--alpha", "1e-200", "--beta", "1e-200", "--max-m", "2",
                              "--max-n", "2", "--w-re", "0.5", "--out-dir", str(out))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.strip().splitlines() == [
            "kw_constant at nu=1.0, w=(0.5+0j) overflows double precision"
        ]
        assert not out.exists()

    def test_failure_leaves_earlier_files(self, tmp_path, monkeypatch):
        # a run that fails after the table is computed writes neither file,
        # so an earlier run's csv and summary stay a matching pair
        def spectrum(box):
            return run_cli("spectrum", "--alpha", "1", "--beta", "1", "--max-m", box,
                           "--max-n", box, "--out-dir", str(tmp_path))

        assert spectrum("2").returncode == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args, **kwargs):
            raise OverflowError("k_w overflows")

        monkeypatch.setattr(cli.spectral, "kw_constant", fail)
        assert spectrum("3").returncode == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestVerifyCommand:
    def test_passing_subset(self, tmp_path, schemas):
        res = run_cli("verify", "--check", "schatten_bound", "--check", "hankel_fixed_point",
                      "--out-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "hankel_fixed_point" in res.stdout and "PASS" in res.stdout
        report = strict_json((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == ["schatten_bound", "hankel_fixed_point"]

    def test_select_by_reported_name(self, tmp_path, schemas):
        # the checks run in declaration order, whatever the order of the flags
        res = run_cli("verify", "--check", "hankel_fixed_point", "--check", "frft_eigenrelation",
                      "--out-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        report = strict_json((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert [c["name"] for c in report["checks"]] == ["frft_eigenrelation", "hankel_fixed_point"]

    def test_scipy_import_timed_apart(self, tmp_path, schemas):
        # in a fresh interpreter the first check that needs scipy makes its
        # one import; the report gives that time apart from the check's wall_s
        res = run_cli_process("verify", "--check", "mehler_classical", "--check",
                              "hankel_fixed_point", "--check", "schatten_bound",
                              "--out-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        report = strict_json((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert report["scipy_import_s"] > 0
        walls = {c["name"]: c["wall_s"] for c in report["checks"]}
        assert walls["hankel_fixed_point"] < report["scipy_import_s"]
        # the schema requires the field
        del report["scipy_import_s"]
        with pytest.raises(jsonschema.ValidationError, match="scipy_import_s"):
            jsonschema.validate(report, schemas["report"])

    def test_scipy_loaded_reports_no_import(self, tmp_path, schemas):
        from itofrft.specfun import scipy_special

        scipy_special()  # loaded before the run: no check imports it
        res = run_cli("verify", "--check", "hankel_fixed_point", "--out-dir", str(tmp_path))
        assert res.returncode == 0
        report = strict_json((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert report["scipy_import_s"] == 0.0

    @pytest.mark.parametrize(
        "flags",
        [("--check", "no_such_check"), ("--check", "hankel_fixed_point", "--check", ""),
         ("--config", "config.json")],
        ids=["unknown_name", "empty_name", "config_file"],
    )
    def test_usage_error_runs_nothing(self, tmp_path, monkeypatch, flags):
        # argparse's one line and exit 2 before any check runs; the verify
        # config file is gone, so --config is an unknown flag
        ran = []
        monkeypatch.setattr(verify, "run_checks", lambda *args: ran.append(args))
        res = run_cli("verify", "--out-dir", str(tmp_path / "out"), *flags)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_unknown_check_name(self, tmp_path):
        res = run_cli_process("verify", "--check", "no_such_check", "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.strip().splitlines() == [
            "itofrft verify: error: argument --check: must be the name of a check, "
            "got 'no_such_check'"
        ]
        assert not (tmp_path / "report.json").exists()

    def test_out_dir(self, tmp_path, monkeypatch):
        # --out-dir is created if missing, and ITOFRFT_OUT_DIR overrides it
        flag_dir, env_dir = tmp_path / "flag" / "nested", tmp_path / "env"
        args = ("verify", "--check", "schatten_bound", "--out-dir", str(flag_dir))
        assert run_cli(*args).returncode == 0
        assert [p.name for p in flag_dir.iterdir()] == ["report.json"]
        (flag_dir / "report.json").unlink()
        monkeypatch.setenv("ITOFRFT_OUT_DIR", str(env_dir))
        assert run_cli(*args).returncode == 0
        assert [p.name for p in env_dir.iterdir()] == ["report.json"]
        assert list(flag_dir.iterdir()) == []

    def test_unwritable_out_dir(self, tmp_path):
        # an --out-dir below a plain file: exit 1 with one line, no traceback
        (tmp_path / "file").write_text("")
        res = run_cli_process("verify", "--check", "schatten_bound",
                              "--out-dir", str(tmp_path / "file" / "sub"))
        assert res.returncode == 1
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert "Traceback" not in res.stderr

    def test_fault_in_a_check_exits_1(self, tmp_path, monkeypatch):
        # a ValueError while a check runs is a program fault, not a usage error
        def broken(*args):
            raise ValueError("hankel_apply failed")

        monkeypatch.setattr(verify, "hankel_apply", broken)
        res = run_cli("verify", "--check", "hankel_fixed_point", "--out-dir", str(tmp_path))
        assert res.returncode == 1
        assert res.stderr.strip() == "hankel_apply failed"
        assert not (tmp_path / "report.json").exists()
