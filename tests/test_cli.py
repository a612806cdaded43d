import csv
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from itofrft.cli import load_coeff_file, save_coeff_file
from itofrft.ito_hermite import psi
from itofrft.spectral import schatten_partial, singular_value, spectrum
from itofrft.transforms import CoeffFunction

CLI = [sys.executable, "-m", "itofrft.cli"]


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=180
    )


def write_coeffs(path, nu, coeffs):
    save_coeff_file(path, CoeffFunction(nu=nu, coeffs=coeffs))
    return str(path)


class TestHermiteCommand:
    def test_eval(self, schemas):
        res = run_cli("hermite", "eval", "--m", "0", "--n", "0", "--z-re", "2", "--z-im", "3")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"] == {"re": 1.0, "im": 0.0}

    def test_zeros(self, schemas):
        res = run_cli("hermite", "zeros", "--m", "1", "--n", "1")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["zeros_output"])
        assert doc["radii"] == pytest.approx([1.0])
        assert doc["origin"] is False

    def test_nullset(self, schemas):
        res = run_cli("hermite", "nullset", "--max-m", "2", "--max-n", "2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["nullset_output"])
        assert [1, 0] in doc["indices"]
        assert [1, 1] not in doc["indices"]

    def test_usage_error(self):
        res = run_cli("hermite", "eval", "--m", "-1")
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_overflow(self):
        # H_{200,200}(0.5) is near 1e374: a one-line error, never NaN output
        res = run_cli("hermite", "eval", "--m", "200", "--n", "200", "--z-re", "0.5")
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


class TestKernelCommand:
    def test_mehler_identity_point(self, schemas):
        res = run_cli("kernel", "--kind", "mehler", "--z-re", "1", "--w-re", "-2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(1.0)

    def test_frft(self, schemas):
        res = run_cli("kernel", "--kind", "frft", "--nu", "2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(2.0 / math.pi)

    def test_bergman(self, schemas):
        res = run_cli("kernel", "--kind", "bergman", "--alpha", "0", "--beta", "0")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["value_output"])
        assert doc["value"]["re"] == pytest.approx(1.0 / math.pi**2)

    def test_invalid_parameters(self):
        res = run_cli("kernel", "--kind", "frft", "--u-re", "1.0")
        assert res.returncode == 1


class TestTransformCommand:
    def test_frft_eigenfunction(self, tmp_path, schemas):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(2, 1): 1.0})
        res = run_cli(
            "transform", "--kind", "frft", "--input", path,
            "--u-re", "0.5", "--v-re", "0.5",
            "--grid-center-re", "0.5", "--grid-half", "0", "--grid-count", "1",
            "--n-radial", "48", "--n-angular", "32",
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert len(doc) == 1
        want = 0.5**3 * psi(1.0, 2, 1, 0.5)
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
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert doc[0]["point"] == {"u": 0.3, "v": 0.2}
        assert doc[0]["value"]["re"] == pytest.approx(0.3 * psi(1.0, 1, 0, 1.0).real)

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
        value = json.loads(spaced.stdout)[0]["value"]
        want = psi(1.0, 0, 1, -0.25 - 1e-05j) * 0.5
        assert complex(value["re"], value["im"]) == pytest.approx(want, rel=1e-13)

    def test_hankel_fixed_point(self, tmp_path, schemas):
        # psi_00 is the constant 1/sqrt(pi), a fixed profile at order 0
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli(
            "transform", "--kind", "hankel", "--input", path,
            "--u-re", "0.3", "--v-re", "0.3", "--order", "0",
            "--grid-center-re", "1.0", "--grid-half", "0", "--grid-count", "1",
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        jsonschema.validate(doc, schemas["transform_output"])
        assert doc[0]["point"] == {"y": 1.0}
        assert doc[0]["value"]["re"] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

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

    def test_parameter_outside_disk(self, tmp_path):
        path = write_coeffs(tmp_path / "f.json", 1.0, {(0, 0): 1.0})
        res = run_cli("transform", "--kind", "frft", "--input", path, "--u-re", "1.5")
        assert res.returncode == 1


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
        jsonschema.validate(json.loads(p.read_text()), schemas["coeff_file"])

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


class TestSpectrumCommand:
    def test_artifacts(self, tmp_path, schemas):
        res = run_cli(
            "spectrum", "--alpha", "1", "--beta", "1", "--w-re", "0",
            "--max-m", "5", "--max-n", "4", "--out-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        paths = json.loads(res.stdout)
        jsonschema.validate(paths, schemas["spectrum_paths"])

        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "n", "s"]
        assert len(rows) == 1 + 6 * 5
        assert float(rows[1][2]) == pytest.approx(math.sqrt(math.pi) / 2.0)

        summary = json.loads(open(paths["summary"]).read())
        jsonschema.validate(summary, schemas["spectrum_summary"])
        top = summary["top"][0]
        assert top["s"] == pytest.approx(
            singular_value(1.0, 1.0, 1.0, top["m"], top["n"], 0.0)
        )
        assert summary["kw"]["lower"] <= summary["kw"]["value"] <= summary["kw"]["upper"]
        # Hilbert-Schmidt partial sums grow with the cutoff
        parts = summary["schatten_partial"]
        assert parts["10"] <= parts["20"] <= parts["40"]
        # each cut is read off one table, and equals its own spectrum's sum
        for cut in (10, 20, 40):
            want = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.0, cut, cut), 2.0)
            assert parts[str(cut)] == pytest.approx(want, rel=1e-14)

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        import os

        env = dict(os.environ, ITOFRFT_OUT_DIR=str(tmp_path / "envdir"))
        res = run_cli(
            "spectrum", "--alpha", "1", "--beta", "1",
            "--max-m", "2", "--max-n", "2", "--out-dir", str(tmp_path / "flagdir"),
            env=env,
        )
        assert res.returncode == 0
        assert (tmp_path / "envdir" / "spectrum.csv").exists()
        assert not (tmp_path / "flagdir").exists()

    def test_unbounded_regime(self):
        res = run_cli("spectrum", "--alpha", "0", "--beta", "1")
        assert res.returncode == 1
        assert "alpha" in res.stderr


class TestVerifyCommand:
    def _config(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_passing_subset(self, tmp_path, schemas):
        cfg = self._config(tmp_path, {
            "checks": ["hankel_fixed_point", "bessel_monotone"],
            "out_dir": str(tmp_path),
        })
        res = run_cli("verify", "--config", cfg)
        assert res.returncode == 0, res.stderr
        assert "hankel_fixed_point" in res.stdout and "PASS" in res.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert report["passed"] is True
        assert len(report["checks"]) == 2

    def test_tightened_tolerance_fails(self, tmp_path, schemas):
        cfg = self._config(tmp_path, {
            "checks": ["hankel_fixed_point"],
            "tolerances": {"hankel_fixed_point": 1e-30},
            "out_dir": str(tmp_path),
        })
        res = run_cli("verify", "--config", cfg)
        assert res.returncode == 3
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, schemas["report"])
        assert report["passed"] is False
        assert report["checks"][0]["status"] == "fail"

    def test_missing_config(self, tmp_path):
        res = run_cli("verify", "--config", str(tmp_path / "absent.json"))
        assert res.returncode == 2

    def test_bad_sizes(self, tmp_path):
        cfg = self._config(tmp_path, {"sizes": {"n_radial": 4}})
        assert run_cli("verify", "--config", cfg).returncode == 2

    def test_bad_tolerances(self, tmp_path):
        cfg = self._config(tmp_path, {"tolerances": {"orthonormality": 0.0}})
        assert run_cli("verify", "--config", cfg).returncode == 2

    def test_unknown_check_name(self, tmp_path):
        cfg = self._config(tmp_path, {"checks": ["no_such_check"]})
        res = run_cli("verify", "--config", cfg)
        assert res.returncode == 2
        assert "no_such_check" in res.stderr
