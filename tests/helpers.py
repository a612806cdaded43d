"""Helpers shared by the test modules."""

import json


def save_coeff_file(path, f):
    """Write the CoeffFunction f as a CoeffFile JSON document, the format
    `cli.load_coeff_file` reads (docs/schemas/coeff_file.schema.json)."""
    doc = {
        "nu": f.nu,
        "coeffs": [
            {"m": m, "n": n, "re": a.real, "im": a.imag}
            for (m, n), a in sorted(f.coeffs.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
