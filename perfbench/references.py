"""Reference values the benchmark checks critfield's outputs against.

This script imports nothing from critfield: it samples the ensemble
S(m; 1, 1) straight from its definition and writes the determinant averages
with their Monte Carlo standard errors to references.json.

S(m; u, v) holds real symmetric m x m matrices with centered Gaussian
entries and E[a_ij a_kl] = u d_ij d_kl + v (d_ik d_jl + d_il d_jk), so
diagonal entries have variance u + 2v, any two diagonal entries covariance
u, and off-diagonal entries variance v.  With p = (tr A)^2 and q = tr(A^2)
the script estimates E|det A|, E[p |det A|] and E[q |det A|].

At m = 2 the closed forms E|det A| = 4/sqrt(3) and E[det(A)^2] = 12 are
used; the Monte Carlo values for m = 2 are stored next to them as a check
of the sampler.

Regenerate with (about 100 s):

    python3 perfbench/references.py
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

OUT = Path(__file__).with_name("references.json")
FUNCTIONALS = ("absdet", "p_absdet", "q_absdet")
SAMPLES = 400_000_000  # draws at m = 3; a tenth of that at m = 2
SEED = 20261017


def sample(m: int, n: int, rng: np.random.Generator):
    """n draws of S(m; 1, 1): the diagonal, the upper off-diagonal entries."""
    shift = rng.standard_normal((n, 1))
    diag = math.sqrt(2.0) * rng.standard_normal((n, m)) + shift
    off = rng.standard_normal((n, m * (m - 1) // 2))
    return diag, off


def functionals(m: int, diag: np.ndarray, off: np.ndarray) -> dict:
    if m == 2:
        a, c = diag.T
        (b,) = off.T
        det = a * c - b * b
    elif m == 3:
        a, d, f = diag.T
        b, c, e = off.T  # a12, a13, a23
        det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    else:
        raise ValueError("only m = 2 and m = 3")
    absdet = np.abs(det)
    p = diag.sum(axis=1) ** 2
    q = (diag**2).sum(axis=1) + 2.0 * (off**2).sum(axis=1)
    return {"absdet": absdet, "p_absdet": p * absdet, "q_absdet": q * absdet}


def estimate(m: int, n_samples: int, seed: int, batch: int = 1_000_000) -> dict:
    rng = np.random.default_rng([seed, m])
    sums = {k: 0.0 for k in FUNCTIONALS}
    sqs = {k: 0.0 for k in FUNCTIONALS}
    done = 0
    while done < n_samples:
        k = min(batch, n_samples - done)
        vals = functionals(m, *sample(m, k, rng))
        for name, x in vals.items():
            sums[name] += float(x.sum())
            sqs[name] += float(np.dot(x, x))
        done += k
    out = {}
    for name in FUNCTIONALS:
        mean = sums[name] / done
        sd = math.sqrt(max(sqs[name] / done - mean**2, 0.0) * done / (done - 1))
        out[name] = {"mean": mean, "sd": sd, "stderr": sd / math.sqrt(done), "n": done}
    return out


def main() -> int:
    t0 = time.perf_counter()
    m3 = estimate(3, SAMPLES, SEED)
    m2_mc = estimate(2, SAMPLES // 10, SEED)
    closed_mean = 4.0 / math.sqrt(3.0)
    closed_sd = math.sqrt(12.0 - closed_mean**2)
    doc = {
        "command": "python3 perfbench/references.py",
        "samples": SAMPLES,
        "seed": SEED,
        "seconds": round(time.perf_counter() - t0, 1),
        "S(2;1,1)": {
            "absdet": {"mean": closed_mean, "sd": closed_sd, "stderr": 0.0,
                       "source": "closed form 4/sqrt(3), E[det^2] = 12"},
            "mc_check": m2_mc,
        },
        "S(3;1,1)": m3,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
