"""The benchmark's three workloads and the check applied to every op.

Each workload turns an op seed into generated inputs (``prepare``, not
timed), runs one op on them (``run``, timed) and extracts the estimates the
check compares (``values``). Inputs are Gaussian-copula samples from
``gen_gaussian_copula`` at rho 0.9, d 6; nothing else reaches the program.

Run this file to record ``reference.json`` from the current source:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The reference op is op 0 of the default seed 0.
REFERENCE_SEED = 0
REL_TOL = 1e-12
# Normal quantile z_{0.975}: the study and the CLI use alpha = 0.05, so an
# interval's half-width divided by it is the bootstrap standard error.
Z_975 = 1.959963984540054
RHO, D = 0.9, 6


def op_seed(seed: int, k: int) -> int:
    """Seed of op k in a run with the given workload seed."""
    return seed * 1_000_000 + k


def load_nncorr():
    """Import nncorr from the checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import nncorr
        import nncorr.cli  # noqa: F401 - the CLI workload calls it, the tracer wraps it
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nncorr from {src}: {exc}") from None
    if not Path(nncorr.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: nncorr was imported from {nncorr.__file__}, not {src}")
    return nncorr


class Workload:
    name = ""
    # Re-run the first op after the loop and require byte-identical output.
    repeat_first = False

    def __init__(self, nncorr, workdir: Path):
        self.nncorr = nncorr
        self.workdir = workdir

    def sample(self, n: int, seed: int):
        nc = self.nncorr
        return nc.gen_gaussian_copula(nc.CopulaConfig(n=n, d=D, rho=RHO, seed=seed))


class StudyN300(Workload):
    """One replication of the (0.9, 6, 300) study cell with B = 200."""

    name = "study_n300"

    def prepare(self, seed: int) -> int:
        return seed

    def run(self, seed: int):
        records: list = []
        self.nncorr.run_study([(RHO, D, 300)], reps=1, b_reps=200, seed=seed, records=records)
        return records[0]

    def values(self, rec) -> dict[str, float]:
        return {
            "t_hat": rec.t_hat,
            "l_hat": (rec.t_hat - rec.t_bc) / 6.0,
            "t_bc": rec.t_bc,
            "se_t": (rec.ci_hi_t - rec.ci_lo_t) / (2.0 * Z_975),
            "se_tbc": (rec.ci_hi_tbc - rec.ci_lo_tbc) / (2.0 * Z_975),
        }


class AnalyzeN3000(Workload):
    """``nncorr estimate`` on a fresh n = 3000 CSV, JSON written to a file."""

    name = "analyze_n3000"
    repeat_first = True

    def prepare(self, seed: int) -> tuple[Path, int]:
        import numpy as np

        s = self.sample(3000, seed)
        path = self.workdir / f"in_{seed}.csv"
        header = ",".join([f"x{j + 1}" for j in range(D)] + ["y"])
        np.savetxt(path, np.column_stack([s.x, s.y]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        return path, seed

    def run(self, inp: tuple[Path, int]) -> Path:
        path, seed = inp
        out = path.with_suffix(".json")
        argv = ["estimate", "--input", str(path), "--seed", str(seed), "--output", str(out)]
        code = self.nncorr.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"nncorr estimate exited with code {code}")
        return out

    def fingerprint(self, out: Path) -> bytes:
        return out.read_bytes()

    def values(self, out: Path) -> dict[str, float]:
        doc = json.loads(out.read_text(encoding="utf-8"))
        return {key: doc[key] for key in ("t_hat", "l_hat", "t_bc", "se_t", "se_tbc")}


class EstimateN30000(Workload):
    """``estimate`` on an n = 30 000 sample: streamed bias path, no bootstrap."""

    name = "estimate_n30000"

    def prepare(self, seed: int):
        return self.sample(30_000, seed)

    def run(self, sample):
        return self.nncorr.estimate(sample)

    def values(self, res) -> dict[str, float]:
        return {"t_hat": res.t_hat, "l_hat": res.l_hat, "t_bc": res.t_bc}


WORKLOADS = {w.name: w for w in (StudyN300, AnalyzeN3000, EstimateN30000)}


def check(values: dict[str, float], reference: dict[str, float] | None = None) -> list[str]:
    """Problems with one op's outputs; an empty list means the op is correct.

    Every value must be finite. Against a reference, ``t_hat`` must match
    exactly and every other value within ``REL_TOL`` relative.
    """
    problems = [f"{key} = {v!r} is not finite"
                for key, v in values.items() if not math.isfinite(v)]
    for key, want in (reference or {}).items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key} missing from the output")
        elif key == "t_hat" and got != want:
            problems.append(f"t_hat = {got!r}, reference {want!r}")
        elif abs(got - want) > REL_TOL * abs(want):
            problems.append(f"{key} = {got!r}, reference {want!r} (relative tolerance {REL_TOL})")
    return problems


def load_reference() -> dict[str, dict[str, float]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def record_reference(workdir: Path) -> dict[str, dict[str, float]]:
    nncorr = load_nncorr()
    ref = {}
    for name, cls in WORKLOADS.items():
        wl = cls(nncorr, workdir)
        ref[name] = wl.values(wl.run(wl.prepare(op_seed(REFERENCE_SEED, 0))))
    return ref


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        reference = record_reference(Path(tmp))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
