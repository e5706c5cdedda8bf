"""Workload definitions: fixed instance lists, the operation each instance
runs, and the checks that decide whether an operation passed.

Every instance uses the library/CLI defaults (step 1e-3, default delta).
Importing this module imports riccisym, so a caller that times set-up must
start its clock before importing it.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from riccisym import cli, pipeline
from riccisym.exprfn import parse
from riccisym.rotsym import RotSymTensor

FOLD_ROOT = 1.0 / (2.0 * math.sqrt(2.0))
CONTINUES = "global_continuation_expected"


@dataclass(frozen=True)
class Spec:
    """One target tensor and the outcome a correct solve must show."""

    name: str
    n: int
    phi: str
    psi: str
    t_max: float
    halt: str = "t_end"
    fold_root: bool = False  # must report the fold regularity root 1/(2 sqrt 2)
    gold: bool = False  # closed form w = 2t^2, r = t, f = -t^2


def _gold(n):
    return Spec(f"gold_n{n}", n, f"{4 * (n - 1)}", f"{4 * (n - 1)} - {4 * (n - 2)}*t^2",
                0.5, gold=True)


SPECS = {
    "origin_scan": (
        _gold(3),
        _gold(4),
        _gold(5),
        Spec("fold_contact_n3", 3, "1", "1 - 4*t^2", 0.46, halt="fold_contact", fold_root=True),
        Spec("const_n2", 2, "1", "1", 1.0),
    ),
    "long_span": (
        Spec("const_pos_n3_t10", 3, "1", "1", 10.0),
        Spec("const_neg_n3_t10", 3, "-1", "-1", 10.0),
    ),
    "expr_heavy": (
        Spec("transc_n4", 4, "3*exp(-t^2)", "3*cos(t)^2 + t^4/(1+t^2)", 2.0),
        Spec("trig_log_n5", 5, "2 + sin(t)^2", "2 + t*log(1+t^2)", 2.0),
    ),
    "cli_roundtrip": (
        _gold(4),
        Spec("const_neg_n3_t10", 3, "-1", "-1", 10.0),
    ),
}

# Known defects that make an operation fail at the time the benchmark was
# written.  They run once per run, outside the timed loop, so the timed
# workloads stay free of failing operations while the defect stays visible
# in every result (see bench/README.md).
PROBES = {
    "origin_scan": (Spec("const_n24", 24, "1", "1", 1.0),),
}

# ---------------------------------------------------------------------------
# library operations


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    res_rr: float = math.nan
    res_tt: float = math.nan
    res_ode: float = math.nan


def tensor_of(spec: Spec) -> RotSymTensor:
    return RotSymTensor(spec.n, parse(spec.phi), parse(spec.psi), spec.t_max)


def check_solution(spec: Spec, sol) -> Outcome:
    """Judge one pipeline.solve result against what the instance must show."""
    curve, recon, glob = sol.curve, sol.recon, sol.global_report
    if curve.halt_reason != spec.halt:
        return Outcome(False, f"halt {curve.halt_reason} ({curve.halt_detail}), expected {spec.halt}")
    if spec.n > 2:
        want = CONTINUES if spec.halt == "t_end" else "hypothesis_failed"
        if glob is None or glob.verdict != want:
            got = None if glob is None else glob.verdict
            return Outcome(False, f"continuation verdict {got}, expected {want}")
    elif glob is not None:
        return Outcome(False, "n = 2 produced a continuation report")
    prof = recon.profile
    arrays = (prof.grid, prof.f, prof.fp, prof.r, prof.rp, recon.w, recon.p)
    scalars = (recon.residual_r, recon.residual_f, *recon.ricci_residuals)
    if not all(np.all(np.isfinite(a)) for a in arrays) or not all(map(math.isfinite, scalars)):
        return Outcome(False, "non-finite output")
    if spec.fold_root and not any(abs(r - FOLD_ROOT) < 1e-6 for r in glob.fold_roots):
        return Outcome(False, f"fold root {FOLD_ROOT:.10f} not reported: {glob.fold_roots}")
    if spec.gold:
        i = int(np.argmin(np.abs(prof.grid - 0.5)))
        err = max(abs(recon.w[i] - 0.5), abs(prof.r[i] - 0.5), abs(prof.f[i] + 0.25))
        if abs(prof.grid[i] - 0.5) > 1e-12 or err > 1e-6:
            return Outcome(False, f"gold closed-form error {err:.3e} > 1e-6")
    if spec.halt != "t_end":
        return Outcome(True)
    rr, tt = recon.ricci_residuals
    return Outcome(True, res_rr=rr, res_tt=tt, res_ode=max(recon.residual_r, recon.residual_f))


class SolveOp:
    """One pipeline.solve of one instance."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.name = spec.name
        self.tensor = tensor_of(spec)

    def run(self):
        # module attribute lookup at call time, so a tracer's patch is seen
        return pipeline.solve(self.tensor)

    def check(self, sol) -> Outcome:
        return check_solution(self.spec, sol)


# ---------------------------------------------------------------------------
# CLI round trip: `solve`, then `verify` of the CSV just written


_FLOAT = r"([-+0-9.eEinfa]+)"
_REPORT_RES = re.compile(r"^residual \(n-1\) w' [rf]' [-+] [^:]*: " + _FLOAT + r"$", re.M)
_VERIFY_RES = re.compile(r"^residual (radial|tangential): " + _FLOAT + r"$", re.M)


def _config_text(spec: Spec, extra: str = "") -> str:
    return (
        f"n = {spec.n}\nphi = \"{spec.phi}\"\npsi = \"{spec.psi}\"\n"
        f"t_max = {spec.t_max!r}\nout = \"{spec.name}\"\n{extra}"
    )


class CliOp:
    """`riccisym solve` then `riccisym verify`, in process, inside workdir.

    Output paths are relative to workdir, so the bytes written (the verify
    report names the profile path) do not depend on where the run happens.
    """

    def __init__(self, spec: Spec, workdir: Path):
        self.spec = spec
        self.name = spec.name
        self.workdir = workdir
        self.solve_cfg = workdir / f"{spec.name}_solve.cfg"
        self.verify_cfg = workdir / f"{spec.name}_verify.cfg"
        self.solve_cfg.write_text(_config_text(spec))
        self.verify_cfg.write_text(
            _config_text(spec, f"profile = \"{spec.name}_solution.csv\"\n"))
        # parsed here so that set-up time covers config parsing, as for tensors
        self.configs = [cli.parse_config(p) for p in (self.solve_cfg, self.verify_cfg)]
        self.outputs = [f"{spec.name}_solution.csv", f"{spec.name}_report.txt",
                        f"{spec.name}_verify.txt"]
        self.digests: dict[str, str] | None = None

    def run(self):
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            code_solve = cli.main(["solve", "--config", self.solve_cfg.name])
            code_verify = cli.main(["verify", "--config", self.verify_cfg.name]) if code_solve == 0 else None
        finally:
            os.chdir(here)
        return code_solve, code_verify

    def check(self, codes) -> Outcome:
        if codes != (0, 0):
            return Outcome(False, f"exit codes solve={codes[0]} verify={codes[1]}")
        blobs = {name: (self.workdir / name).read_bytes() for name in self.outputs}
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests[k])
            return Outcome(False, f"output bytes differ from the first pass: {changed}")
        report = blobs[self.outputs[1]].decode()
        if f"halt: {self.spec.halt}" not in report:
            return Outcome(False, "report does not show the expected halt")
        if f"verdict: {CONTINUES}" not in report:
            return Outcome(False, "report does not show the continuation verdict")
        ode = [float(x) for x in _REPORT_RES.findall(report)]
        ricci = dict(_VERIFY_RES.findall(blobs[self.outputs[2]].decode()))
        values = ode + [float(v) for v in ricci.values()]
        if len(ode) != 2 or len(ricci) != 2 or not all(map(math.isfinite, values)):
            return Outcome(False, "residuals missing or non-finite in the reports")
        return Outcome(True, res_rr=float(ricci["radial"]), res_tt=float(ricci["tangential"]),
                       res_ode=max(ode))


def build(workload: str, workdir: Path | None = None):
    """Parse the workload's inputs into tensors (or CLI configs)."""
    if workload == "cli_roundtrip":
        workdir.mkdir(parents=True, exist_ok=True)
        return [CliOp(s, workdir) for s in SPECS[workload]]
    return [SolveOp(s) for s in SPECS[workload]]
