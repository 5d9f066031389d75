"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is built from the workload seed alone; specbound receives only
the generated inputs. Building a workload is its set-up (input generation and
file writing); ``op(i)`` is the timed operation and ``check(i, out)`` returns
the problems found in its output (an empty list when it is correct).

Two kinds of check run on every operation. Invariants must hold on any seed.
Stored reference values (``reference.json``, written by
``make_reference.py``) pin the outputs of the seeds recorded there, to 1e-9
relative; on any other seed only the invariants run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from specbound import cli, experiments, fileio, graphs
from specbound.experiments import ExperimentConfig
from specbound.graphs import QCut

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the same
# code paths at sizes a smoke test can afford.
SCALES = {
    "full": {
        "reproduce": {"n_vertices": 2000, "q": 24},
        "audit_n_max": 10,
        "bounds": {"n": 200, "group": 20, "pairs": 3},
        "bestcut": {"n_vertices": 11, "q": 3, "inter_edge_count": 4},
    },
    "tiny": {
        "reproduce": {"n_vertices": 60, "q": 3, "inter_edge_count": 6},
        "audit_n_max": 6,
        "bounds": {"n": 20, "group": 4, "pairs": 2},
        "bestcut": {"n_vertices": 8, "q": 3, "inter_edge_count": 3},
    },
}

# How many leading operations of each workload the reference file pins. Ops
# past this prefix (and every op on a seed not in the file) get the invariant
# checks alone.
REFERENCE_OPS = {"reproduce-n2000": 2, "audit-n10": 16, "bounds-n200": 3, "bestcut-n11": 1}


def derive_seed(*parts) -> int:
    """A 63-bit seed determined by ``parts`` alone."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def load_reference(workload: str, seed: int, scale: str) -> list | None:
    if scale != "full" or not REFERENCE_FILE.is_file():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(workload, {}).get(str(seed))


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two JSON-like values; floats to REL_TOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for k, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{k}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``specbound`` CLI call: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """One workload at one seed. Subclasses set ``name`` and define op/check."""

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.sizes = SCALES[scale]
        self.reference = load_reference(self.name, seed, scale)

    def op(self, i: int):
        raise NotImplementedError

    def invariants(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def reference_view(self, i: int, out):
        """The part of an op's output that the reference file pins."""
        raise NotImplementedError

    def reference_slot(self, i: int) -> int | None:
        """Which stored entry op i is compared against, if any."""
        return i if i < REFERENCE_OPS[self.name] else None

    def check(self, i: int, out) -> list[str]:
        problems = self.invariants(i, out)
        slot = self.reference_slot(i)
        if not problems and self.reference is not None and slot is not None:
            problems = compare(self.reference[slot], self.reference_view(i, out))
        return problems


class Reproduce(Workload):
    """reproduce_pipeline at n = 2000, q = 24, cycling a few derived graph seeds."""

    name = "reproduce-n2000"
    # An op takes seconds, so a run fits only a few. Cycling a fixed set of
    # graphs makes every run time the same inputs, however many ops fit.
    distinct_graphs = 2

    def config(self, i: int) -> ExperimentConfig:
        seed = derive_seed(self.name, self.seed, i % self.distinct_graphs)
        return ExperimentConfig(seed=seed, **self.sizes["reproduce"])

    def reference_slot(self, i):
        return i % self.distinct_graphs

    def op(self, i):
        return experiments.reproduce_pipeline(self.config(i))

    def invariants(self, i, out):
        return [
            f"{key} is false"
            for key in ("all_inequalities_ok", "med_condition_ok")
            if out[key] is not True
        ]

    def reference_view(self, i, out):
        return {key: value for key, value in out.items() if not key.startswith("reference_")}


class Audit(Workload):
    """audit_random_matrices on one random normal pair per op, n in 2..10."""

    name = "audit-n10"

    def op(self, i):
        return experiments.audit_random_matrices(
            count=1,
            n_max=self.sizes["audit_n_max"],
            seed=derive_seed(self.name, self.seed, i),
        )

    def invariants(self, i, out):
        problems = []
        if out.instances != 1:
            problems.append(f"instances = {out.instances}, expected 1")
        if out.violations != 0:
            problems.append(f"violations = {out.violations}: {out.violation_labels}")
        return problems

    def reference_view(self, i, out):
        return out.as_dict()


def complex_normal_pair(
    n: int, group: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A complex normal matrix and a normal perturbation of it.

    The ``group`` eigenvalues with the smallest real parts (the first
    ``group`` of specbound's lexicographic order) sit at real part
    [-14, -12], the rest at [0, 10], so the group is separated from the rest
    by at least 12. The perturbation jitters every eigenvalue and turns the
    eigenbasis by a unitary near the identity; its 2-norm is checked to stay
    below a quarter of that separation, so the half-gap condition holds with
    room to spare.
    """

    def unitary(z):
        qmat, r = np.linalg.qr(z)
        return qmat * (np.diag(r) / np.abs(np.diag(r)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = unitary(gaussian(n, n))
    real = np.concatenate([rng.uniform(-14.0, -12.0, group), rng.uniform(0.0, 10.0, n - group)])
    lam = real + 1j * rng.uniform(-5.0, 5.0, n)
    lam_t = lam + 0.05 * gaussian(n)
    turn = unitary(np.eye(n) + (0.05 / np.sqrt(n)) * gaussian(n, n))
    v = u @ turn
    m = (u * lam) @ u.conj().T
    m_t = (v * lam_t) @ v.conj().T
    separation = np.abs(lam[:group, None] - lam[None, group:]).min()
    norm = np.linalg.norm(m_t - m, 2)
    if not 4.0 * norm < separation:
        raise RuntimeError(f"perturbation norm {norm:.3g} too large for gap {separation:.3g}")
    return m, m_t


class Bounds(Workload):
    """`specbound bounds --mode all --kappa tightest --json` on 200x200 pairs."""

    name = "bounds-n200"

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        spec = self.sizes["bounds"]
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.name, seed)))
        set_a = ",".join(str(k) for k in range(1, spec["group"] + 1))
        self.argvs = []
        for p in range(spec["pairs"]):
            m, m_t = complex_normal_pair(spec["n"], spec["group"], rng)
            base, pert = workdir / f"pair{p}.base.mat", workdir / f"pair{p}.pert.mat"
            fileio.save_matrix(base, m)
            fileio.save_matrix(pert, m_t)
            self.argvs.append([
                "bounds", "--base", str(base), "--perturbed", str(pert),
                "--set-a", set_a, "--mode", "all", "--kappa", "tightest", "--json",
            ])

    def reference_slot(self, i):
        return i % len(self.argvs)

    def op(self, i):
        return run_cli(self.argvs[i % len(self.argvs)])

    def invariants(self, i, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        labels = [r.get("label") for r in json.loads(text).get("reports", [])]
        if "tilde_free" not in labels:
            return [f"no tilde_free report (reports: {labels})"]
        return []

    def reference_view(self, i, out):
        payload = json.loads(out[1])
        view = {key: payload[key] for key in ("set_a", "set_a_tilde", "set_a_hat")}
        view["reports"] = [
            {
                "label": r["label"],
                "lhs_dsp": r["lhs_dsp"],
                "bounds": {b["name"]: b["value"] for b in r["bounds"]},
            }
            for r in payload["reports"]
        ]
        return view


class BestCut(Workload):
    """`specbound graph best-cut --q 3 --exact --json` on an 11-vertex planted graph."""

    name = "bestcut-n11"

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        spec = self.sizes["bestcut"]
        cfg = ExperimentConfig(seed=derive_seed(self.name, seed), **spec)
        base, self.planted = experiments.synth_clustered_graph(cfg)
        self.graph = experiments.add_intercluster_edges(base, self.planted, cfg)
        path = workdir / "planted.graph"
        fileio.save_graph(path, self.graph)
        self.planted_coupling = graphs.total_coupling(self.planted, self.graph)
        self.argv = [
            "graph", "best-cut", "--graph", str(path), "--q", str(spec["q"]),
            "--exact", "--json",
        ]

    def reference_slot(self, i):
        return 0

    def op(self, i):
        return run_cli(self.argv)

    def invariants(self, i, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(text)
        value = payload["total_coupling"]
        recomputed = graphs.total_coupling(QCut(tuple(payload["labels"]), self.planted.q), self.graph)
        problems = []
        if not math.isclose(value, recomputed, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"reported coupling {value!r} != recomputed {recomputed!r}")
        if value > self.planted_coupling * (1 + REL_TOL) + ABS_TOL:
            problems.append(f"cut coupling {value!r} exceeds planted {self.planted_coupling!r}")
        return problems

    def reference_view(self, i, out):
        payload = json.loads(out[1])
        return {"labels": payload["labels"], "total_coupling": payload["total_coupling"]}


WORKLOADS = {cls.name: cls for cls in (Reproduce, Audit, Bounds, BestCut)}
