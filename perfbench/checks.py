"""Output checks against the recorded reference outputs.

grid-cold: every cell of the streamed `BENCH_grid.json` is compared
with the reference artifact — discrete fields exactly, energies within
1e-9 relative. Cells with no prediction noise and the optima do not
depend on the root seed, so they are compared at every seed; noisy cells
only at a seed with a recorded reference (`reference/grid-s<seed>.json`).
At every seed each event-driven cell must agree with its per-second twin
and every full-service cell must cost at least its optimum.

fig5: the five energy rows must match `reference/fig5.json` and keep the
order lower bound <= optimum <= BML <= per-day <= global.
"""

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1998
TOL = 1e-9

DISCRETE = ("index", "seed", "trace", "catalog", "scheduler", "window", "noise_sigma", "split",
            "stepping", "violation_seconds", "reconfigurations", "nodes_switched_on",
            "nodes_switched_off", "instance_migrations", "stepping_effective")
ENERGIES = ("total_energy_j", "mean_power_w", "qos_shortfall", "worst_shortfall",
            "reconfig_energy_j", "optimal_energy_j", "optimality_gap")
TWIN_DISCRETE = ("reconfigurations", "nodes_switched_on", "nodes_switched_off",
                 "violation_seconds", "instance_migrations")
TWIN_ENERGIES = ("total_energy_j", "mean_power_w", "qos_shortfall", "worst_shortfall",
                 "reconfig_energy_j")


def rel_err(a, b):
    """Relative deviation, 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def close(a, b):
    """The repository's energy tolerance: 1e-9 relative (plus 1e-9 absolute)."""
    return abs(a - b) <= TOL * max(abs(a), abs(b)) + TOL


class Tally:
    """Checks made, failures, and the largest energy deviation seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def compare(self, got, want, discrete, energies, where, reference=True):
        """One check: `discrete` fields equal, `energies` within 1e-9. Only
        deviations from a `reference` count towards `max_rel_err`."""
        bad = [k for k in discrete if got.get(k) != want.get(k)]
        for k in energies:
            a, b = got.get(k), want.get(k)
            if a is None or b is None:
                if a is not b:
                    bad.append(k)
                continue
            if reference:
                self.max_rel_err = max(self.max_rel_err, rel_err(a, b))
            if not close(a, b):
                bad.append(k)
        self.check(not bad, f"{where}: {', '.join(bad)} differ")


def load_reference(name):
    path = REFERENCE / name
    return json.loads(path.read_text()) if path.exists() else None


def check_grid(artifact_path, seed):
    """Check one grid artifact."""
    t = Tally()
    art = json.loads(Path(artifact_path).read_text())
    base = load_reference(f"grid-s{DEFAULT_SEED}.json")
    exact = load_reference(f"grid-s{seed}.json")
    t.check(art["schema"] == base["schema"], f"schema {art['schema']}")
    t.check(art["failed_cells"] == [], f"{len(art['failed_cells'])} cells quarantined")
    t.check(len(art["cells"]) == art["n_cells"] == base["n_cells"], "cell count")
    base_cells = {c["index"]: c for c in base["cells"]}
    exact_cells = {c["index"]: c for c in exact["cells"]} if exact else {}
    twins = {}
    for c in art["cells"]:
        where = f"cell {c['index']}"
        if c["index"] in exact_cells:
            t.compare(c, exact_cells[c["index"]], DISCRETE, ENERGIES, where)
        elif c["noise_sigma"] == "0":
            # The root seed only feeds noise: clean cells match the default seed's.
            t.compare(c, base_cells[c["index"]], [k for k in DISCRETE if k != "seed"], ENERGIES, where)
        else:
            t.compare(c, base_cells[c["index"]], (), ("optimal_energy_j",), where + " optimum")
        if c["qos_shortfall"] == 0:
            t.check(c["optimality_gap"] >= 0, f"{where}: full service below the optimum")
        key = tuple(c[k] for k in ("trace", "catalog", "scheduler", "window", "noise_sigma", "split"))
        twins.setdefault(key, {})[c["stepping"]] = c
    for key, pair in twins.items():
        if set(pair) != {"event", "per-second"}:
            t.check(False, f"{key}: missing a stepping twin")
            continue
        t.compare(pair["event"], pair["per-second"], TWIN_DISCRETE, TWIN_ENERGIES, f"twins {key}",
                  reference=False)
        t.check(pair["event"]["stepping_effective"] == "event", f"{key}: event cell fell back")
    if exact:
        t.check(art["pareto_energy_vs_qos"] == exact["pareto_energy_vs_qos"]
                and [b["cell"] for b in art["best_by_dimension"]]
                == [b["cell"] for b in exact["best_by_dimension"]], "aggregates differ")
    return t


def check_fig5(outputs_path):
    """Check the fig5 outputs against the reference and the bound ordering."""
    t = Tally()
    got = json.loads(Path(outputs_path).read_text())
    want = load_reference("fig5.json")
    for g, w in zip(got["scenarios"], want["scenarios"]):
        where = g["name"]
        t.compare(g, w, ("name", "reconfigurations", "nodes_switched_on"),
                  ("total_energy_j", "qos_shortfall"), where)
        t.check(len(g["daily_energy_j"]) == len(w["daily_energy_j"]), f"{where}: day count")
        for d, (a, b) in enumerate(zip(g["daily_energy_j"], w["daily_energy_j"])):
            t.max_rel_err = max(t.max_rel_err, rel_err(a, b))
            t.check(close(a, b), f"{where}: day {d} energy")
    t.check(len(got["scenarios"]) == len(want["scenarios"]), "scenario count")
    for a, b in zip(got["bml_vs_lower_pct"], want["bml_vs_lower_pct"]):
        t.max_rel_err = max(t.max_rel_err, rel_err(a, b))
        t.check(close(a, b), "BML vs lower bound statistics")
    energy = {s["name"]: s["total_energy_j"] for s in got["scenarios"]}
    order = ["LowerBound Theoretical", "Offline Optimal", "Big-Medium-Little",
             "UpperBound PerDay", "UpperBound Global"]
    for lo, hi in zip(order, order[1:]):
        t.check(energy[lo] <= energy[hi] * (1 + TOL), f"{lo} above {hi}")
    return t
