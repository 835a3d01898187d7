"""Per-layer attribution of cProfile statistics to the program's modules.

The profiler attaches from outside the program: it wraps no function and
sets no attribute. Each program function keeps its own self time. The self
time of a function outside the program (numpy, the standard library,
dataclass-generated code) is credited to the nearest enclosing program
frame. cProfile records the self time of each caller -> callee edge, so a
library function called directly from the program is credited exactly;
when a library function is reached through other library functions, its
time is split among their program callers in proportion to the cumulative
time of each call edge.

`em` is split by function name (EM_PARTS). A function named there that no
longer exists leaves its metric unmeasured (None) instead of failing.
"""

from __future__ import annotations

import os
import pstats
import re
from collections import defaultdict

MODULES = ("cli", "dataio", "basis", "fpca", "em", "select", "simbench")

EM_PARTS = {
    "init": ("initialize", "_kmeans_once"),
    "estep": ("_log_joint", "e_step"),
    "mstep": (
        "_mean_update_for", "_individual_update", "_variable_update", "_group_update",
        "_soft_threshold", "_variances", "update_variances", "unpenalized_means",
        "update_means_individual", "update_means_variable", "update_means_group",
    ),
}

# (metric, module, function): call counts read from the profile
CALL_COUNTS = (
    ("basis.gram_calls", "basis", "gram_matrix"),
    ("basis.coef_fit_calls", "basis", "fit_coefficients"),
    ("em.init_calls", "em", "initialize"),
    ("em.kmeans_runs", "em", "_kmeans_once"),
    ("em.fits", "em", "run_em"),
    ("em.attempts", "em", "_em_attempt"),
    ("em.estep_calls", "em", "_log_joint"),
    ("select.grid_points", "select", "_evaluate_point"),
    ("simbench.replicates", "simbench", "_run_replicate"),
)

TIME_METRICS = (
    "cli.self_s", "dataio.read_s", "dataio.write_s", "basis.self_s", "fpca.self_s",
    "select.self_s", "simbench.self_s", "em.init_s", "em.estep_s", "em.mstep_s", "em.loop_s",
)


class Profile:
    """Merged cProfile statistics of one or more CLI calls."""

    def __init__(self, paths, program_dir):
        self.stats = pstats.Stats(*paths).stats
        self.program_dir = os.path.realpath(program_dir) + os.sep
        self._shares = {}
        self._modules = {}

    def module_of(self, func) -> str | None:
        """The program module defining func, or None for code outside the program."""
        filename = func[0]
        if filename not in self._modules:
            real = os.path.realpath(filename) if os.path.exists(filename) else filename
            inside = real.startswith(self.program_dir)
            self._modules[filename] = os.path.splitext(os.path.basename(real))[0] if inside else None
        return self._modules[filename]

    def _program_shares(self, func, visiting) -> dict:
        """Share of func's time under each nearest enclosing program frame."""
        if self.module_of(func) is not None:
            return {func: 1.0}
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4] if func in self.stats else {}
        edges = [(c, v[3]) for c, v in callers.items() if c not in visiting]
        total = sum(ct for _, ct in edges)
        shares = defaultdict(float)
        if not edges or total <= 0:
            shares[None] = 1.0
        else:
            visiting = visiting | {func}
            for caller, ct in edges:
                for frame, share in self._program_shares(caller, visiting).items():
                    shares[frame] += share * ct / total
        self._shares[func] = dict(shares)
        return self._shares[func]

    def self_times(self) -> dict:
        """Self seconds per program function, library time folded in."""
        credit = defaultdict(float)
        for func, (_, _, tt, _, callers) in self.stats.items():
            if self.module_of(func) is not None:
                credit[func] += tt
                continue
            attributed = 0.0
            for caller, edge in callers.items():
                edge_tt = edge[2]
                attributed += edge_tt
                for frame, share in self._program_shares(caller, {func}).items():
                    credit[frame] += edge_tt * share
            credit[None] += max(tt - attributed, 0.0)
        return credit

    def calls(self, module, name) -> int:
        return sum(v[1] for f, v in self.stats.items() if f[2] == name and self.module_of(f) == module)

    def edge_calls(self, module, callee, caller) -> int:
        return sum(
            edge[1]
            for f, v in self.stats.items() if f[2] == callee and self.module_of(f) == module
            for c, edge in v[4].items() if c[2] == caller and self.module_of(c) == module
        )


def defines(program_dir, module, name) -> bool:
    """Whether the program's source still defines function `name` in `module`."""
    try:
        with open(os.path.join(program_dir, module + ".py")) as fh:
            source = fh.read()
    except FileNotFoundError:
        return False
    return re.search(rf"^\s*def {re.escape(name)}\(", source, re.M) is not None


def _em_part(name):
    for part, names in EM_PARTS.items():
        if name in names:
            return part
    return "loop"


def layer_metrics(profile: Profile, program_dir) -> dict:
    """Per-layer self times and call counts of one profile; None marks a
    metric whose functions the program no longer defines."""
    times = defaultdict(float)
    for func, seconds in profile.self_times().items():
        module = profile.module_of(func) if func is not None else None
        if module == "em":
            times[f"em.{_em_part(func[2])}_s"] += seconds
        elif module == "dataio":
            name = func[2]
            reads = name.startswith("read_") or name.endswith("_from_json")
            times["dataio.read_s" if reads else "dataio.write_s"] += seconds
        elif module in MODULES:
            times[f"{module}.self_s"] += seconds
    out = {}
    for metric in TIME_METRICS:
        part = metric[3:-2] if metric.startswith("em.") else "loop"
        measured = part == "loop" or any(defines(program_dir, "em", f) for f in EM_PARTS[part])
        out[metric] = times.get(metric, 0.0) if measured else None
    for metric, module, func in CALL_COUNTS:
        out[metric] = profile.calls(module, func) if defines(program_dir, module, func) else None
    if defines(program_dir, "em", "_variances") and defines(program_dir, "em", "_em_attempt"):
        out["em.iterations"] = profile.edge_calls("em", "_variances", "_em_attempt")
    else:
        out["em.iterations"] = None
    fits, attempts = out["em.fits"], out["em.attempts"]
    if fits is None or attempts is None:
        out["em.attempts_per_fit"] = None
    else:
        out["em.attempts_per_fit"] = attempts / fits if fits else 0.0
    return out
