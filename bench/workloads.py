"""The benchmark's workloads: which ``extremis`` commands each one runs."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` names inputs as ``{table}`` placeholders."""

    name: str
    argv: tuple[str, ...]

    def command(self, tables: dict[str, Path], seed: int, out: Path) -> list[str]:
        argv = [a.format(**{k: str(p) for k, p in tables.items()}) for a in self.argv]
        return argv + ["--seed", str(seed), "--out", str(out)]


POT = (
    Op("fit-threshold", ("fit-threshold", "--input", "{pot}", "--response", "y",
                         "--tau", "0.95")),
    Op("fit-gpd", ("fit-gpd", "--input", "{pot}", "--response", "y",
                   "--sigma-covariates", "x1,x2")),
    Op("task1", ("task1", "--input", "{pot}", "--response", "y",
                 "--sigma-covariates", "x1,x2", "--n-draws", "1000")),
    Op("cv-score", ("cv-score", "--input", "{pot}", "--response", "y", "--models",
                    "sigma:&xi:;sigma:x1,x2&xi:;sigma:x1,x2,x3,x4,x5,x6&xi:x1",
                    "--repeats", "6", "--n-draws", "400")),
    Op("return-level", ("return-level", "--input", "{pot}", "--response", "y",
                        "--T", "200", "--ny", "300")),
    Op("task2", ("task2", "--input", "{pot}", "--response", "y",
                 "--bootstrap", "bayesian")),
)

PANEL = (
    Op("cluster", ("cluster", "--input", "{panel}", "--margins", "gumbel", "--k", "5")),
    Op("task4", ("task4", "--input", "{panel}", "--margins", "gumbel", "--k", "5")),
)

C12_GROUPS = "0,1,2,3,4,5|6,7,8,9,10,11"

JOINT = (
    Op("task3", ("task3", "--input", "{t3}")),
    Op("mgpd-fit-logistic", ("mgpd", "fit", "--input", "{t5}", "--family", "logistic")),
    Op("mgpd-fit-hr", ("mgpd", "fit", "--input", "{t5}", "--family", "hr")),
    Op("mgpd-prob-hr", ("mgpd", "prob", "--input", "{t5}", "--family", "hr",
                        "--level-quantile", "0.999")),
    Op("simulate-logistic-min", ("simulate", "--family", "logistic", "--dim", "5",
                                 "--functional", "min", "--u", "1,2,1.5,3,1.2",
                                 "--n", "1000000")),
    Op("simulate-hr-sum", ("simulate", "--family", "hr", "--dim", "5",
                           "--functional", "sum", "--n", "200000")),
    Op("condex-prob2", ("condex", "prob2", "--input", "{c12}", "--groups", C12_GROUPS,
                        "--s1", "0.99667", "--s2", "0.96", "--level-is-quantile")),
)

WORKLOADS = {"pot": POT, "panel": PANEL, "joint": JOINT}


def op_seeds(seed: int, n_ops: int) -> list[int]:
    """The ``--seed`` of each op, derived from the workload seed."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=(99,))
    return [int(s) for s in state.generate_state(n_ops)]
