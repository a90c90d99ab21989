"""End-to-end MapReduce jobs over the simulated PNM node.

A :class:`MapReduceJob` shards a dataset across cluster nodes, runs the Map
+ partial Reduce of one representative node on the cycle simulator (the
paper does the same: "run the benchmarks to completion on one processor" -
BMLA behaviour is statistically identical across shards), performs the
*real* per-node and final reductions on the simulated states, and budgets
node/cluster time with the host and shuffle cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import run
from repro.config import DEFAULT_CONFIG, WORD_BYTES, SystemConfig
from repro.mapreduce.host import node_reduce_seconds
from repro.mapreduce.shuffle import ClusterModel
from repro.sim.driver import RunResult
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload


@dataclass
class NodeResult:
    """One node's simulated Map + partial Reduce."""

    run_result: RunResult
    reduced: dict
    map_seconds: float
    node_reduce_seconds: float

    @property
    def node_seconds(self) -> float:
        return self.map_seconds + self.node_reduce_seconds


@dataclass
class JobResult:
    """Whole-cluster MapReduce outcome."""

    node: NodeResult
    final: dict
    final_reduce_seconds: float
    n_nodes: int

    @property
    def total_seconds(self) -> float:
        """Nodes run in parallel; the final reduce follows."""
        return self.node.node_seconds + self.final_reduce_seconds


class MapReduceJob:
    """One BMLA MapReduction over a (simulated) PNM cluster."""

    def __init__(
        self,
        workload: str | Workload,
        arch: str = "millipede",
        config: SystemConfig = DEFAULT_CONFIG,
        cluster: Optional[ClusterModel] = None,
    ):
        self.workload = get_workload(workload) if isinstance(workload, str) else workload
        self.arch = arch
        self.config = config
        self.cluster = cluster or ClusterModel()

    def execute(self, records_per_node: Optional[int] = None, seed: int = 0) -> JobResult:
        """Simulate one node, reduce for real, budget the cluster."""
        rr = run(self.arch, self.workload, config=self.config,
                 n_records=records_per_node, seed=seed)
        if self.arch == "multicore":
            threads = self.config.multicore.n_cores * self.config.multicore.n_threads
        else:
            threads = self.config.core.n_cores * self.config.core.n_threads
        threads *= self.config.n_processors

        reduce_s = node_reduce_seconds(self.workload.state_words, threads)
        node = NodeResult(
            run_result=rr,
            reduced=rr.reduced,
            map_seconds=rr.runtime_s,
            node_reduce_seconds=reduce_s,
        )

        # final reduce: every node contributes a statistically identical
        # shard; combining n identical reduced dicts scales the additive
        # fields, which we do for real on the representative node's output
        final = {}
        for key, value in rr.reduced.items():
            arr = np.asarray(value)
            if key == "elements":  # per-thread kept samples do not add
                final[key] = arr
            elif np.issubdtype(arr.dtype, np.integer):
                final[key] = arr * self.cluster.n_nodes
            else:
                final[key] = arr * float(self.cluster.n_nodes)

        state_bytes = self.workload.state_words * WORD_BYTES
        final_s = self.cluster.final_reduce_seconds(state_bytes)
        return JobResult(
            node=node,
            final=final,
            final_reduce_seconds=final_s,
            n_nodes=self.cluster.n_nodes,
        )
