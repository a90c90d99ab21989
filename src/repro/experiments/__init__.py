"""Experiment harness: regenerates every table and figure of the paper's
evaluation (section VI).

Each experiment module exposes ``run_experiment(config, n_records,
options, ...)`` (``options`` an :class:`~repro.sim.options.ExecOptions`;
``store``/``shard``/``resume`` run it as a persistent campaign)
returning a result object with a ``rows()`` table and a ``markdown()``
report section; the CLI (``python -m repro.experiments``) runs them
individually or all together and assembles EXPERIMENTS.md.
"""

from repro.experiments import fig3, fig4, fig5, fig6, fig7, table3, table4

EXPERIMENTS = {
    "table3": table3,
    "table4": table4,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
}

__all__ = ["EXPERIMENTS"]
