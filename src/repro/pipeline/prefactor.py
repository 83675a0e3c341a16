"""Retired: a unit's ledger factors its donor matrix (``UnitLedger.context``).

Kept only because ``perfbench/layers.py`` names this function as a layer.
"""

from repro.errors import PipelineError


def prefactor_unit_plan(*_args: object, **_kwargs: object) -> dict:
    raise PipelineError("prefactor_unit_plan is retired; see UnitLedger.context")
