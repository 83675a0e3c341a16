"""Cross-unit batched fit planning (the fit half of the batched engine).

Every treated unit in a study screens the same donor pool, so their
donor matrices usually share one ``(T, J)`` shape.  Instead of letting
each fit impute, SVD-factor, and leave-one-out-decompose its matrix
privately — one LAPACK dispatch per unit plus a leave-one-out sweep
per placebo batch — this module hoists that work into one **planning
pass** before the fits:

- :func:`prefactor_unit_plan` builds each planned unit's donor matrix
  from the donors the plan already chose (``_UnitTask.donors``), groups
  the matrices by shape, and factors each group with the stacked
  :func:`~repro.synthcontrol.robust.factor_donor_matrices` — one 3-D
  gufunc SVD per shape group instead of one 2-D SVD per unit — then
  runs each unit's leave-one-out sweep
  (:func:`~repro.synthcontrol.robust.denoise_leave_one_out_many`).  The
  pass records one ``fits.prefactor`` span.
- The resulting :class:`UnitPrefactor` table, keyed by
  ``(scenario, unit)``, is handed by its caller to every fit that reads
  it (:func:`~repro.pipeline.study.run_unit_task`); the
  fits run in the same process, so the table is never copied.  The
  batch study's scenario is ``""``; a campaign keys each scenario's
  units by its name, so scenarios that share unit labels never share a
  factorization.

Bit-identity is the invariant that makes this safe to enable by
default: the stacked SVD runs the same LAPACK routine on the same
bytes as the per-unit call, and a unit's leave-one-out panels depend
only on its own factorization, so a fit that reads its prefactor is
indistinguishable — to the last bit of every
:class:`~repro.pipeline.study.StudyRow` field — from one that factored
its own matrix.  A unit with an entirely-missing donor column is left
out of the table and factors privately, so the fit surfaces its error.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import span
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.robust import (
    DonorFactorization,
    denoise_leave_one_out_many,
    factor_donor_matrices,
)

if TYPE_CHECKING:
    from repro.pipeline.study import _UnitTask

#: A prefactor table's key: ``(scenario, unit)``.
PrefactorKey = tuple[str, str]


@dataclass(frozen=True)
class UnitPrefactor:
    """One unit's pre-computed de-noising work.

    Attributes
    ----------
    fact:
        The unit's donor-matrix factorization (imputation + thin SVD).
    loo:
        The leave-one-out ``(denoised, rank)`` batch the placebo loop
        needs, or ``None`` when the unit has too few donors (or too
        small a placebo cap) for leave-one-out work to exist.
    """

    fact: DonorFactorization
    loo: tuple[tuple[np.ndarray, int], ...] | None


def prefactor_unit_plan(
    panel: Panel, tasks: Sequence[_UnitTask]
) -> dict[PrefactorKey, UnitPrefactor]:
    """Batch-factor every robust task's donor matrix across units.

    Reads each task's donor matrix out of *panel* by the donor names
    the plan chose, then stacks same-shaped matrices into single gufunc
    SVD calls.  Units with an entirely-missing donor column are left
    to the real fit so its error message is the one surfaced.
    """
    with span("fits.prefactor") as sp:
        entries: list[tuple[_UnitTask, np.ndarray]] = []
        for task in tasks:
            if task.method != "robust":
                continue
            matrix = np.column_stack([panel.series(d) for d in task.donors])
            if np.isfinite(matrix).any(axis=0).all():
                entries.append((task, matrix))
        sp.set(
            n_units=len(entries),
            n_groups=len({matrix.shape for _task, matrix in entries}),
        )
        if not entries:
            return {}
        facts = factor_donor_matrices([matrix for _task, matrix in entries])
        # Leave-one-out batches only for tasks that would compute one
        # (>= 2 donors and a placebo cap above 1), keyed by the
        # (energy, cap) pair so mixed fit parameters cannot silently
        # share a threshold.
        loos: list[tuple[tuple[np.ndarray, int], ...] | None] = [None] * len(entries)
        loo_groups: dict[tuple[float, int | None], list[int]] = {}
        for i, (task, matrix) in enumerate(entries):
            j = matrix.shape[1]
            limit = j if task.max_placebos is None else min(int(task.max_placebos), j)
            if j >= 2 and limit > 1:
                energy = float(dict(task.fit_kwargs).get("energy", 0.99))  # type: ignore[arg-type]
                loo_groups.setdefault((energy, task.max_placebos), []).append(i)
        for (energy, max_placebos), members in loo_groups.items():
            batch = denoise_leave_one_out_many(
                [facts[i] for i in members], energy=energy, limit=max_placebos
            )
            for i, loo in zip(members, batch):
                loos[i] = loo
        return {
            (task.scenario, task.unit): UnitPrefactor(fact=facts[i], loo=loos[i])
            for i, (task, _matrix) in enumerate(entries)
        }


__all__ = ["PrefactorKey", "UnitPrefactor", "prefactor_unit_plan"]
