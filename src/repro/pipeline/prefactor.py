"""Cross-unit batched fit planning (the fit half of the batched engine).

Every treated unit in a study screens the same donor pool, so their
donor matrices usually share one ``(T, J)`` shape.  Instead of letting
each fit impute, SVD-factor, and leave-one-out-decompose its matrix
privately — one LAPACK dispatch per unit plus a leave-one-out sweep
per placebo batch — this module hoists that work into a **planning
pass** in the parent:

- :func:`prefactor_unit_plan` builds each planned unit's donor matrix
  from the donors the plan already chose (``_UnitTask.donors``), groups
  the matrices by shape, and factors each group with the stacked
  :func:`~repro.synthcontrol.robust.factor_donor_matrices` — one 3-D
  gufunc SVD per shape group instead of one 2-D SVD per unit — then
  runs each unit's leave-one-out sweep
  (:func:`~repro.synthcontrol.robust.denoise_leave_one_out_many`).  The
  pass records one ``fits.prefactor`` span.
- The resulting :class:`UnitPrefactor` table, keyed by
  ``(scenario, unit)``, is installed in a per-process registry
  (:func:`set_active_prefactors`) for serial runs, or packed into
  shared-memory slabs (:func:`publish_prefactors`) that pooled workers
  attach zero-copy through a picklable :class:`PrefactorSlabs`.  The
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
from repro.pipeline.shm import SharedArrayRef, SharedFrameArena
from repro.synthcontrol.donor import Panel
from repro.synthcontrol.robust import (
    DonorFactorization,
    denoise_leave_one_out_many,
    factor_donor_matrices,
)

if TYPE_CHECKING:
    from repro.pipeline.study import _UnitTask

#: A prefactor's registry key: ``(scenario, unit)``.
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


# --------------------------------------------------------------------------
# Per-process registry: how a unit fit finds its unit's prefactor.
# The serial path installs the parent's table directly; pooled workers
# install a table rebuilt from shared-memory slabs in their initializer.

_ACTIVE: dict[PrefactorKey, UnitPrefactor] = {}


def set_active_prefactors(table: dict[PrefactorKey, UnitPrefactor]) -> None:
    """Install *table* as this process's active prefactor registry."""
    _ACTIVE.clear()
    _ACTIVE.update(table)


def clear_active_prefactors() -> None:
    """Empty the registry (idempotent); fits fall back to private SVDs."""
    _ACTIVE.clear()


def get_prefactor(key: PrefactorKey) -> UnitPrefactor | None:
    """The active prefactor for ``(scenario, unit)``, if the planning pass made one."""
    return _ACTIVE.get(key)


# --------------------------------------------------------------------------
# Shared-memory transport: the parent packs the table into a few big
# arena blocks (one set per shape group), workers attach them zero-copy.


@dataclass(frozen=True)
class _SlabGroup:
    """One shape group's stacked arrays plus per-unit metadata.

    The float payload lives in arena blocks (:class:`SharedArrayRef`
    fields); only names, shapes, unit keys, and integer sidecars ride
    in the pickle — a few hundred bytes per group however large the
    panel is.
    """

    units: tuple[PrefactorKey, ...]
    finite_counts: tuple[tuple[int, ...], ...]
    loo_ranks: tuple[tuple[int, ...], ...] | None
    filled: SharedArrayRef
    col_means: SharedArrayRef
    u: SharedArrayRef
    s: SharedArrayRef
    vt: SharedArrayRef
    loo: SharedArrayRef | None


@dataclass(frozen=True)
class PrefactorSlabs:
    """A picklable shared-memory image of a prefactor table."""

    groups: tuple[_SlabGroup, ...]

    def load(self) -> dict[PrefactorKey, UnitPrefactor]:
        """Attach every group's blocks and rebuild the per-unit table.

        Views are zero-copy slices of the slabs (memoised per process
        by the attach cache), so a worker's table costs one attach per
        block, not one array copy per unit.
        """
        table: dict[PrefactorKey, UnitPrefactor] = {}
        for group in self.groups:
            filled = group.filled.load()
            col_means = group.col_means.load()
            u = group.u.load()
            s = group.s.load()
            vt = group.vt.load()
            loo_slab = group.loo.load() if group.loo is not None else None
            for i, unit in enumerate(group.units):
                fact = DonorFactorization(
                    filled=filled[i],
                    col_means=col_means[i],
                    finite_counts=np.array(group.finite_counts[i], dtype=np.int64),
                    u=u[i],
                    s=s[i],
                    vt=vt[i],
                )
                loo: tuple[tuple[np.ndarray, int], ...] | None = None
                if loo_slab is not None and group.loo_ranks is not None:
                    loo = tuple(
                        (loo_slab[i, col], rank)
                        for col, rank in enumerate(group.loo_ranks[i])
                    )
                table[unit] = UnitPrefactor(fact=fact, loo=loo)
        return table


def publish_prefactors(
    table: dict[PrefactorKey, UnitPrefactor], arena: SharedFrameArena
) -> PrefactorSlabs:
    """Pack *table* into arena blocks for zero-copy worker attach.

    Units are regrouped by concrete array shapes — the donor-matrix
    shape and the leave-one-out batch length — and each group's
    factorizations stack into one block per field.  Integer sidecars
    (finite counts, kept ranks) travel in the pickle so the float
    blocks round-trip bit-exact without dtype games.
    """
    groups: dict[tuple[tuple[int, int], int], list[PrefactorKey]] = {}
    for unit, pf in table.items():
        shape = (pf.fact.n_times, pf.fact.n_donors)
        n_loo = len(pf.loo) if pf.loo is not None else 0
        groups.setdefault((shape, n_loo), []).append(unit)
    packed: list[_SlabGroup] = []
    for gi, (((n_times, n_donors), n_loo), units) in enumerate(groups.items()):
        g = len(units)
        k = len(table[units[0]].fact.s)
        filled = arena.allocate(f"prefactor.{gi}.filled", (g, n_times, n_donors))
        col_means = arena.allocate(f"prefactor.{gi}.col_means", (g, n_donors))
        u = arena.allocate(f"prefactor.{gi}.u", (g, n_times, k))
        s = arena.allocate(f"prefactor.{gi}.s", (g, k))
        vt = arena.allocate(f"prefactor.{gi}.vt", (g, k, n_donors))
        loo = (
            arena.allocate(
                f"prefactor.{gi}.loo", (g, n_loo, n_times, n_donors - 1)
            )
            if n_loo
            else None
        )
        finite_counts: list[tuple[int, ...]] = []
        loo_ranks: list[tuple[int, ...]] = []
        for i, unit in enumerate(units):
            pf = table[unit]
            filled[i] = pf.fact.filled
            col_means[i] = pf.fact.col_means
            u[i] = pf.fact.u
            s[i] = pf.fact.s
            vt[i] = pf.fact.vt
            finite_counts.append(tuple(int(c) for c in pf.fact.finite_counts))
            if n_loo and pf.loo is not None:
                for col, (denoised, _rank) in enumerate(pf.loo):
                    loo[i, col] = denoised  # type: ignore[index]
                loo_ranks.append(tuple(int(rank) for _d, rank in pf.loo))
        packed.append(
            _SlabGroup(
                units=tuple(units),
                finite_counts=tuple(finite_counts),
                loo_ranks=tuple(loo_ranks) if n_loo else None,
                filled=arena.ref(f"prefactor.{gi}.filled"),
                col_means=arena.ref(f"prefactor.{gi}.col_means"),
                u=arena.ref(f"prefactor.{gi}.u"),
                s=arena.ref(f"prefactor.{gi}.s"),
                vt=arena.ref(f"prefactor.{gi}.vt"),
                loo=arena.ref(f"prefactor.{gi}.loo") if n_loo else None,
            )
        )
    return PrefactorSlabs(groups=tuple(packed))


__all__ = [
    "UnitPrefactor",
    "PrefactorSlabs",
    "prefactor_unit_plan",
    "publish_prefactors",
    "set_active_prefactors",
    "clear_active_prefactors",
    "get_prefactor",
]
