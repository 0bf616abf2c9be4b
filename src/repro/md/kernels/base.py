"""Kernel-backend interface for the force-evaluation hot loop.

The paper's characterization (Table 1, Figure 3) shows the Pair and
Neigh tasks dominating MD wall-clock on every commodity platform, so
this engine isolates exactly the three primitives those tasks spend
their time in behind a small strategy interface:

* gathering fresh pair geometry from the stored neighbor list
  (:meth:`KernelBackend.current_pairs`),
* scattering per-pair vectors back onto per-atom arrays
  (:meth:`KernelBackend.accumulate_pair_forces`), and
* scattering arbitrary per-pair scalars/vectors (EAM electron
  densities, granular contact torques — :meth:`KernelBackend.scatter_add`).

A few optional primitives let a backend take over a whole loop when it
can (the native neighbor build, the fused Tersoff pass); their default
``None`` keeps the caller on its numpy path.

Backends must be bit-compatible in *math* (same formulas, same pair
set) but are free to reorder summations and reuse scratch storage; the
backend-equivalence tests pin the reference and optimized backends
together to 1e-12 on forces, energy and virial for every pair style.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.md.precision import DOUBLE_POLICY, PrecisionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.md.atoms import AtomSystem
    from repro.md.neighbor import NeighborList
    from repro.md.potentials.tersoff import TersoffParameters

__all__ = ["KernelBackend"]


class KernelBackend(abc.ABC):
    """Strategy object providing the Pair-task inner-loop primitives."""

    #: Registry key (``numpy_ref``, ``numpy_fast``, ...).
    name: str = "abstract"

    #: Precision policy the backend evaluates under, installed through
    #: :meth:`set_policy` by the simulation (or a parallel worker).
    #: Backends are free to ignore it — ``numpy_ref`` does, staying a
    #: pure float64 oracle in every mode.
    policy: PrecisionPolicy = DOUBLE_POLICY

    def set_policy(self, policy: PrecisionPolicy) -> None:
        """Install the precision policy (may invalidate scratch)."""
        self.policy = policy

    @abc.abstractmethod
    def current_pairs(
        self,
        system: "AtomSystem",
        neighbors: "NeighborList",
        cutoff: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pairs currently within ``cutoff`` with fresh geometry.

        Returns ``(i, j, dr, r)`` exactly like
        :meth:`repro.md.neighbor.NeighborList.current_pairs`.
        """

    @abc.abstractmethod
    def scatter_add(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray
    ) -> None:
        """``out[index[k]] += values[k]`` for 1-D or ``(M, 3)`` values."""

    def scatter_add_sorted(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray
    ) -> None:
        """:meth:`scatter_add` for a *non-decreasing* ``index``.

        The parallel engine's directed rows are stored sorted by owning
        atom, which lets a backend collapse the scatter into a segmented
        reduction over contiguous runs.  The summation order within each
        segment must stay input order (bitwise-compatible with the
        generic scatter); this default just delegates.
        """
        self.scatter_add(out, index, values)

    @abc.abstractmethod
    def accumulate_pair_forces(
        self,
        forces: np.ndarray,
        i: np.ndarray,
        j: np.ndarray,
        fvec: np.ndarray,
    ) -> None:
        """Scatter ``+fvec`` onto rows ``i`` and ``-fvec`` onto rows ``j``."""

    def accumulate_scaled_pair_forces(
        self,
        forces: np.ndarray,
        i: np.ndarray,
        j: np.ndarray,
        dr: np.ndarray,
        f_over_r: np.ndarray,
    ) -> None:
        """Scatter ``f_over_r[k] * dr[k]`` onto ``i``/``j`` rows.

        This is the analytic-potential hot path (``f_vec = f_over_r *
        dr``); keeping it a distinct primitive lets a backend fuse the
        scaling into the scatter instead of materializing the ``(M, 3)``
        force-vector array.
        """
        self.accumulate_pair_forces(forces, i, j, f_over_r[:, None] * dr)

    def neighbor_pairs(
        self, positions: np.ndarray, box, rc: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Optional native half-pair build for the Neigh task.

        A backend that can bin-and-filter faster than the numpy
        cell-list build returns the ``(i, j)`` half pairs here; the
        result must reproduce :func:`repro.md.neighbor.
        cell_list_half_pairs` exactly — same pair set *and* the same
        orientations, since downstream CSR packing canonicalizes order
        but not which atom is ``i``.  Returning ``None`` (the default)
        keeps the caller on the numpy path, which is also the escape
        hatch for inputs a backend does not cover (e.g. float32
        positions under the SINGLE policy).
        """
        return None

    def count_pairs_within(
        self,
        positions: np.ndarray,
        box,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        rc: float,
    ) -> int | None:
        """Optional native count of stored pairs within ``rc``.

        Used by the neighbor list's per-build statistics (the Table-2
        neighbors-per-atom figure), which otherwise re-derives the full
        minimum-image geometry in numpy just to count.  The count must
        be identical to ``r2 < rc*rc`` over the numpy geometry (the
        compiled provider reuses its bitwise ``pair_geom`` kernel).
        ``None`` (the default) keeps the caller on the numpy path.
        """
        return None

    def tersoff_forces(
        self,
        system: "AtomSystem",
        i: np.ndarray,
        j: np.ndarray,
        dr: np.ndarray,
        r: np.ndarray,
        params: "TersoffParameters",
    ) -> tuple[float, float] | None:
        """Optional fused Tersoff evaluation over CSR-ordered pairs.

        ``(i, j, dr, r)`` are the directed pairs ``current_pairs``
        returned (sorted by ``i``) and ``params`` the potential's
        :class:`~repro.md.potentials.tersoff.TersoffParameters`.  A
        backend that evaluates the bond-order forces itself accumulates
        them into ``system.forces`` and returns ``(energy, virial)``;
        ``None`` keeps :class:`~repro.md.potentials.tersoff.Tersoff` on
        its numpy triplet path.  The default forwards to ``self.inner``
        when this backend wraps another one (the convention
        :func:`repro.md.kernels.backend_spec` unwraps), so a delegating
        wrapper that does not name this primitive still reaches the
        native kernel; a plain backend returns ``None``.
        """
        inner = getattr(self, "inner", None)
        if inner is None or inner is self:
            return None
        return inner.tersoff_forces(system, i, j, dr, r, params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
