"""SHAKE / RATTLE holonomic distance constraints.

The Rhodopsin benchmark adds SHAKE constraints (Andersen, 1983) to hold
rigid bond lengths and angles — in a real all-atom run the waters'
O-H bonds and H-O-H angle, which lets the 2 fs timestep survive.  The
paper's Section 6 notes that SHAKE has *no GPU implementation* in the
reference GPU package, leaving the CPU in charge of the Modify task;
our GPU executor models exactly that.

An H-O-H angle constraint is expressed as a third distance constraint
between the two hydrogens, so everything reduces to pair distances.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.kernels import KernelClient

__all__ = ["ShakeConstraints"]


class ShakeConstraints(KernelClient):
    """Iterative SHAKE position + RATTLE velocity constraint solver.

    The per-iteration corrections scatter onto atoms through the kernel
    backend's ``scatter_add`` (bound by the owning Simulation).

    Parameters
    ----------
    pairs:
        ``(M, 2)`` atom-index pairs to constrain.
    distances:
        Target distance per pair.
    tolerance:
        Relative convergence tolerance on ``|r^2 - d^2| / d^2``.
    max_iterations:
        Iteration cap; exceeded only for pathological configurations.
    """

    def __init__(
        self,
        pairs: np.ndarray,
        distances: np.ndarray,
        *,
        tolerance: float = 1e-8,
        max_iterations: int = 200,
    ) -> None:
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.distances = np.asarray(distances, dtype=float).reshape(-1)
        if len(self.distances) != len(self.pairs):
            raise ValueError("one target distance per constrained pair required")
        if np.any(self.distances <= 0):
            raise ValueError("constraint distances must be positive")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.last_iterations = 0

    @property
    def n_constraints(self) -> int:
        return len(self.pairs)

    def state_dict(self) -> dict:
        """SHAKE is stateless across steps; only the iteration diagnostic
        (exported to metrics) survives a checkpoint."""
        return {"last_iterations": self.last_iterations}

    def load_state_dict(self, state: dict) -> None:
        self.last_iterations = int(state.get("last_iterations", 0))

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous ``i`` / ``j`` index columns (scatter-ready)."""
        return (
            np.ascontiguousarray(self.pairs[:, 0]),
            np.ascontiguousarray(self.pairs[:, 1]),
        )

    # ------------------------------------------------------------------
    def apply_positions(
        self, system: AtomSystem, reference_positions: np.ndarray, dt: float
    ) -> None:
        """SHAKE: project post-drift positions back onto the constraints.

        ``reference_positions`` are the pre-drift coordinates whose bond
        vectors define the constraint directions (the classic SHAKE
        linearization).  Velocities receive the matching correction so
        the half-step kinetic state stays consistent.
        """
        i, j = self._columns()
        scatter_add = self.backend.scatter_add
        box = system.box
        d2 = self.distances**2
        inv_mi = 1.0 / system.masses[i]
        inv_mj = 1.0 / system.masses[j]
        # The projection iterates to a relative tolerance (1e-8 by
        # default) that float32 state cannot represent, so narrow
        # storage modes solve on float64 working copies and round once
        # at write-back — the same "constraints stay in double" split
        # the reference CPU package makes.
        upcast = system.positions.dtype != np.float64
        positions = (
            system.positions.astype(np.float64) if upcast else system.positions
        )
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        reference = np.asarray(reference_positions, dtype=np.float64)
        ref_dr = box.minimum_image(reference[i] - reference[j])
        # Loop invariants, hoisted without changing any rounding.
        tolerance = self.tolerance * d2
        two_inv_m = 2.0 * (inv_mi + inv_mj)
        neg_inv_mi = -inv_mi[:, None]
        inv_mj_col = inv_mj[:, None]

        for iteration in range(1, self.max_iterations + 1):
            dr = box.minimum_image(positions[i] - positions[j])
            r2 = np.einsum("ij,ij->i", dr, dr)
            diff = r2 - d2
            if np.all(np.abs(diff) <= tolerance):
                self.last_iterations = iteration - 1
                if upcast:
                    system.positions[...] = positions
                    system.velocities[...] = velocities
                return
            # First-order Lagrange multiplier along the reference bond.
            denom = two_inv_m * np.einsum("ij,ij->i", ref_dr, dr)
            # A vanishing projection means the linearization broke down.
            safe = np.where(np.abs(denom) > 1e-12, denom, np.sign(denom) * 1e-12 + 1e-12)
            g = diff / safe
            corr = g[:, None] * ref_dr
            shift_i = neg_inv_mi * corr
            shift_j = inv_mj_col * corr
            scatter_add(positions, i, shift_i)
            scatter_add(positions, j, shift_j)
            if dt > 0:
                scatter_add(velocities, i, shift_i / dt)
                scatter_add(velocities, j, shift_j / dt)
        raise RuntimeError(
            f"SHAKE failed to converge in {self.max_iterations} iterations"
        )

    def apply_velocities(self, system: AtomSystem) -> None:
        """RATTLE: remove velocity components along the constraints."""
        i, j = self._columns()
        scatter_add = self.backend.scatter_add
        box = system.box
        inv_mi = 1.0 / system.masses[i]
        inv_mj = 1.0 / system.masses[j]
        # Same float64 working-copy treatment as apply_positions.
        upcast = system.velocities.dtype != np.float64
        positions = np.asarray(system.positions, dtype=np.float64)
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        # Positions stay fixed while RATTLE iterates: the bond geometry
        # and every factor built from it are loop invariants.
        dr = box.minimum_image(positions[i] - positions[j])
        r2 = np.einsum("ij,ij->i", dr, dr)
        tolerance = self.tolerance * r2
        r2_inv_m = r2 * (inv_mi + inv_mj)
        neg_inv_mi = -inv_mi[:, None]
        inv_mj_col = inv_mj[:, None]
        for iteration in range(1, self.max_iterations + 1):
            dv = velocities[i] - velocities[j]
            rv = np.einsum("ij,ij->i", dr, dv)
            # Converged when the radial relative velocity (units 1/time,
            # normalized by r^2) is below tolerance.
            if np.all(np.abs(rv) <= tolerance):
                self.last_iterations = iteration - 1
                if upcast:
                    system.velocities[...] = velocities
                return
            k = rv / r2_inv_m
            corr = k[:, None] * dr
            scatter_add(velocities, i, neg_inv_mi * corr)
            scatter_add(velocities, j, inv_mj_col * corr)
        raise RuntimeError(
            f"RATTLE failed to converge in {self.max_iterations} iterations"
        )

    # ------------------------------------------------------------------
    def max_violation(self, system: AtomSystem) -> float:
        """Largest relative constraint violation ``|r - d| / d``."""
        i = self.pairs[:, 0]
        j = self.pairs[:, 1]
        r = system.box.distance(system.positions[i], system.positions[j])
        return float(np.max(np.abs(r - self.distances) / self.distances))
