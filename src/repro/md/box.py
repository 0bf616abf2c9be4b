"""Orthogonal simulation box with periodic boundary conditions.

The box is the spatial container of an MD experiment (Section 2 of the
paper): every particle position lives inside it, and interactions across
its faces obey the minimum-image convention when the corresponding
dimension is periodic.  All five suite benchmarks use fully periodic
boxes except Chute, whose z dimension is bounded by a wall (the paper's
granular chute flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Box"]


def _as_floating(values: np.ndarray) -> np.ndarray:
    """Pass float32/float64 arrays through; promote anything else to f64.

    The box preserves the caller's floating dtype so a SINGLE-precision
    engine's geometry (wrapping, minimum image) runs entirely in
    float32 — at float64 every operation below is bitwise-identical to
    the historical always-f64 arithmetic.
    """
    values = np.asarray(values)
    if values.dtype == np.float32 or values.dtype == np.float64:
        return values
    return values.astype(np.float64)


@dataclass
class Box:
    """An axis-aligned orthogonal simulation box.

    Parameters
    ----------
    lengths:
        Edge lengths ``(Lx, Ly, Lz)``.  Must all be positive.
    periodic:
        Per-dimension periodicity flags.  Non-periodic dimensions are
        treated as fixed boundaries (used by the Chute benchmark, which
        has a bottom wall).
    origin:
        Lower corner of the box.  Defaults to the coordinate origin.
    """

    lengths: np.ndarray
    periodic: np.ndarray = field(default=None)  # type: ignore[assignment]
    origin: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=float).reshape(3).copy()
        if np.any(self.lengths <= 0.0):
            raise ValueError(f"box lengths must be positive, got {self.lengths}")
        if self.periodic is None:
            self.periodic = np.ones(3, dtype=bool)
        else:
            self.periodic = np.asarray(self.periodic, dtype=bool).reshape(3).copy()
        if self.origin is None:
            self.origin = np.zeros(3, dtype=float)
        else:
            self.origin = np.asarray(self.origin, dtype=float).reshape(3).copy()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def volume(self) -> float:
        """Volume of the box."""
        return float(np.prod(self.lengths))

    @property
    def upper(self) -> np.ndarray:
        """Upper corner of the box (``origin + lengths``)."""
        return self.origin + self.lengths

    def copy(self) -> "Box":
        return Box(self.lengths.copy(), self.periodic.copy(), self.origin.copy())

    # ------------------------------------------------------------------
    # Periodic wrapping
    # ------------------------------------------------------------------
    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Return ``positions`` wrapped into the primary box image.

        Only periodic dimensions are wrapped; non-periodic coordinates
        pass through unchanged (boundary enforcement for those is the
        job of wall fixes).
        """
        positions = _as_floating(positions)
        lengths = self.lengths.astype(positions.dtype, copy=False)
        origin = self.origin.astype(positions.dtype, copy=False)
        rel = positions - origin
        wrapped = rel - np.floor(rel / lengths) * lengths
        out = np.where(self.periodic, wrapped, rel) + origin
        return out

    def wrap_with_images(
        self, positions: np.ndarray, images: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Wrap ``positions`` and update per-atom image flags.

        ``images`` counts how many box lengths each atom has travelled in
        each dimension; LAMMPS keeps the same bookkeeping so unwrapped
        trajectories (needed e.g. for diffusion) remain reconstructable.
        """
        positions = _as_floating(positions)
        lengths = self.lengths.astype(positions.dtype, copy=False)
        origin = self.origin.astype(positions.dtype, copy=False)
        rel = positions - origin
        shift = np.floor(rel / lengths).astype(np.int64)
        shift = np.where(self.periodic, shift, 0)
        wrapped = positions - (shift * lengths).astype(positions.dtype)
        return wrapped, images + shift

    # ------------------------------------------------------------------
    # Minimum image
    # ------------------------------------------------------------------
    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors.

        Parameters
        ----------
        dr:
            Array of displacement vectors with trailing dimension 3.
        """
        dr = _as_floating(dr)
        lengths = self.lengths.astype(dr.dtype, copy=False)
        shift = np.round(dr / lengths)
        if not self.periodic.all():
            shift = np.where(self.periodic, shift, dr.dtype.type(0.0))
        return dr - shift * lengths

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distances between position arrays ``a`` and ``b``."""
        dr = self.minimum_image(np.asarray(a) - np.asarray(b))
        return np.sqrt(np.sum(dr * dr, axis=-1))

    # ------------------------------------------------------------------
    # Deformation (used by the NPT barostat)
    # ------------------------------------------------------------------
    def scale(self, factor: float | np.ndarray) -> None:
        """Scale box lengths in place about the box origin.

        ``factor`` may be a scalar (isotropic) or a length-3 array.
        """
        factor = np.asarray(factor, dtype=float)
        if np.any(factor <= 0):
            raise ValueError("box scale factor must be positive")
        self.lengths = self.lengths * factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        per = "".join("p" if p else "f" for p in self.periodic)
        return f"Box(lengths={self.lengths.tolist()}, periodic='{per}')"
