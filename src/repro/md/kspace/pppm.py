"""Particle-particle particle-mesh solver (``kspace_style pppm``).

The long-range method the Rhodopsin benchmark uses (Table 2).  The
implementation follows Hockney & Eastwood:

1. assign point charges to a regular grid with order-``p`` cardinal
   B-spline weights (LAMMPS default order 5),
2. 3-D FFT of the charge grid,
3. multiply by the (Gaussian-screened) Coulomb Green's function,
4. obtain fields by ik differentiation and three inverse FFTs,
5. interpolate fields back to the particles with the same weights.

Turning the O(N^2) convolution into a pointwise product in frequency
space is what reduces the long-range complexity to O(N log N) (Section 2
of the paper); the grid size is chosen from the relative error threshold
by :func:`repro.md.kspace.error.select_grid`, so tightening the
threshold from ``1e-4`` to ``1e-7`` grows the FFT work exactly as in the
paper's Section 7 study.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as _scipy_fft

from repro.md.atoms import AtomSystem
from repro.md.kspace.base import KSpaceSolver
from repro.md.kspace.error import select_grid
from repro.md.potentials.base import ForceResult

__all__ = ["PPPM", "bspline_weights"]


def bspline_weights(frac: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Charge-assignment weights for each particle along one dimension.

    Parameters
    ----------
    frac:
        Particle positions in grid units (floats in ``[0, n_grid)``).
    order:
        Assignment order ``p`` (stencil width in grid points).

    Returns
    -------
    (nodes, weights):
        ``nodes`` is an ``(N, p)`` int array of grid indices (unwrapped)
        and ``weights`` the matching B-spline weights; each row sums to 1
        by the partition-of-unity property (tested).
    """
    frac = np.asarray(frac)
    if frac.dtype not in (np.float32, np.float64):
        frac = frac.astype(np.float64)
    p = int(order)
    # The p nearest nodes are the integers in (g - p/2, g + p/2).
    n0 = np.floor(frac - 0.5 * p).astype(np.int64) + 1
    offsets = np.arange(p)
    nodes = n0[:, None] + offsets[None, :]
    # Weight of node n is M_p evaluated at (g - n + p/2).
    x = (frac[:, None] - nodes + 0.5 * p).astype(frac.dtype)
    # Iterative evaluation of the cardinal B-spline via its recurrence:
    # M_1 = indicator([0,1)); M_k(x) = (x M_{k-1}(x) + (k-x) M_{k-1}(x-1))/(k-1).
    # We track M_{k-1} at the p stencil abscissae; evaluating at x-1 is a
    # plain re-evaluation since abscissae differ per node.
    def m_k(xv: np.ndarray, k: int) -> np.ndarray:
        if k == 1:
            # astype (not np.where with python-float branches) keeps the
            # indicator in the input dtype.
            return ((xv >= 0.0) & (xv < 1.0)).astype(xv.dtype)
        return (xv * m_k(xv, k - 1) + (k - xv) * m_k(xv - 1.0, k - 1)) / (k - 1)

    weights = m_k(x, p)
    return nodes, weights


class PPPM(KSpaceSolver):
    """Particle-mesh Ewald-split Coulomb solver.

    Parameters
    ----------
    accuracy:
        Relative RMS force-error threshold (the paper's ``Kspace error``
        row: ``1e-4`` baseline, swept to ``1e-7`` in Section 7).
    cutoff:
        Real-space Coulomb cutoff of the companion pair style; used to
        derive ``alpha``.
    order:
        B-spline assignment order (LAMMPS default 5).
    grid / alpha:
        Explicit overrides for tests; normally derived from ``accuracy``.
    """

    def __init__(
        self,
        accuracy: float = 1e-4,
        cutoff: float = 10.0,
        coulomb_constant: float = 1.0,
        *,
        order: int = 5,
        grid: tuple[int, int, int] | None = None,
        alpha: float | None = None,
        exclusions: np.ndarray | None = None,
    ) -> None:
        if not 0 < accuracy < 1:
            raise ValueError("accuracy must be in (0, 1)")
        self.accuracy = float(accuracy)
        self.cutoff = float(cutoff)
        self.order = int(order)
        self._grid_override = grid
        self._alpha_override = alpha
        self.grid: tuple[int, int, int] | None = None
        self._green: np.ndarray | None = None
        self._kcomp: list[np.ndarray] | None = None
        self._setup_for: tuple | None = None
        # alpha finalized at setup; seed the base class with a placeholder.
        super().__init__(
            alpha if alpha is not None else 1.0, coulomb_constant, exclusions
        )

    # ------------------------------------------------------------------
    def setup(self, system: AtomSystem) -> None:
        """Choose alpha and grid for this system and precompute tables."""
        qsqsum = float(np.sum(system.charges**2))
        lengths = system.box.lengths
        alpha, grid = select_grid(
            self.accuracy,
            lengths,
            self.cutoff,
            system.n_atoms,
            qsqsum if qsqsum > 0 else 1.0,
            order=self.order,
        )
        if self._alpha_override is not None:
            alpha = float(self._alpha_override)
        if self._grid_override is not None:
            grid = tuple(int(g) for g in self._grid_override)  # type: ignore[assignment]
        self.alpha = alpha
        self.grid = grid  # type: ignore[assignment]

        nx, ny, nz = self.grid  # type: ignore[misc]
        two_pi = 2.0 * math.pi
        kx = two_pi * np.fft.fftfreq(nx, d=1.0 / nx) / lengths[0]
        ky = two_pi * np.fft.fftfreq(ny, d=1.0 / ny) / lengths[1]
        kz = two_pi * np.fft.fftfreq(nz, d=1.0 / nz) / lengths[2]
        kxg, kyg, kzg = np.meshgrid(kx, ky, kz, indexing="ij")
        k2 = kxg**2 + kyg**2 + kzg**2
        with np.errstate(divide="ignore", invalid="ignore"):
            green = (
                4.0
                * math.pi
                * self.coulomb_constant
                / system.box.volume
                * np.exp(-k2 / (4.0 * alpha**2))
                / k2
            )
        green[0, 0, 0] = 0.0  # neutral system: drop k = 0
        # Deconvolve the B-spline charge-assignment smearing: both the
        # spread and the interpolation multiply the true density by the
        # assignment function's transform U(k) = prod_d sinc^p(k_d h_d/2),
        # so the influence function divides by U(k)^2 (Hockney-Eastwood).
        hx, hy, hz = lengths / np.array([nx, ny, nz])
        u = np.ones_like(green)
        for kc, h in ((kxg, hx), (kyg, hy), (kzg, hz)):
            x = 0.5 * kc * h
            s = np.where(np.abs(x) > 1e-12, np.sin(x) / np.where(x == 0, 1.0, x), 1.0)
            u = u * s**self.order
        green = green / np.maximum(u * u, 1e-10)
        self._green = green
        self._kcomp = [kxg, kyg, kzg]
        self._setup_for = (system.n_atoms, tuple(lengths), qsqsum)

    def _ensure_setup(self, system: AtomSystem) -> None:
        key = (
            system.n_atoms,
            tuple(system.box.lengths),
            float(np.sum(system.charges**2)),
        )
        if self._setup_for != key:
            self.setup(system)

    @property
    def grid_points(self) -> int:
        """Total number of mesh points (the k-space work measure)."""
        if self.grid is None:
            return 0
        return int(np.prod(self.grid))

    # ------------------------------------------------------------------
    def _assign_charges(
        self, system: AtomSystem
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Spread charges onto the mesh; returns grid + per-dim stencils."""
        assert self.grid is not None
        ct = self.policy.compute_dtype
        dims = np.array(self.grid)
        positions = system.positions.astype(ct, copy=False)
        origin = system.box.origin.astype(ct, copy=False)
        lengths = system.box.lengths.astype(ct, copy=False)
        frac = (positions - origin) / lengths * dims.astype(ct)
        nodes_list = []
        weights_list = []
        for d in range(3):
            nodes, weights = bspline_weights(frac[:, d], self.order)
            nodes_list.append(np.mod(nodes, dims[d]))
            weights_list.append(weights)
        # Spread into the accumulate dtype: each f32 addend is promoted
        # into the f64 mesh, giving MIXED its f64 accumulation.  The mesh
        # is scattered as a flat view, index (na * ny + nb) * nz + nc.
        rho = np.zeros(self.grid, dtype=self.policy.accumulate_dtype)
        flat_rho = rho.reshape(-1)
        _, ny, nz = self.grid
        scatter_add = self.backend.scatter_add
        q = system.charges.astype(ct, copy=False)
        p = self.order
        for a in range(p):
            wa = weights_list[0][:, a]
            na = nodes_list[0][:, a]
            for b in range(p):
                wb = weights_list[1][:, b]
                row = (na * ny + nodes_list[1][:, b]) * nz
                for c in range(p):
                    w = q * wa * wb * weights_list[2][:, c]
                    scatter_add(flat_rho, row + nodes_list[2][:, c], w)
        return rho, nodes_list, weights_list

    def compute(self, system: AtomSystem) -> ForceResult:
        self.check_neutrality(system)
        self._ensure_setup(system)
        assert self._green is not None and self._kcomp is not None
        tracer = self.tracer

        # Mesh tables are cached in float64; cast to the compute dtype at
        # use.  float32 goes through scipy.fft (dtype-preserving,
        # complex64 transforms); float64 keeps np.fft so the DOUBLE path
        # stays bit-for-bit what it was.
        ct = self.policy.compute_dtype
        fftn = _scipy_fft.fftn if ct == np.float32 else np.fft.fftn
        ifftn = _scipy_fft.ifftn if ct == np.float32 else np.fft.ifftn

        with tracer.span("kspace.assign", "kspace"):
            rho, nodes_list, weights_list = self._assign_charges(system)
        with tracer.span("kspace.fft_forward", "kspace"):
            rho_hat = fftn(rho.astype(ct, copy=False))

        # Energy: (1/2) sum_k G(k) |rho_hat|^2  (G folds 4 pi C / V k^2).
        green = self._green.astype(ct, copy=False)
        kcomp = [kc.astype(ct, copy=False) for kc in self._kcomp]
        energy = 0.5 * float(
            np.sum(green * np.abs(rho_hat) ** 2, dtype=np.float64)
        )

        # Virial trace (isotropic): sum_k E_k (1 - k^2 / 2 alpha^2).
        k2 = kcomp[0] ** 2 + kcomp[1] ** 2 + kcomp[2] ** 2
        virial = 0.5 * float(
            np.sum(
                green * np.abs(rho_hat) ** 2 * (1.0 - k2 / (2.0 * self.alpha**2)),
                dtype=np.float64,
            )
        )

        # Fields by ik differentiation: E_c = -ifft(i k_c G rho_hat).
        phi_hat = green * rho_hat
        n_total = self.grid_points
        fields = []
        with tracer.span("kspace.fft_inverse", "kspace"):
            for kc in kcomp:
                field = -np.real(ifftn(1j * kc * phi_hat)) * n_total
                fields.append(field)

        # Interpolate fields back to particles with the same stencil.
        p = self.order
        n_atoms = system.n_atoms
        efield = np.zeros((n_atoms, 3), dtype=ct)
        with tracer.span("kspace.interpolate", "kspace"):
            for a in range(p):
                wa = weights_list[0][:, a]
                na = nodes_list[0][:, a]
                for b in range(p):
                    wab = wa * weights_list[1][:, b]
                    nb = nodes_list[1][:, b]
                    for c in range(p):
                        w = wab * weights_list[2][:, c]
                        idx = (na, nb, nodes_list[2][:, c])
                        for comp in range(3):
                            efield[:, comp] += w * fields[comp][idx]
            system.forces += system.charges.astype(ct, copy=False)[:, None] * efield

        result = ForceResult(
            energy + self.self_energy(system), virial, self.grid_points
        )
        with tracer.span("kspace.corrections", "kspace"):
            result += self.excluded_pair_correction(system)
        return result
