"""The ``compiled`` kernel backend: native-code Pair/Neigh hot loops.

On the paper's LJ benchmark the serial neighbor-list build and the pair
accumulate dominate the step (perfbench ``lj_32k``: ``task.Neigh_ms``
and ``task.Pair_ms``); both are scatter/filter loops numpy cannot fuse.  This backend runs them as
native code through a single provider: a C translation unit compiled on
first use with the system C compiler and bound via ``ctypes``
(:mod:`repro.md.kernels._cc_impl`).  Native today: pair geometry
(``current_pairs``), the scatters and pair-force accumulation, the
link-cell neighbor build and its pair count, and — under the DOUBLE
policy — the whole Tersoff triplet evaluation (``tersoff_forces``),
one fused pass per CSR row in place of numpy's ragged self-join.

Resolution is lazy (first instantiation) and controlled by
``REPRO_COMPILED_PROVIDER``: ``cc`` (the default, also when unset) or
``none`` to disable the backend; any other value leaves it unavailable.
The provider must pass a numerical smoke test that exercises each
entry point against the numpy backends — a missing compiler, a failed
build or a miscompiled kernel all demote the backend cleanly:
instantiating :class:`CompiledBackend` raises
:class:`BackendUnavailableError` with the reason, and
:func:`repro.md.kernels.get_backend` turns that into a one-time warning
plus a ``numpy_fast`` fallback, so ``REPRO_KERNEL_BACKEND=compiled`` is
always safe to set.

The backend subclasses :class:`NumpyFastBackend`: any call whose dtype
combination or memory layout the provider does not cover falls through
to the numpy implementation, so correctness never depends on the
native path being taken.
"""

from __future__ import annotations

import os

import numpy as np

from repro.md.kernels.numpy_fast import NumpyFastBackend
from repro.md.precision import PrecisionPolicy

__all__ = [
    "BackendUnavailableError",
    "CompiledBackend",
    "PROVIDER_ENV_VAR",
    "compiled_available",
    "compiled_diagnostic",
    "provider_info",
    "resolve_provider",
]

#: Provider selection: ``cc`` (default when unset) or ``none`` (disable).
PROVIDER_ENV_VAR = "REPRO_COMPILED_PROVIDER"

#: Cached resolution: (env key, provider or None, reason when None).
_resolution: tuple[tuple[str, str], object | None, str | None] | None = None


class BackendUnavailableError(RuntimeError):
    """Raised when no compiled provider works; carries the reasons why."""


def _env_key() -> tuple[str, str]:
    return (
        os.environ.get(PROVIDER_ENV_VAR, ""),
        os.environ.get("REPRO_COMPILED_CACHE", ""),
    )


def resolve_provider(refresh: bool = False):
    """Resolve (and cache) the compiled provider.

    Returns ``(provider, None)`` on success or ``(None, reason)`` when
    every candidate failed.  The cache is keyed on the controlling
    environment variables, so tests that monkeypatch them see a fresh
    resolution without an explicit reset.
    """
    global _resolution
    key = _env_key()
    if not refresh and _resolution is not None and _resolution[0] == key:
        return _resolution[1], _resolution[2]
    provider, reason = _resolve()
    _resolution = (key, provider, reason)
    return provider, reason


def _resolve():
    preference = os.environ.get(PROVIDER_ENV_VAR, "").strip().lower() or "cc"
    if preference == "none":
        return None, f"disabled via {PROVIDER_ENV_VAR}=none"
    if preference != "cc":
        return None, (
            f"unknown provider {PROVIDER_ENV_VAR}={preference!r} "
            "(accepted: cc, none)"
        )
    try:
        from repro.md.kernels import _cc_impl

        provider = _cc_impl.make_provider()
        _smoke_test(provider)
        return provider, None
    except Exception as exc:  # no compiler, failed build, bad codegen
        return None, f"cc: {type(exc).__name__}: {exc}"


def _smoke_test(provider) -> None:
    """Run every provider entry point against the numpy backends.

    This is what turns "the library built" into "the library *works*":
    a codegen failure on any kernel disqualifies the provider before it
    can ever touch simulation state.  The float64 scatter paths are
    checked *bitwise* (the parallel-determinism contract); float32 and
    mixed paths to their precision tiers.
    """
    from repro.md.box import Box
    from repro.md.neighbor import cell_list_half_pairs

    rng = np.random.default_rng(1234)
    n, m = 40, 300
    idx = np.sort(rng.integers(0, n, m))
    jdx = rng.integers(0, n, m)

    # Scatter: float64 bitwise vs bincount, mixed widening vs bincount.
    v64 = rng.normal(size=m)
    out = np.zeros(n)
    provider.scatter1(out, idx, v64)
    if not np.array_equal(out, np.bincount(idx, weights=v64, minlength=n)):
        raise AssertionError("scatter1 f64 deviates from bincount")
    v32 = v64.astype(np.float32)
    out = np.zeros(n)
    provider.scatter1(out, idx, v32)
    expect = np.bincount(idx, weights=v32, minlength=n)
    if not np.array_equal(out, expect):
        raise AssertionError("scatter1 mixed deviates from bincount")
    out32 = np.zeros(n, np.float32)
    provider.scatter1(out32, idx, v32)
    np.testing.assert_allclose(out32, expect, rtol=1e-5, atol=1e-6)

    w64 = rng.normal(size=(m, 3))
    out = np.zeros((n, 3))
    provider.scatter3(out, idx, w64)
    for d in range(3):
        if not np.array_equal(
            out[:, d], np.bincount(idx, weights=w64[:, d], minlength=n)
        ):
            raise AssertionError("scatter3 f64 deviates from bincount")

    # Fused pair accumulation vs the numpy_fast formulation.  The i/j
    # sides interleave differently (register segments + inline scatter),
    # so this is summation-order-tolerant, not bitwise.
    dr = rng.normal(size=(m, 3))
    f_over_r = rng.normal(size=m)
    got = np.zeros((n, 3))
    provider.acc_scaled(got, idx, jdx, dr, f_over_r)
    ref_scaled = np.zeros((n, 3))
    NumpyFastBackend().accumulate_scaled_pair_forces(
        ref_scaled, idx, jdx, dr, f_over_r
    )
    np.testing.assert_allclose(got, ref_scaled, rtol=1e-12, atol=1e-12)
    got = np.zeros((n, 3))
    provider.acc_pair(got, idx, jdx, dr)
    ref_pair = np.zeros((n, 3))
    NumpyFastBackend().accumulate_pair_forces(ref_pair, idx, jdx, dr)
    np.testing.assert_allclose(got, ref_pair, rtol=1e-12, atol=1e-12)
    got64 = np.zeros((n, 3))
    provider.acc_scaled(
        got64, idx, jdx, dr.astype(np.float32), f_over_r.astype(np.float32)
    )
    np.testing.assert_allclose(
        got64, _mixed_ref(n, idx, jdx, dr, f_over_r), rtol=1e-5, atol=1e-5
    )
    got32 = np.zeros((n, 3), np.float32)
    provider.acc_scaled(
        got32, idx, jdx, dr.astype(np.float32), f_over_r.astype(np.float32)
    )
    np.testing.assert_allclose(got32, ref_scaled, rtol=1e-4, atol=1e-4)

    # Pair geometry: bitwise vs the numpy_fast op sequence (float64).
    box = Box([7.0, 8.0, 9.0], periodic=(True, True, False))
    pos = rng.uniform(0, 1, (n, 3)) * box.lengths
    pi = np.repeat(np.arange(n, dtype=np.int64), n)[: 4 * m]
    pj = np.tile(np.arange(n, dtype=np.int64), n)[: 4 * m]
    keep = pi != pj
    pi, pj = pi[keep], pj[keep]
    rc = 2.5
    oi = np.empty(len(pi), np.int64)
    oj = np.empty(len(pi), np.int64)
    odr = np.empty((len(pi), 3))
    orr = np.empty(len(pi))
    c = provider.pair_geom(
        pos,
        pi,
        pj,
        box.lengths,
        np.ascontiguousarray(box.periodic, dtype=np.uint8),
        rc * rc,
        oi,
        oj,
        odr,
        orr,
    )
    d = box.minimum_image(pos[pi] - pos[pj])
    r2 = np.einsum("ij,ij->i", d, d)
    k = np.flatnonzero(r2 < rc * rc)
    if not (
        c == len(k)
        and np.array_equal(oi[:c], pi[k])
        and np.array_equal(oj[:c], pj[k])
        and np.array_equal(odr[:c], d[k])
        and np.array_equal(orr[:c], np.sqrt(r2[k]))
    ):
        raise AssertionError("pair_geom f64 deviates from minimum-image oracle")

    # Cell-list build: identical pair set *and* orientations vs numpy.
    box = Box([9.0, 9.5, 10.0])
    pos = np.ascontiguousarray(rng.uniform(0, 1, (120, 3)) * box.lengths)
    ref_i, ref_j = cell_list_half_pairs(pos, box, 2.2)
    cap = max(4 * len(ref_i), 64)
    oi = np.empty(cap, np.int64)
    oj = np.empty(cap, np.int64)
    count = provider.cell_pairs(
        pos,
        box.lengths,
        np.ascontiguousarray(box.origin, dtype=np.float64),
        np.ascontiguousarray(box.periodic, dtype=np.uint8),
        2.2,
        oi,
        oj,
    )
    got_order = np.lexsort((oj[:count], oi[:count]))
    ref_order = np.lexsort((ref_j, ref_i))
    if not (
        count == len(ref_i)
        and np.array_equal(oi[:count][got_order], ref_i[ref_order])
        and np.array_equal(oj[:count][got_order], ref_j[ref_order])
    ):
        raise AssertionError("cell_pairs deviates from cell_list_half_pairs")

    _smoke_tersoff(provider, rng)


def _smoke_tersoff(provider, rng) -> None:
    """Fused Tersoff pass vs the numpy triplet path (parity, 1e-12).

    A perturbed 64-atom diamond block (rows of 1-4+ partners at its
    free surfaces) plus an isolated atom (empty row) and a dimer
    (``zeta = 0`` rows) in a box wide enough that none of them see
    each other's periodic images.
    """
    from repro.md.atoms import AtomSystem
    from repro.md.box import Box
    from repro.md.lattice import diamond_positions
    from repro.md.neighbor import NeighborList
    from repro.md.potentials.tersoff import Tersoff

    crystal, _ = diamond_positions(2, 5.431)
    crystal = crystal + 2.0 + rng.normal(scale=0.1, size=crystal.shape)
    extra = [[22.0, 22.0, 22.0], [22.0, 6.0, 6.0], [24.3, 6.2, 5.9]]
    system = AtomSystem(np.vstack([crystal, extra]), Box([30.0] * 3), masses=28.0855)
    pot = Tersoff()
    pot.backend = NumpyFastBackend()
    neighbors = NeighborList(pot.cutoff, 0.3, full=True)
    neighbors.build(system)
    expect = pot.compute(system, neighbors)
    i, j, dr, r = pot.backend.current_pairs(system, neighbors, pot.cutoff)
    got = np.zeros_like(system.forces)
    energy, virial = provider.tersoff(got, i, j, dr, r, pot.params)
    np.testing.assert_allclose(got, system.forces, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        [energy, virial], [expect.energy, expect.virial], rtol=1e-12, atol=1e-12
    )


def _mixed_ref(n, i, j, dr, f_over_r):
    """numpy_fast MIXED accumulation: f32 products, f64 bincount."""
    out = np.zeros((n, 3))
    w32 = (f_over_r.astype(np.float32)[:, None] * dr.astype(np.float32))
    for d in range(3):
        out[:, d] += np.bincount(i, weights=w32[:, d], minlength=n)
        out[:, d] -= np.bincount(j, weights=w32[:, d], minlength=n)
    return out


def compiled_available() -> bool:
    """True when the native ``cc`` provider resolved."""
    return resolve_provider()[0] is not None


def compiled_diagnostic() -> str:
    """One-line availability status for error messages and bench JSON."""
    provider, reason = resolve_provider()
    if provider is None:
        return f"unavailable: {reason}"
    return f"ok (provider={provider.kind} {provider.version})"


def provider_info() -> dict | None:
    """``{"kind", "version"}`` of the active provider, or ``None``."""
    provider, _ = resolve_provider()
    if provider is None:
        return None
    return {"kind": provider.kind, "version": str(provider.version)}


class CompiledBackend(NumpyFastBackend):
    """Native-code backend for pair forces, neighbor-list builds and Tersoff.

    Subclasses :class:`NumpyFastBackend` so every primitive has a
    correct numpy fallback: the native path is taken only when the
    dtype combination and memory layout are covered by the provider
    (float64, float32, and the MIXED float32-values-into-float64-
    accumulator case; C-contiguous arrays).  In particular the SINGLE
    -policy neighbor-list build (float32 positions) stays on the numpy
    path — pair sets near the cutoff are decided in the storage dtype
    and the compiled build only replicates the float64 semantics
    bitwise.
    """

    name = "compiled"

    def __init__(self) -> None:
        provider, reason = resolve_provider()
        if provider is None:
            raise BackendUnavailableError(reason)
        super().__init__()
        self._impl = provider
        # Pair-geometry output scratch (grow-only, storage-dtype typed).
        self._pg_capacity = 0
        self._pg_i = np.empty(0, np.int64)
        self._pg_j = np.empty(0, np.int64)
        self._pg_dr = np.empty((0, 3))
        self._pg_r = np.empty(0)
        # Neighbor-build output scratch + size hint from the last build.
        self._nb_i = np.empty(0, np.int64)
        self._nb_j = np.empty(0, np.int64)
        self._nb_hint = 0

    def set_policy(self, policy: PrecisionPolicy) -> None:
        if policy.storage_dtype != self.policy.storage_dtype:
            self._pg_capacity = 0
        super().set_policy(policy)

    # ------------------------------------------------------------------
    # Pair geometry
    # ------------------------------------------------------------------
    def _geom_scratch(self, m: int):
        dtype = self.policy.storage_dtype
        if m > self._pg_capacity or self._pg_dr.dtype != dtype:
            capacity = max(m, int(1.5 * self._pg_capacity), 1024)
            self._pg_i = np.empty(capacity, np.int64)
            self._pg_j = np.empty(capacity, np.int64)
            self._pg_dr = np.empty((capacity, 3), dtype)
            self._pg_r = np.empty(capacity, dtype)
            self._pg_capacity = capacity
        return self._pg_i, self._pg_j, self._pg_dr, self._pg_r

    def current_pairs(self, system, neighbors, cutoff=None):
        if not neighbors.is_built:
            raise RuntimeError("neighbor list has never been built")
        rc = neighbors.cutoff if cutoff is None else float(cutoff)
        pair_i, pair_j = neighbors.pair_i, neighbors.pair_j
        m = len(pair_i)
        compute_dtype = self.policy.compute_dtype
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0, 3), dtype=compute_dtype),
                np.empty(0, dtype=compute_dtype),
            )
        geometry_dtype = self.policy.storage_dtype
        positions = np.ascontiguousarray(
            system.positions.astype(geometry_dtype, copy=False)
        )
        lengths = np.ascontiguousarray(
            system.box.lengths.astype(geometry_dtype, copy=False)
        )
        periodic = np.ascontiguousarray(system.box.periodic, dtype=np.uint8)
        oi, oj, odr, orr = self._geom_scratch(m)
        # NEP 50: the cutoff compare runs in the geometry dtype with the
        # python-float rc^2 cast down, so pre-cast it here.
        rc2 = geometry_dtype.type(rc * rc)
        c = self._impl.pair_geom(
            positions,
            np.ascontiguousarray(pair_i, dtype=np.int64),
            np.ascontiguousarray(pair_j, dtype=np.int64),
            lengths,
            periodic,
            rc2,
            oi,
            oj,
            odr,
            orr,
        )
        # Compressed copies: scratch is reused next call and must not
        # leak out (same contract as numpy_fast).
        return (
            oi[:c].copy(),
            oj[:c].copy(),
            odr[:c].astype(compute_dtype, copy=True),
            orr[:c].astype(compute_dtype, copy=True),
        )

    # ------------------------------------------------------------------
    # Scatter / accumulate
    # ------------------------------------------------------------------
    def _scatter_via_impl(self, out, index, values) -> bool:
        if not (
            isinstance(out, np.ndarray)
            and out.flags.c_contiguous
            and self._impl.supports(out, values)
        ):
            return False
        idx = np.ascontiguousarray(index, dtype=np.int64)
        if values.ndim == 1 and out.ndim == 1:
            self._impl.scatter1(out, idx, np.ascontiguousarray(values))
            return True
        if (
            values.ndim == 2
            and out.ndim == 2
            and values.shape[1] == 3
            and out.shape[1] == 3
        ):
            self._impl.scatter3(out, idx, np.ascontiguousarray(values))
            return True
        return False

    def scatter_add(self, out, index, values):
        values = np.asarray(values)
        if not self._scatter_via_impl(out, index, values):
            super().scatter_add(out, index, values)

    def scatter_add_sorted(self, out, index, values):
        # The serial input-order loop is valid (and bitwise-stable)
        # whether or not the index is sorted, so both entry points
        # share one implementation.
        values = np.asarray(values)
        if not self._scatter_via_impl(out, index, values):
            super().scatter_add_sorted(out, index, values)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        fvec = np.asarray(fvec)
        if (
            len(i) == 0
            or not forces.flags.c_contiguous
            or fvec.ndim != 2
            or fvec.shape[1] != 3
            or not self._impl.supports(forces, fvec)
        ):
            return super().accumulate_pair_forces(forces, i, j, fvec)
        self._impl.acc_pair(
            forces,
            np.ascontiguousarray(i, dtype=np.int64),
            np.ascontiguousarray(j, dtype=np.int64),
            np.ascontiguousarray(fvec),
        )

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        dr = np.asarray(dr)
        f_over_r = np.asarray(f_over_r)
        if (
            len(i) == 0
            or not forces.flags.c_contiguous
            or dr.dtype != f_over_r.dtype
            or not self._impl.supports(forces, f_over_r)
        ):
            return super().accumulate_scaled_pair_forces(forces, i, j, dr, f_over_r)
        self._impl.acc_scaled(
            forces,
            np.ascontiguousarray(i, dtype=np.int64),
            np.ascontiguousarray(j, dtype=np.int64),
            np.ascontiguousarray(dr),
            np.ascontiguousarray(f_over_r),
        )

    # ------------------------------------------------------------------
    # Neighbor-list build
    # ------------------------------------------------------------------
    def neighbor_pairs(self, positions, box, rc):
        """Compiled link-cell half-pair build (float64 positions only).

        Returns ``(i, j)`` bitwise-identical (as a set with matching
        orientations) to :func:`repro.md.neighbor.cell_list_half_pairs`,
        or ``None`` to let the caller run the numpy path.
        """
        positions = np.asarray(positions)
        if positions.dtype != np.float64 or positions.ndim != 2:
            return None
        positions = np.ascontiguousarray(positions)
        n = len(positions)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lengths = np.ascontiguousarray(box.lengths, dtype=np.float64)
        origin = np.ascontiguousarray(box.origin, dtype=np.float64)
        periodic = np.ascontiguousarray(box.periodic, dtype=np.uint8)
        volume = float(np.prod(lengths))
        # Half-pair estimate (4pi/6 * rc^3 * n^2 / V), padded; the build
        # reports the true count so one retry always suffices.
        estimate = 16 * n
        if volume > 0:
            estimate += int(2.6 * float(rc) ** 3 * n * n / volume)
        capacity = max(self._nb_hint, estimate, 1024)
        while True:
            if capacity > len(self._nb_i):
                self._nb_i = np.empty(capacity, np.int64)
                self._nb_j = np.empty(capacity, np.int64)
            count = self._impl.cell_pairs(
                positions, lengths, origin, periodic, float(rc),
                self._nb_i, self._nb_j,
            )
            if count < 0:  # allocation failure inside the native build
                return None
            if count <= len(self._nb_i):
                break
            capacity = count
        self._nb_hint = count + (count >> 2)
        return self._nb_i[:count].copy(), self._nb_j[:count].copy()

    # ------------------------------------------------------------------
    # Tersoff
    # ------------------------------------------------------------------
    def tersoff_forces(self, system, i, j, dr, r, params):
        """One fused native pass per CSR row (DOUBLE policy only).

        MIXED and SINGLE return ``None``: their float32 compute tiers
        are defined by the numpy triplet path.
        """
        forces = system.forces
        if not (
            self.policy.is_double
            and forces.dtype == np.float64
            and forces.flags.c_contiguous
        ):
            return None
        return self._impl.tersoff(
            forces,
            np.ascontiguousarray(i, dtype=np.int64),
            np.ascontiguousarray(j, dtype=np.int64),
            np.ascontiguousarray(dr, dtype=np.float64),
            np.ascontiguousarray(r, dtype=np.float64),
            params,
        )

    def count_pairs_within(self, positions, box, pair_i, pair_j, rc):
        """Count stored pairs within ``rc`` via the bitwise pair-geom
        kernel (float64 only), sparing the stats pass its numpy gather."""
        positions = np.asarray(positions)
        if (
            positions.dtype != np.float64
            or positions.ndim != 2
            or np.dtype(self.policy.storage_dtype) != np.float64
        ):
            return None
        m = len(pair_i)
        if m == 0:
            return 0
        oi, oj, odr, orr = self._geom_scratch(m)
        count = self._impl.pair_geom(
            np.ascontiguousarray(positions),
            np.ascontiguousarray(pair_i, dtype=np.int64),
            np.ascontiguousarray(pair_j, dtype=np.int64),
            np.ascontiguousarray(box.lengths, dtype=np.float64),
            np.ascontiguousarray(box.periodic, dtype=np.uint8),
            np.float64(rc * rc),
            oi,
            oj,
            odr,
            orr,
        )
        return int(count)

    @classmethod
    def diagnostic(cls) -> str:
        return compiled_diagnostic()
