"""Kernel-backend tests: registry, CSR geometry, and the oracle.

The backend-equivalence suite is the contract that lets ``numpy_fast``
be the default: for every pair style in the engine, forces, energy and
virial computed on the optimized backend must match the ``numpy_ref``
oracle to 1e-12.
"""

import numpy as np
import pytest

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import (
    AUTO_BACKEND,
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    NumpyFastBackend,
    NumpyRefBackend,
    available_backends,
    backend_spec,
    get_backend,
    resolve_auto_backend,
)
from repro.md.lattice import chute_system, eam_solid_system, lj_melt_system
from repro.md.neighbor import NeighborList
from repro.md.potentials.charmm import CharmmCoulLong
from repro.md.potentials.eam import EAMAlloy
from repro.md.potentials.granular import HookeHistory
from repro.md.potentials.lj import LennardJonesCut
from repro.md.potentials.soft import SoftRepulsion
from repro.md.potentials.table import TabulatedPair
from repro.md.simulation import Simulation

TOL = dict(rtol=1e-12, atol=1e-12)


class TestRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {"numpy_ref", "numpy_fast", "compiled"}

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == AUTO_BACKEND == "auto"
        assert backend_spec(get_backend()) == resolve_auto_backend()

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy_ref")
        assert isinstance(get_backend(), NumpyRefBackend)

    def test_instance_passes_through(self):
        backend = NumpyFastBackend()
        assert get_backend(backend) is backend

    def test_name_lookup(self):
        assert isinstance(get_backend("numpy_ref"), NumpyRefBackend)
        assert isinstance(get_backend("numpy_fast"), NumpyFastBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran77")

    def test_auto_resolves_to_best_available(self):
        from repro.md.kernels.compiled import compiled_available

        expected = "compiled" if compiled_available() else "numpy_fast"
        assert resolve_auto_backend() == expected
        assert backend_spec(get_backend(AUTO_BACKEND)) == expected

    def test_auto_via_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, AUTO_BACKEND)
        assert backend_spec(get_backend()) == resolve_auto_backend()

    def test_auto_is_never_a_registry_name(self):
        # "auto" must resolve before the registry lookup, not live in it.
        assert AUTO_BACKEND not in available_backends()

    def test_simulation_shares_backend_with_potentials(self):
        sim = Simulation(
            lj_melt_system(100, seed=3),
            [LennardJonesCut(cutoff=2.5)],
            backend="numpy_ref",
        )
        assert isinstance(sim.backend, NumpyRefBackend)
        assert sim.potentials[0].backend is sim.backend


class TestFastPairGeometry:
    """`numpy_fast.current_pairs` must match the reference bitwise."""

    @pytest.mark.parametrize("periodic", [(True, True, True), (True, True, False)])
    def test_matches_reference_bitwise(self, periodic):
        rng = np.random.default_rng(11)
        box = Box([9.0, 10.0, 11.0], periodic=periodic)
        system = AtomSystem(rng.uniform(0, 1, (300, 3)) * box.lengths, box)
        nlist = NeighborList(2.0, 0.3)
        nlist.build(system)
        system.positions += rng.normal(scale=0.02, size=system.positions.shape)
        ref = NumpyRefBackend().current_pairs(system, nlist, 2.0)
        fast = NumpyFastBackend().current_pairs(system, nlist, 2.0)
        for a, b in zip(ref, fast):
            assert np.array_equal(a, b)

    def test_raises_before_build(self):
        system = AtomSystem(np.ones((2, 3)), Box([5, 5, 5]))
        with pytest.raises(RuntimeError):
            NumpyFastBackend().current_pairs(system, NeighborList(1.0, 0.1))

    def test_scratch_is_reused_not_leaked(self):
        rng = np.random.default_rng(12)
        box = Box([8.0, 8.0, 8.0])
        system = AtomSystem(rng.uniform(0, 8, (200, 3)), box)
        nlist = NeighborList(2.0, 0.3)
        nlist.build(system)
        backend = NumpyFastBackend()
        _, _, dr1, r1 = backend.current_pairs(system, nlist, 2.0)
        capacity = backend._capacity
        dr1_copy, r1_copy = dr1.copy(), r1.copy()
        backend.current_pairs(system, nlist, 2.0)
        # Outputs are compressed copies: a second call must not clobber
        # previously returned arrays, and capacity must not regrow.
        assert np.array_equal(dr1, dr1_copy)
        assert np.array_equal(r1, r1_copy)
        assert backend._capacity == capacity


class TestScatterPrimitives:
    def test_scatter_add_matches_ufunc_at(self):
        rng = np.random.default_rng(21)
        idx = rng.integers(0, 50, 4000)
        vals = rng.normal(size=4000)
        a = np.zeros(50)
        b = np.zeros(50)
        NumpyRefBackend().scatter_add(a, idx, vals)
        NumpyFastBackend().scatter_add(b, idx, vals)
        np.testing.assert_allclose(a, b, **TOL)

    def test_scatter_add_vectors(self):
        rng = np.random.default_rng(22)
        idx = rng.integers(0, 40, 900)
        vals = rng.normal(size=(900, 3))
        a = np.zeros((40, 3))
        b = np.zeros((40, 3))
        NumpyRefBackend().scatter_add(a, idx, vals)
        NumpyFastBackend().scatter_add(b, idx, vals)
        np.testing.assert_allclose(a, b, **TOL)

    @pytest.mark.parametrize("sorted_i", [True, False])
    def test_scaled_accumulation_matches(self, sorted_i):
        rng = np.random.default_rng(23)
        m, n = 5000, 120
        i = rng.integers(0, n, m)
        if sorted_i:
            i = np.sort(i)
        j = rng.integers(0, n, m)
        dr = rng.normal(size=(m, 3))
        f_over_r = rng.normal(size=m)
        a = np.zeros((n, 3))
        b = np.zeros((n, 3))
        NumpyRefBackend().accumulate_scaled_pair_forces(a, i, j, dr, f_over_r)
        NumpyFastBackend().accumulate_scaled_pair_forces(b, i, j, dr, f_over_r)
        np.testing.assert_allclose(a, b, **TOL)


def _fluid_system(n=250, seed=31, charges=False, types=1):
    rng = np.random.default_rng(seed)
    box = Box([9.0, 9.0, 9.0])
    # Minimum-separation jitter off a cubic grid avoids singular overlaps.
    side = int(np.ceil(n ** (1 / 3)))
    grid = np.stack(
        np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)[:n]
    positions = (grid + 0.5) * (box.lengths / side)
    positions += rng.normal(scale=0.08, size=positions.shape)
    system = AtomSystem(
        positions,
        box,
        types=rng.integers(0, types, n) if types > 1 else None,
        charges=rng.normal(size=n) if charges else None,
    )
    system.seed_velocities(1.0, rng)
    return system


def _pair_cases():
    lj_table = TabulatedPair.from_potential(
        LennardJonesCut(cutoff=2.5), 0.8, 2.5, n_samples=200
    )
    return [
        ("lj_single_type", LennardJonesCut(cutoff=2.5), _fluid_system()),
        (
            "lj_multi_type",
            LennardJonesCut(
                epsilon=np.array([1.0, 0.6]),
                sigma=np.array([1.0, 1.1]),
                cutoff=2.5,
            ),
            _fluid_system(types=2),
        ),
        (
            "charmm",
            CharmmCoulLong(lj_inner=1.6, cutoff=2.4, alpha=0.7),
            _fluid_system(charges=True),
        ),
        ("soft", SoftRepulsion(prefactor=5.0, cutoff=1.5), _fluid_system()),
        ("table", lj_table, _fluid_system()),
    ]


class TestBackendOracle:
    """forces/energy/virial agree to 1e-12 for every pair style."""

    @pytest.mark.parametrize(
        "potential,system",
        [pytest.param(p, s, id=name) for name, p, s in _pair_cases()],
    )
    def test_analytic_pair_styles(self, potential, system):
        nlist = NeighborList(potential.cutoff, 0.3)
        nlist.build(system)
        results = {}
        for backend in ("numpy_ref", "numpy_fast"):
            potential.backend = backend
            system.forces[:] = 0.0
            out = potential.compute(system, nlist)
            results[backend] = (system.forces.copy(), out.energy, out.virial)
        f_ref, e_ref, v_ref = results["numpy_ref"]
        f_fast, e_fast, v_fast = results["numpy_fast"]
        np.testing.assert_allclose(f_fast, f_ref, **TOL)
        assert e_fast == pytest.approx(e_ref, rel=1e-12, abs=1e-12)
        assert v_fast == pytest.approx(v_ref, rel=1e-12, abs=1e-12)

    def test_eam(self):
        system = eam_solid_system(256, seed=5)
        potential = EAMAlloy()
        nlist = NeighborList(potential.cutoff, 1.0)
        nlist.build(system)
        results = {}
        for backend in ("numpy_ref", "numpy_fast"):
            potential.backend = backend
            system.forces[:] = 0.0
            out = potential.compute(system, nlist)
            results[backend] = (system.forces.copy(), out.energy, out.virial)
        f_ref, e_ref, v_ref = results["numpy_ref"]
        f_fast, e_fast, v_fast = results["numpy_fast"]
        np.testing.assert_allclose(f_fast, f_ref, **TOL)
        assert e_fast == pytest.approx(e_ref, rel=1e-12)
        assert v_fast == pytest.approx(v_ref, rel=1e-12)

    def test_granular_with_history_and_torques(self):
        results = {}
        for backend in ("numpy_ref", "numpy_fast"):
            system = chute_system(5, 5, 3, seed=9)
            potential = HookeHistory(dt=1e-4)
            potential.backend = backend
            nlist = NeighborList(potential.cutoff, 0.1, full=True)
            nlist.build(system)
            # Two evaluations so the tangential history is exercised.
            for _ in range(2):
                system.forces[:] = 0.0
                system.torques[:] = 0.0
                out = potential.compute(system, nlist)
            results[backend] = (
                system.forces.copy(),
                system.torques.copy(),
                out.energy,
                out.virial,
            )
        f_ref, t_ref, e_ref, v_ref = results["numpy_ref"]
        f_fast, t_fast, e_fast, v_fast = results["numpy_fast"]
        np.testing.assert_allclose(f_fast, f_ref, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(t_fast, t_ref, rtol=1e-12, atol=1e-9)
        assert e_fast == pytest.approx(e_ref, rel=1e-12)
        assert v_fast == pytest.approx(v_ref, rel=1e-12)

    def test_short_lj_trajectories_agree(self):
        """Whole-simulation check: 20 steps on each backend stay equal."""
        trajectories = {}
        for backend in ("numpy_ref", "numpy_fast"):
            sim = Simulation(
                lj_melt_system(256, seed=77),
                [LennardJonesCut(cutoff=2.5)],
                dt=0.005,
                backend=backend,
            )
            sim.run(20)
            trajectories[backend] = sim.system.positions.copy()
        np.testing.assert_allclose(
            trajectories["numpy_fast"],
            trajectories["numpy_ref"],
            rtol=1e-10,
            atol=1e-10,
        )


class TestBackendProtocol:
    def test_custom_backend_instance_accepted(self):
        class Recording(NumpyRefBackend):
            name = "recording"

            def __init__(self):
                self.calls = 0

            def current_pairs(self, system, neighbors, cutoff=None):
                self.calls += 1
                return super().current_pairs(system, neighbors, cutoff)

        backend = Recording()
        assert isinstance(backend, KernelBackend)
        sim = Simulation(
            lj_melt_system(256, seed=1),
            [LennardJonesCut(cutoff=2.5)],
            backend=backend,
        )
        sim.run(2)
        assert backend.calls >= 2
