"""Tests for the Tersoff three-body bond-order potential (silicon)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Simulation, policy_for
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import KernelBackend, available_backends, get_backend
from repro.md.kernels.compiled import compiled_available, resolve_provider
from repro.md.kernels.tracing import TracingBackend
from repro.md.lattice import diamond_positions, tersoff_silicon_system
from repro.md.neighbor import NeighborList
from repro.md.potentials.tersoff import Tersoff, TersoffParameters
from repro.observability import Tracer

from tests.conftest import finite_difference_forces


@pytest.fixture
def tersoff():
    return Tersoff()


def _compute(positions, box, pot):
    system = AtomSystem(np.asarray(positions, dtype=float), box, masses=28.0855)
    nlist = NeighborList(pot.cutoff, 0.5, full=True)
    nlist.build(system)
    system.forces[:] = 0.0
    result = pot.compute(system, nlist)
    return result, system


def _energy_of(positions, box, pot):
    return _compute(positions, box, pot)[0].energy


class TestIngredients:
    def test_cutoff_plateaus(self, tersoff):
        p = tersoff.params
        fc, dfc = tersoff.cutoff_function(np.array([1.0, p.R - p.D, p.R + p.D, 4.0]))
        np.testing.assert_allclose(fc, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
        # Exactly at the ramp ends rounding may leave x a ulp inside, so
        # the slope is merely ~1e-15 rather than an exact zero.
        np.testing.assert_allclose(dfc, 0.0, atol=1e-12)

    def test_cutoff_midpoint_half(self, tersoff):
        fc, _ = tersoff.cutoff_function(np.array([tersoff.params.R]))
        assert fc[0] == pytest.approx(0.5)

    def test_cutoff_slope_matches_finite_difference(self, tersoff):
        r = np.linspace(2.71, 2.99, 25)
        _, dfc = tersoff.cutoff_function(r)
        h = 1e-7
        fp, _ = tersoff.cutoff_function(r + h)
        fm, _ = tersoff.cutoff_function(r - h)
        np.testing.assert_allclose(dfc, (fp - fm) / (2 * h), atol=1e-6)

    def test_radial_terms_match_finite_difference(self, tersoff):
        r = np.linspace(1.8, 2.9, 20)
        h = 1e-7
        for fn in (tersoff.repulsive, tersoff.attractive):
            _, dv = fn(r)
            vp, _ = fn(r + h)
            vm, _ = fn(r - h)
            np.testing.assert_allclose(dv, (vp - vm) / (2 * h), rtol=1e-6)

    def test_angular_minimum_at_h(self, tersoff):
        # g is minimal where cos(theta) = h; its derivative vanishes there.
        p = tersoff.params
        g_min, dg = tersoff.angular(np.array([p.h]))
        assert dg[0] == pytest.approx(0.0, abs=1e-12)
        g_away, _ = tersoff.angular(np.array([p.h + 0.3]))
        assert g_away[0] > g_min[0]

    def test_angular_derivative_matches_finite_difference(self, tersoff):
        cos = np.linspace(-0.95, 0.95, 30)
        _, dg = tersoff.angular(cos)
        h = 1e-7
        gp, _ = tersoff.angular(cos + h)
        gm, _ = tersoff.angular(cos - h)
        np.testing.assert_allclose(dg, (gp - gm) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_bond_order_is_one_without_triplets(self, tersoff):
        b, db = tersoff.bond_order(np.array([0.0]))
        assert b[0] == 1.0
        assert db[0] == 0.0

    def test_bond_order_decreases_with_coordination(self, tersoff):
        zeta = np.linspace(0.5, 8.0, 20)
        b, db = tersoff.bond_order(zeta)
        assert np.all(np.diff(b) < 0)
        assert np.all(db < 0)

    def test_bond_order_derivative_matches_finite_difference(self, tersoff):
        # db is only ~1e-5 against b ~ 1, so a wider step keeps the
        # central difference above cancellation noise.
        zeta = np.linspace(0.2, 6.0, 25)
        _, db = tersoff.bond_order(zeta)
        h = 1e-4
        bp, _ = tersoff.bond_order(zeta + h)
        bm, _ = tersoff.bond_order(zeta - h)
        np.testing.assert_allclose(db, (bp - bm) / (2 * h), rtol=1e-4)


class TestDimerAndTrimer:
    def test_dimer_energy_matches_helper(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array([[10.0, 10.0, 10.0], [12.2, 10.0, 10.0]])
        result, _ = _compute(pos, box, tersoff)
        assert result.energy == pytest.approx(tersoff.dimer_energy(2.2), rel=1e-12)

    def test_dimer_hand_computed(self, tersoff):
        # Below the ramp fc = 1 and zeta = 0, so E = A e^{-l1 r} - B e^{-l2 r}.
        p = tersoff.params
        r = 2.3
        expected = p.A * np.exp(-p.lambda1 * r) - p.B * np.exp(-p.lambda2 * r)
        assert tersoff.dimer_energy(r) == pytest.approx(expected, rel=1e-14)

    def test_beyond_cutoff_is_zero(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array([[10.0, 10.0, 10.0], [13.2, 10.0, 10.0]])
        result, system = _compute(pos, box, tersoff)
        assert result.energy == 0.0
        assert np.all(system.forces == 0.0)

    def test_trimer_angular_term_lowers_binding(self, tersoff):
        # A third atom raises zeta, so b < 1 weakens each bond relative
        # to three independent dimers.
        box = Box(np.full(3, 40.0))
        r = 2.35
        trimer = np.array(
            [[10.0, 10.0, 10.0], [10.0 + r, 10.0, 10.0], [10.0, 10.0 + r, 10.0]]
        )
        e_trimer = _energy_of(trimer, box, tersoff)
        e_dimer = tersoff.dimer_energy(r)
        e_diag = tersoff.dimer_energy(r * np.sqrt(2.0))
        assert e_trimer > 2 * e_dimer + e_diag

    def test_trimer_forces_match_finite_difference(self, tersoff):
        box = Box(np.full(3, 40.0))
        pos = np.array(
            [[10.0, 10.0, 10.0], [12.3, 10.2, 9.9], [10.3, 12.2, 10.4]]
        )
        _, system = _compute(pos, box, tersoff)
        fd = finite_difference_forces(lambda p: _energy_of(p, box, tersoff), pos)
        np.testing.assert_allclose(system.forces, fd, atol=5e-7)


class TestCrystal:
    def test_cohesive_energy_near_literature(self, tersoff):
        # Tersoff's T3 silicon binds at -4.63 eV/atom at a = 5.432 A.
        system = tersoff_silicon_system(512, temperature=0.0)
        nlist = NeighborList(tersoff.cutoff, 0.5, full=True)
        nlist.build(system)
        energy = tersoff.energy_only(system, nlist)
        assert energy / system.n_atoms == pytest.approx(-4.63, abs=0.01)

    def test_perfect_crystal_forces_vanish(self, tersoff):
        pos, box = diamond_positions(2, 5.431)
        _, system = _compute(pos, box, tersoff)
        assert np.abs(system.forces).max() < 1e-10

    def test_diamond_first_shell_inside_cutoff_second_outside(self):
        # a sqrt(3)/4 = 2.35 A < 3.0 A cutoff < a/sqrt(2) = 3.84 A: only
        # the four bonded neighbours interact.
        a = 5.431
        assert a * np.sqrt(3.0) / 4.0 < Tersoff().cutoff < a / np.sqrt(2.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_forces_match_finite_difference(self, seed):
        pot = Tersoff()
        rng = np.random.default_rng(seed)
        # One cell is smaller than cutoff+skin allows; two cells (64
        # atoms) give a 10.9 A box with headroom.
        pos, box = diamond_positions(2, 5.431)
        pos = pos + rng.normal(scale=0.12, size=pos.shape)
        _, system = _compute(pos, box, pot)
        fd = finite_difference_forces(lambda p: _energy_of(p, box, pot), pos)
        scale = max(np.abs(system.forces).max(), 1.0)
        np.testing.assert_allclose(system.forces, fd, atol=1e-4 * scale)

    def test_virial_matches_scaling_derivative(self, tersoff):
        # W = sum r.f equals -dE/dlambda under uniform dilation.
        rng = np.random.default_rng(7)
        pos, box = diamond_positions(2, 5.431)
        pos = pos + rng.normal(scale=0.1, size=pos.shape)

        def at_scale(lam):
            scaled = Box(box.lengths * lam)
            return _compute(pos * lam, scaled, tersoff)[0]

        h = 1e-6
        fd = (at_scale(1 + h).energy - at_scale(1 - h).energy) / (2 * h)
        assert at_scale(1.0).virial == pytest.approx(-fd, rel=1e-6)

    def test_interactions_reported_as_directed_pairs(self, tersoff):
        pos, box = diamond_positions(2, 5.431)
        result, _ = _compute(pos, box, tersoff)
        # 4 bonded neighbours per atom, both directions counted.
        assert result.interactions == 4 * len(pos)


class TestBackendParity:
    def test_all_backends_match_oracle(self):
        states = {}
        for name in available_backends():
            pot = Tersoff()
            pot.backend = name
            rng = np.random.default_rng(3)
            pos, box = diamond_positions(2, 5.431)
            pos = pos + rng.normal(scale=0.08, size=pos.shape)
            result, system = _compute(pos, box, pot)
            states[name] = (result.energy, result.virial, system.forces.copy())
        e_ref, w_ref, f_ref = states["numpy_ref"]
        for name, (e, w, f) in states.items():
            assert e == pytest.approx(e_ref, abs=1e-12), name
            assert w == pytest.approx(w_ref, abs=1e-12), name
            np.testing.assert_allclose(
                f, f_ref, atol=1e-12, err_msg=f"backend {name}"
            )


needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="no compiled provider on this machine"
)


def _spy_native(monkeypatch):
    """Record the pair count of every native Tersoff call."""
    impl, _ = resolve_provider()
    calls = []
    original = impl.tersoff

    def spy(forces, i, *args):
        calls.append(len(i))
        return original(forces, i, *args)

    monkeypatch.setattr(impl, "tersoff", spy)
    return calls


def _state(positions, box, backend):
    pot = Tersoff()
    pot.backend = backend
    result, system = _compute(positions, box, pot)
    return result.energy, result.virial, system.forces.copy()


def _assert_matches_oracle(positions, box, backend="compiled"):
    e, w, f = _state(positions, box, backend)
    e_ref, w_ref, f_ref = _state(positions, box, "numpy_ref")
    assert e == pytest.approx(e_ref, rel=1e-12, abs=1e-12)
    assert w == pytest.approx(w_ref, rel=1e-12, abs=1e-12)
    scale = max(np.abs(f_ref).max(), 1.0)
    np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12 * scale)
    return f


def _thermal_crystal(n=512, seed=11):
    """Diamond silicon with ~0.1 A thermal displacements."""
    system = tersoff_silicon_system(n)
    rng = np.random.default_rng(seed)
    return system.positions + rng.normal(scale=0.1, size=(n, 3)), system.box


@needs_compiled
class TestNativeKernel:
    """The compiled backend's fused pass against the numpy triplet path."""

    def test_thermal_crystal_matches_oracle(self, monkeypatch):
        calls = _spy_native(monkeypatch)
        pos, box = _thermal_crystal()
        _assert_matches_oracle(pos, box)
        assert len(calls) == 1

    def test_degenerate_rows(self, monkeypatch):
        # Isolated atom (empty row), dimer (zeta = 0 rows) and trimer,
        # far enough apart that they never interact.
        calls = _spy_native(monkeypatch)
        box = Box(np.full(3, 40.0))
        pos = np.array(
            [
                [30.0, 30.0, 30.0],
                [5.0, 5.0, 5.0],
                [7.3, 5.1, 4.9],
                [15.0, 15.0, 15.0],
                [17.3, 15.2, 14.9],
                [15.3, 17.2, 15.4],
            ]
        )
        forces = _assert_matches_oracle(pos, box)
        assert np.all(forces[0] == 0.0)
        # Dimer alone: b = 1 and db = 0, so E is the pair-only helper
        # and the forces are equal and opposite.
        e, _, f = _state(pos[1:3], box, "compiled")
        assert e == pytest.approx(
            Tersoff().dimer_energy(np.linalg.norm(pos[2] - pos[1])), rel=1e-12
        )
        np.testing.assert_array_equal(f[0], -f[1])
        assert calls == [2 + 6, 2]  # directed pairs per native call

    def test_dense_row_grows_scratch(self, monkeypatch):
        # One head atom with 120 partners on three shells inside the
        # cutoff (the outer one on the cutoff ramp): its row is far
        # longer than any crystal row.
        calls = _spy_native(monkeypatch)
        k = np.arange(40) + 0.5
        polar = np.arccos(1.0 - 2.0 * k / 40)
        azimuth = np.pi * (1.0 + 5**0.5) * k
        sphere = np.stack(
            [
                np.cos(azimuth) * np.sin(polar),
                np.sin(azimuth) * np.sin(polar),
                np.cos(polar),
            ],
            axis=1,
        )
        shells = [radius * sphere for radius in (1.9, 2.4, 2.8)]
        pos = np.vstack([np.zeros((1, 3)), *shells]) + 20.0
        box = Box(np.full(3, 40.0))
        _assert_matches_oracle(pos, box)
        system = AtomSystem(pos, box, masses=28.0855)
        nlist = NeighborList(Tersoff().cutoff, 0.5, full=True)
        nlist.build(system)
        i, *_ = nlist.current_pairs(system)
        assert np.bincount(i).max() >= 100
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["single", "mixed"])
    def test_reduced_precision_takes_numpy_path(self, monkeypatch, mode):
        calls = _spy_native(monkeypatch)
        pos, box = _thermal_crystal()

        def forces_of(backend, precision=None):
            system = AtomSystem(pos.copy(), box, masses=28.0855)
            sim = Simulation(
                system, [Tersoff()], backend=backend, precision=precision
            )
            sim.setup()
            return sim.system.forces.astype(np.float64)

        forces = forces_of("compiled", mode)
        assert calls == []
        ref = forces_of("numpy_ref")
        err = np.linalg.norm(forces - ref) / np.linalg.norm(ref)
        assert err < policy_for(mode).force_rtol
        forces_of("compiled", "double")
        assert len(calls) == 1

    def test_tracing_backend_reaches_native_kernel(self, monkeypatch):
        calls = _spy_native(monkeypatch)
        tracer = Tracer()
        pos, box = _thermal_crystal(64)
        traced = TracingBackend(get_backend("compiled"), tracer)
        _assert_matches_oracle(pos, box, backend=traced)
        assert len(calls) == 1
        names = [record.name for record in tracer.records()]
        assert names.count("kernel.tersoff") == 1
        assert "kernel.scatter_add" not in names

    def test_inner_wrapper_reaches_native_kernel(self, monkeypatch):
        # A delegating wrapper that names only the abstract primitives
        # still reaches the kernel through the base-class forward.
        calls = _spy_native(monkeypatch)
        scatters = []

        class Wrapper(KernelBackend):
            name = "wrapper"

            def __init__(self, inner):
                self.inner = inner

            @property
            def policy(self):
                return self.inner.policy

            def current_pairs(self, system, neighbors, cutoff=None):
                return self.inner.current_pairs(system, neighbors, cutoff)

            def scatter_add(self, out, index, values):
                scatters.append(len(index))
                self.inner.scatter_add(out, index, values)

            def accumulate_pair_forces(self, forces, i, j, fvec):
                self.inner.accumulate_pair_forces(forces, i, j, fvec)

        pos, box = _thermal_crystal(64)
        _assert_matches_oracle(pos, box, backend=Wrapper(get_backend("compiled")))
        assert len(calls) == 1
        assert scatters == []

    @pytest.mark.parametrize("name", ["numpy_ref", "numpy_fast"])
    def test_plain_backends_decline(self, name):
        args = (None,) * 6
        assert get_backend(name).tersoff_forces(*args) is None


class TestDynamics:
    def test_nve_conserves_energy(self):
        from repro.suite.registry import get_benchmark

        sim = get_benchmark("tersoff").build(64)
        sim.run(1)
        e0 = sim.total_energy()
        sim.run(300)
        drift = abs(sim.total_energy() - e0) / sim.system.n_atoms
        assert drift < 1e-7

    def test_snapshot_roundtrip_bitwise(self, tmp_path):
        from repro.md.restart import restore_simulation, save_snapshot
        from repro.suite.registry import get_benchmark

        defn = get_benchmark("tersoff")
        sim = defn.build(64)
        sim.run(10)
        path = tmp_path / "tersoff.npz"
        save_snapshot(sim, path)
        twin = defn.build(64)
        restore_simulation(twin, path)
        sim.run(15)
        twin.run(15)
        assert np.array_equal(sim.system.positions, twin.system.positions)
        assert np.array_equal(sim.system.velocities, twin.system.velocities)
        assert np.array_equal(sim.system.forces, twin.system.forces)


class TestParameters:
    def test_default_cutoff(self):
        assert TersoffParameters().cutoff == pytest.approx(3.0)

    def test_halo_width_adds_cutoff(self, tersoff):
        assert tersoff.halo_width(3.5) == pytest.approx(3.5 + tersoff.cutoff)

    def test_needs_full_list(self, tersoff):
        assert tersoff.needs_full_list

    def test_general_m_matches_oracle(self):
        # m = 1 (the carbon/germanium parametrizations) takes the
        # generic pow branch in both paths.
        pot_params = TersoffParameters(m=1, lambda3=1.3)
        pos, box = _thermal_crystal(64)
        states = {}
        for name in ("numpy_ref", "compiled"):
            if name == "compiled" and not compiled_available():
                continue
            pot = Tersoff(pot_params)
            pot.backend = name
            result, system = _compute(pos, box, pot)
            states[name] = (result.energy, system.forces.copy())
        e_ref, f_ref = states["numpy_ref"]
        for e, f in states.values():
            assert e == pytest.approx(e_ref, rel=1e-12)
            np.testing.assert_allclose(f, f_ref, atol=1e-12)
