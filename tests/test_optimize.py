import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import oracles
import qdarwin as qd
from qdarwin import errors
from qdarwin.measures import _classical_mi
from qdarwin.optimize import (
    OptimizerConfig,
    _ascend,
    _bloch_grid,
    _direction,
    _finish,
    _inner,
    _starts,
    maximize_over_bases,
    qubit_basis,
)
from qdarwin.zoo import haar_random_unitary

from conftest import live_conditionals


def alignment_objective(target: np.ndarray):
    """sum_a |<target|u_a>|^4 and its gradient: 1 exactly when some basis ket
    matches ``target`` up to a phase, and smooth everywhere."""

    def objective(bases: np.ndarray):
        overlaps = np.einsum("j,rja->ra", target.conj(), bases)
        weights = np.abs(overlaps) ** 2
        grads = 2.0 * (weights * overlaps)[:, None, :] * target[None, :, None]
        return (weights ** 2).sum(axis=1), grads

    return objective


def random_skew(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return x - x.conj().T


def cayley(h, t, basis):
    eye = np.eye(len(basis))
    return np.linalg.solve(eye - 0.5 * t * h, (eye + 0.5 * t * h) @ basis)


def ensemble(seed, dims):
    rho = qd.make_random_density(seed, qd.std_layout(dims[0], dims[1:]))
    ens = qd.pointer_ensemble(rho, "S", list(rho.layout.environment_labels))
    probs, conds = live_conditionals(ens)
    return ens, probs, np.stack([c.matrix for c in conds])


class TestQubitPath:
    def test_finds_known_direction(self):
        target = np.array([np.cos(0.4), np.sin(0.4) * np.exp(1j * 1.1)])
        res = maximize_over_bases(alignment_objective(target), 2)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.gap <= 1e-6
        assert res.restarts == 5

    def test_basis_is_orthonormal(self):
        b = qubit_basis(0.7, 2.1)
        assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-12)

    def test_deterministic(self):
        target = np.array([0.6, 0.8j])
        r1 = maximize_over_bases(alignment_objective(target), 2)
        r2 = maximize_over_bases(alignment_objective(target), 2)
        assert r1.value == r2.value
        assert np.array_equal(r1.basis, r2.basis)


class TestGeneralPath:
    def test_result_basis_is_unitary(self):
        for dim in (3, 4):
            target = haar_random_unitary(np.random.default_rng(dim), dim)[:, 0]
            res = maximize_over_bases(alignment_objective(target), dim)
            assert np.allclose(res.basis @ res.basis.conj().T, np.eye(dim), atol=1e-10)
            assert res.iterations >= 1

    def test_finds_known_direction_dim3(self):
        target = np.zeros(3, dtype=complex)
        target[1] = 1.0
        config = OptimizerConfig(restarts=6, max_refine_iter=200)
        res = maximize_over_bases(alignment_objective(target), 3, config)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_same_seed_same_result(self):
        target = np.array([0.5, 0.5, 0.5 + 0.5j]) / np.sqrt(1.0)
        target /= np.linalg.norm(target)
        config = OptimizerConfig(restarts=4, seed=12)
        r1 = maximize_over_bases(alignment_objective(target), 3, config)
        r2 = maximize_over_bases(alignment_objective(target), 3, config)
        assert r1.value == r2.value
        assert np.array_equal(r1.basis, r2.basis)


class TestClassicalInformationGradient:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 2, 2)])
    def test_matches_central_differences(self, dims):
        # the slope of I along t -> cayley(tH) U is <A, H> for the Riemannian
        # gradient A, for every skew-Hermitian direction H
        rng = np.random.default_rng(sum(dims))
        _, probs, conds = ensemble(7, dims)
        dim = conds.shape[1]
        basis = haar_random_unitary(rng, dim)
        _, grads = _classical_mi(probs, conds, basis[None])
        a = _direction(grads, basis[None])
        step = 1e-5
        for _ in range(3):
            h = random_skew(rng, dim)
            ahead = _classical_mi(probs, conds, cayley(h, step, basis)[None])[0][0]
            behind = _classical_mi(probs, conds, cayley(h, -step, basis)[None])[0][0]
            slope = (ahead - behind) / (2.0 * step)
            assert slope == pytest.approx(_inner(a, h[None])[0], abs=1e-8)

    def test_single_basis_value_matches_batch_row(self):
        # with the basis axis last, a lone basis is summed contiguously (pairwise once
        # n d >= 8) unless the kernel keeps it in a stack; d = 2 rows come from the grid
        grid = _bloch_grid(64, 32)[::61]
        for dims in [(2, 3), (2, 2), (2, 4), (2, 8), (4, 2)]:
            _, probs, conds = ensemble(3, dims)
            dim = conds.shape[1]
            bases = grid if dim == 2 else np.stack(
                [haar_random_unitary(np.random.default_rng(s), dim) for s in range(4)])
            values, _ = _classical_mi(probs, conds, bases)
            for basis, value in zip(bases, values):
                assert qd.measures.classical_mutual_information(probs, list(conds),
                                                                basis) == value


def assert_kernel_matches_loop_oracle(probs, conds, bases):
    values, grads = _classical_mi(probs, conds, bases)
    for basis, value, grad in zip(bases, values, grads):
        want_value, want_grad = oracles.classical_mi_and_gradient(probs, conds, basis)
        assert abs(value - want_value) <= 1e-12
        assert np.max(np.abs(grad - want_grad)) <= 1e-12


class TestClassicalInformationKernel:
    def test_default_bloch_grid(self):
        _, probs, conds = ensemble(11, (3, 2))
        config = OptimizerConfig()
        thetas = np.linspace(0.0, np.pi, config.theta_points)
        phis = np.linspace(0.0, 2.0 * np.pi, config.phi_points, endpoint=False)
        grid = qubit_basis(*(a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij")))
        assert len(grid) == 2048 and len(probs) == 3
        assert_kernel_matches_loop_oracle(probs, conds, grid)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4)])
    def test_haar_bases(self, dims):
        rng = np.random.default_rng(dims[1])
        _, probs, conds = ensemble(13, dims)
        bases = np.stack([haar_random_unitary(rng, dims[1]) for _ in range(20)])
        assert_kernel_matches_loop_oracle(probs, conds, bases)

    def test_bases_with_and_without_exact_zero_weights(self):
        # pure conditionals |0><0| and |1><1|: the identity and a phased permutation
        # give J_an = 0 exactly for some outcomes, Haar bases for none, so the bases of
        # one stack keep different numbers of terms
        probs = np.array([0.3, 0.7])
        conds = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]).astype(complex)
        rng = np.random.default_rng(5)
        permutation = np.eye(3)[:, [2, 0, 1]] * np.exp(1j * np.array([0.3, 1.1, 2.0]))
        bases = np.stack([np.eye(3, dtype=complex), haar_random_unitary(rng, 3),
                          permutation, haar_random_unitary(rng, 3)])
        born = np.einsum("rja,njk,rka->rna", bases.conj(), conds, bases).real
        assert [int((b == 0.0).sum()) for b in born] == [4, 0, 4, 0]
        assert_kernel_matches_loop_oracle(probs, conds, bases)
        values, _ = _classical_mi(probs, conds, bases)
        assert values[0] == pytest.approx(qd.entropy_bits(probs), abs=1e-12)


class TestKernelBlocks:
    """With ``MI_BLOCK_BYTES`` small enough to split a stack in several blocks, the last
    one a single basis, the kernel still matches the loop oracle, and each basis's value
    and gradient are those of its single-basis call, to the bit."""

    @pytest.mark.parametrize("dims,count,per_block", [((3, 2), 2048, 89), ((2, 3), 12, 1),
                                                      ((2, 4), 12, 11)],
                             ids=["qubit-grid-24-blocks", "qutrit-12-blocks", "ququart-2-blocks"])
    def test_small_budget_matches_loop_oracle(self, monkeypatch, dims, count, per_block):
        _, probs, conds = ensemble(17, dims)
        dim = conds.shape[1]
        monkeypatch.setattr(qd.measures, "MI_BLOCK_BYTES", per_block * 16 * conds.size)
        if dim == 2:
            bases = _bloch_grid(64, 32)
        else:
            rng = np.random.default_rng(dim)
            bases = np.stack([haar_random_unitary(rng, dim) for _ in range(12)])
        assert len(bases) == count > per_block and (count - 1) % per_block == 0
        assert_kernel_matches_loop_oracle(probs, conds, bases)
        values, grads = _classical_mi(probs, conds, bases)
        for basis, value, grad in zip(bases, values, grads):
            one_value, one_grad = _classical_mi(probs, conds, basis[None])
            assert one_value[0] == value and np.array_equal(one_grad[0], grad)

    @pytest.mark.parametrize("system_dim", [2, 3, 4])
    def test_grid_call_stays_small(self, system_dim):
        """One objective call on the default qubit grid, its outputs (128 KiB of
        gradients) included; whole-stack products peaked at 1.0-1.4 MiB."""
        _, probs, conds = ensemble(19, (system_dim, 2))
        assert len(probs) == system_dim
        grid = _bloch_grid(64, 32)
        tracemalloc.start()
        try:
            _classical_mi(probs, conds, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestStarts:
    def test_cached_grid_is_read_only_and_exact(self):
        config = OptimizerConfig()
        grid = _bloch_grid(config.theta_points, config.phi_points)
        thetas = np.linspace(0.0, np.pi, config.theta_points)
        phis = np.linspace(0.0, 2.0 * np.pi, config.phi_points, endpoint=False)
        built = qubit_basis(*(a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij")))
        assert grid.shape == built.shape == (2048, 2, 2)
        assert grid.tobytes() == built.tobytes()
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0, 0] = 0.0
        assert _bloch_grid(config.theta_points, config.phi_points) is grid

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_starts_carry_their_objective_values(self, dims):
        _, probs, conds = ensemble(23, dims)
        objective = partial(_classical_mi, probs, conds)
        bases, values, grads = _starts(objective, conds.shape[1], OptimizerConfig())
        want_values, want_grads = objective(bases)
        assert np.allclose(values, want_values, rtol=0.0, atol=1e-13)
        assert np.allclose(grads, want_grads, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_one_objective_call_per_iteration_and_one_for_the_starts(self, dims):
        _, probs, conds = ensemble(29, dims)
        calls = []

        def objective(bases):
            calls.append(len(bases))
            return _classical_mi(probs, conds, bases)

        res = maximize_over_bases(objective, conds.shape[1])
        assert res.iterations >= 1
        assert len(calls) == 1 + res.iterations
        assert calls[0] == (2048 if conds.shape[1] == 2 else 20)


class TestAscentOracles:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_rotated_commuting_ensemble_reaches_chi(self, dim):
        # conditionals diagonal in one rotated basis: measuring that basis
        # attains chi, so the optimum is known without any search
        rng = np.random.default_rng(40 + dim)
        v = haar_random_unitary(rng, dim)
        probs = rng.dirichlet(np.ones(3))
        spectra = rng.dirichlet(np.ones(dim), size=3)
        conds = np.stack([(v * w) @ v.conj().T for w in spectra])
        chi = (qd.entropy_bits(probs @ spectra)
               - sum(p * qd.entropy_bits(w) for p, w in zip(probs, spectra)))
        res = maximize_over_bases(lambda bases: _classical_mi(probs, conds, bases), dim)
        assert res.value == pytest.approx(chi, abs=OptimizerConfig().eps_opt)
        assert res.value <= chi + 1e-12

    def test_qubit_fragments_match_grid_oracle(self):
        eps_opt = OptimizerConfig().eps_opt
        for seed in range(20):
            ens, probs, conds = ensemble(500 + seed, (2, 2))
            acc = ens.accessible_information(OptimizerConfig(), optimize_lower=True)
            assert acc.lower_optimized
            floor = oracles.classical_mi_grid_max(probs, list(conds))
            assert floor - 1e-6 <= acc.lower <= ens.holevo + eps_opt


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("eps_opt", -1.0), ("eps_opt", math.nan), ("eps_opt", 0.0), ("eps_opt", math.inf),
        ("restarts", 0), ("max_refine_iter", -1), ("theta_points", 1), ("phi_points", 1),
        ("seed", -1),
    ])
    def test_out_of_range_settings_raise(self, field, value):
        """A negative or NaN eps_opt would read strong Darwinism as failing on
        states where the theorem holds; the config refuses it."""
        with pytest.raises(errors.InvalidConfig) as exc:
            OptimizerConfig(**{field: value})
        assert isinstance(exc.value, errors.QDarwinError)
        assert str(exc.value).startswith(f"{field} must be")

    def test_smallest_settings_in_range_are_accepted(self):
        config = OptimizerConfig(theta_points=2, phi_points=2, restarts=1, max_refine_iter=0,
                                 eps_opt=1e-12, seed=0)
        assert qd.verify_equivalence(qd.make_ghz_reduced(2), "S", opt=config).consistent


class TestConvergenceRule:
    def test_gap_within_tolerance_passes(self):
        res = _finish([(0.5, np.eye(2)), (0.5 - 1e-8, np.eye(2))],
                      OptimizerConfig())
        assert res.value == 0.5
        assert res.gap == pytest.approx(1e-8)

    def test_gap_beyond_tolerance_raises(self):
        with pytest.raises(errors.OptimizerDidNotConverge) as exc:
            _finish([(0.5, np.eye(2)), (0.3, np.eye(2))], OptimizerConfig())
        assert exc.value.gap == pytest.approx(0.2)

    def test_non_strict_mode_reports_gap(self):
        config = OptimizerConfig(strict_convergence=False)
        res = _finish([(0.5, np.eye(2)), (0.3, np.eye(2))], config)
        assert res.value == 0.5
        assert res.gap == pytest.approx(0.2)

    def test_single_restart_counts_as_converged(self):
        res = _finish([(0.7, np.eye(2))], OptimizerConfig())
        assert res.gap == 0.0

    def test_value_ties_resolve_to_first(self):
        first = np.eye(2)
        second = np.diag([1.0, -1.0])
        res = _finish([(0.4, first), (0.4, second)], OptimizerConfig())
        assert res.basis is first


def assert_python_ints(res):
    assert type(res.iterations) is int and type(res.capped) is int


class TestAscentEdges:
    """Iterations the usual path skips: every trial refused, and a single restart."""

    def test_every_trial_refused_stops_at_the_spacing_rule(self):
        # each call scores below the last, so no trial passes the Armijo test and each
        # iteration commits an empty stack; the steps halve until t |A|^2 no longer
        # exceeds the spacing of F = 0 at the starts
        pull = np.random.default_rng(3).standard_normal((3, 3)) * (1.0 + 1.0j)
        calls = []

        def objective(bases):
            calls.append(len(bases))
            return np.full(len(bases), 1.0 - len(calls)), np.broadcast_to(pull, bases.shape).copy()

        config = OptimizerConfig(restarts=4)
        starts = _starts(objective, 3, config)[0]
        a = _direction(np.broadcast_to(pull, starts.shape), starts)
        halvings = [next(k for k in range(100) if s * 0.5 ** k <= np.spacing(1.0))
                    for s in _inner(a, a)]
        calls.clear()
        res = maximize_over_bases(objective, 3, config)
        assert_python_ints(res)
        assert (res.iterations, res.capped, len(calls)) == (max(halvings), 0, 1 + max(halvings))
        assert res.value == 0.0 and res.gap == 0.0 and res.restarts == 4
        assert np.array_equal(res.basis, np.eye(3))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_single_restart(self, dim):
        target = haar_random_unitary(np.random.default_rng(dim), dim)[:, 0]
        config = OptimizerConfig(restarts=1)
        res = maximize_over_bases(alignment_objective(target), dim, config)
        assert_python_ints(res)
        assert res.restarts == 1 and res.gap == 0.0 and res.iterations >= 1
        assert res.value == pytest.approx(1.0, abs=1e-8)
        bases, values, grads = _starts(alignment_objective(target), dim, config)
        assert len(bases) == 1 and np.array_equal(bases[0], np.eye(dim))
        old = oracles.ascend(alignment_objective(target), bases, values, grads, 300)[0]
        assert abs(old[0] - res.value) <= 1e-12

    @pytest.mark.parametrize("max_refine_iter", [300, 3])
    def test_optimized_qutrit_report_is_json(self, max_refine_iter):
        rho = qd.make_random_density(3077685671, qd.std_layout(2, [3]))
        config = OptimizerConfig(max_refine_iter=max_refine_iter, strict_convergence=False)
        report = qd.analyze(rho, "S", opt=config).to_dict()
        acc = json.loads(json.dumps(report))["accessible_information"]
        assert acc["lower_optimized"] and acc["restarts"] == 20
        assert type(acc["iterations"]) is int and type(acc["capped"]) is int
        assert (acc["capped"] > 0) == (max_refine_iter == 3)


class TestAscentMatchesOriginal:
    """The ascent against its original loop (``oracles.ascend``: the Cayley step as a
    product and a solve, the Barzilai-Borwein products as they read) from the same
    starts.  Only rounding differs, so wherever neither side caps a restart the best
    values agree to 1e-12; iteration counts may differ and are printed, not compared."""

    @pytest.mark.parametrize("env", [(3,), (2, 2), (2, 2, 2)], ids=["3", "2x2", "2x2x2"])
    def test_same_optimum_on_full_rank_ensembles(self, env):
        config = OptimizerConfig(strict_convergence=False)
        compared, iterations = 0, []
        for seed in range(20):
            _, probs, conds = ensemble(seed, (2, *env))
            objective = partial(_classical_mi, probs, conds)
            starts = _starts(objective, conds.shape[1], config)
            runs = [ascend(objective, *(x.copy() for x in starts), config.max_refine_iter)
                    for ascend in (_ascend, oracles.ascend)]
            new, old = (_finish(list(zip(v.tolist(), b)), config, it, c) for v, b, it, c in runs)
            iterations.append((new.iterations, old.iterations))
            if new.capped == old.capped == 0:
                compared += 1
                assert new.restarts == old.restarts == len(starts[0])
                assert abs(new.value - old.value) <= 1e-12, (seed, new.value, old.value)
        print(f"2 x {list(env)}: {compared} of 20 uncapped; iterations (new, original) "
              f"{iterations}")
        assert compared >= 10
