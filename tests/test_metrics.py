"""Evaluation metrics: crash/offroad rates, KDE coverage, ADE/FDE."""

import math

import numpy as np
import pytest

from treeplan import (
    AgentState,
    ScenarioNode,
    ScenarioTree,
    SimTrace,
    StageSchedule,
    Trajectory,
    ade_fde,
    crash_and_offroad_rates,
    kde_coverage,
)
from treeplan.errors import EmptyTrace, HorizonMismatch
from treeplan.metrics import DEFAULT_BANDWIDTH, DEFAULT_CELL, DEFAULT_THRESHOLD


def _trace(positions, collisions=(), offroad=()):
    steps = []
    for k, (x, y) in enumerate(positions):
        steps.append(
            {
                "t": 0.1 * (k + 1),
                "ego": {"x": float(x), "y": float(y), "v": 5.0, "psi": 0.0},
                "agents": {},
                "plan_id": "p",
                "events": {
                    "collision": ["a"] if k in collisions else [],
                    "offroad": k in offroad,
                    "spawn": [],
                    "despawn": [],
                },
            }
        )
    return SimTrace(steps=steps)


class TestRates:
    def test_clean_trace_is_zero(self):
        crash, offroad = crash_and_offroad_rates(_trace([(x, 0) for x in range(10)]))
        assert (crash, offroad) == (0.0, 0.0)

    def test_fraction_of_steps(self):
        trace = _trace([(x, 0) for x in range(10)], collisions={2, 3}, offroad={5})
        crash, offroad = crash_and_offroad_rates(trace)
        assert crash == pytest.approx(0.2)
        assert offroad == pytest.approx(0.1)

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            crash_and_offroad_rates(SimTrace())


class TestCoverage:
    def test_stationary_point_closed_form(self):
        """A stationary ego covers exactly the grid cells where one Gaussian
        kernel clears the threshold, a closed-form disc of lattice points."""
        trace = _trace([(0.0, 0.0)] * 25)
        cov = kde_coverage(trace)
        norm = 1.0 / (2 * math.pi * DEFAULT_BANDWIDTH**2)
        r2 = -2 * DEFAULT_BANDWIDTH**2 * math.log(DEFAULT_THRESHOLD / norm)
        expected = sum(
            1
            for i in range(-10, 11)
            for j in range(-10, 11)
            if (i * DEFAULT_CELL) ** 2 + (j * DEFAULT_CELL) ** 2 <= r2
        )
        assert cov == expected
        assert cov == 13  # the documented default: ~13 cells for one point

    def test_duplicate_positions_do_not_inflate(self):
        once = kde_coverage(_trace([(0.0, 0.0)]))
        many = kde_coverage(_trace([(0.0, 0.0)] * 50))
        assert once == many

    def test_monotone_under_extension(self):
        """Extending a trace never reduces coverage (random pairs)."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            extra = int(rng.integers(1, 20))
            pts = rng.uniform(-30, 30, size=(n + extra, 2))
            short = kde_coverage(_trace(pts[:n]))
            longer = kde_coverage(_trace(pts))
            assert longer >= short

    def test_moving_covers_more_than_stationary(self):
        still = kde_coverage(_trace([(0.0, 0.0)] * 20))
        moving = kde_coverage(_trace([(2.0 * k, 0.0) for k in range(20)]))
        assert moving > still

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            kde_coverage(_trace([(0, 0)]), bandwidth=0.0)

    def test_separable_density_counts_the_cells_of_the_full_grid(self):
        """The separable density clears the threshold on exactly the cells
        the (cells x points x 2) body found, on random walks and scatters."""
        rng = np.random.default_rng(11)
        for k in range(60):
            n = int(rng.integers(1, 400))
            if k % 2:
                pts = rng.uniform(-40, 40, size=(n, 2))
            else:
                pts = np.cumsum(rng.normal(0.0, 0.8, size=(n, 2)) + [0.6, 0.0], axis=0)
            trace = _trace(pts)
            bandwidth = float(rng.choice([DEFAULT_BANDWIDTH, 0.7, 3.5]))
            assert kde_coverage(trace, bandwidth) == _ref_kde_coverage(trace, bandwidth)


def _ref_kde_coverage(trace, bandwidth=DEFAULT_BANDWIDTH, cell=DEFAULT_CELL, threshold=DEFAULT_THRESHOLD):
    """kde_coverage as it was: every (cell, point) distance summed in chunks."""
    pts = np.array(sorted({(s["ego"]["x"], s["ego"]["y"]) for s in trace.steps}))
    pad = 3.0 * bandwidth
    x0, y0 = pts.min(axis=0) - pad
    x1, y1 = pts.max(axis=0) + pad
    gx = cell * np.arange(math.floor(x0 / cell), math.ceil(x1 / cell) + 1)
    gy = cell * np.arange(math.floor(y0 / cell), math.ceil(y1 / cell) + 1)
    xx, yy = np.meshgrid(gx, gy)
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    norm = 1.0 / (2.0 * math.pi * bandwidth**2)
    density = np.zeros(len(grid))
    for chunk in np.array_split(pts, max(1, len(pts) // 256)):
        d2 = ((grid[:, None, :] - chunk[None, :, :]) ** 2).sum(axis=2)
        density += norm * np.exp(-d2 / (2.0 * bandwidth**2)).sum(axis=1)
    return int(np.count_nonzero(density >= threshold))


class TestAdeFde:
    def _tree(self, offsets):
        """One-stage scenario tree with one mode per offset for agent a."""
        schedule = StageSchedule.uniform(1, stage_duration=1.0)
        n = 11
        base = [AgentState(1.0 * k * 0.1 * 5, 0.0, 5.0, 0.0) for k in range(n)]
        root_traj = Trajectory(0.0, 0.1, (base[0],))
        nodes = {(): ScenarioNode((), 0, {"a": root_traj}, 1.0)}
        p = 1.0 / len(offsets)
        for j, off in enumerate(offsets):
            samples = tuple(AgentState(s.x, s.y + off, s.v, s.psi) for s in base)
            nodes[(j,)] = ScenarioNode((j,), 1, {"a": Trajectory(0.0, 0.1, samples)}, p)
        tree = ScenarioTree(nodes=nodes, schedule=schedule)
        realized = {"a": Trajectory(0.0, 0.1, tuple(base))}
        return tree, realized

    def test_exact_prediction_zero_error(self):
        tree, realized = self._tree([0.0])
        ade, fde = ade_fde(tree, realized)
        assert ade == pytest.approx(0.0, abs=1e-12)
        assert fde == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset(self):
        tree, realized = self._tree([2.0])
        ade, fde = ade_fde(tree, realized)
        assert ade == pytest.approx(2.0, abs=1e-12)
        assert fde == pytest.approx(2.0, abs=1e-12)

    def test_uniform_mode_average(self):
        """One exact mode and one 2 m off average to (1, 1)."""
        tree, realized = self._tree([0.0, 2.0])
        ade, fde = ade_fde(tree, realized)
        assert ade == pytest.approx(1.0, abs=1e-12)
        assert fde == pytest.approx(1.0, abs=1e-12)

    def test_short_realization_raises(self):
        tree, realized = self._tree([0.0])
        short = {"a": Trajectory(0.0, 0.1, realized["a"].samples[:5])}
        with pytest.raises(HorizonMismatch):
            ade_fde(tree, short)

    def test_missing_agent_raises(self):
        tree, _ = self._tree([0.0])
        with pytest.raises(HorizonMismatch):
            ade_fde(tree, {})
