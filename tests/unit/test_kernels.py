"""Unit tests for the kernel layer (scoped selection, edge cases, tiles).

The heavy numpy-vs-reference sweep lives in
:func:`repro.verify.check_kernel_conformance`; these tests pin down the
scoped override, that the sweep catches drift, the structural edge
cases vectorized code most often gets wrong — empty populations,
all-UNPLACED rows, single-server estates, int32 genomes — and the
satellite contracts around them (the repair usage tile, each
constraint's batch body).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.constraints import group_violations
from repro.constraints.base import Constraint
from repro.engine import CompiledProblem
from repro.engine.kernels import GroupLayout, NumpyKernel, active_kernel, use_kernel
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.utils.scatter import scatter_rows
from repro.verify import check_kernel_conformance
from repro.verify.kernels import _cases as _conformance_cases
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


def _compiled(servers=6, datacenters=2, vms=14, seed=5, tightness=0.8):
    spec = ScenarioSpec(
        servers=servers, datacenters=datacenters, vms=vms, tightness=tightness
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(list(scenario.requests))
    return CompiledProblem.compile(scenario.infrastructure, merged)


class TestRegistry:
    def test_reference_and_numpy_always_available(self):
        assert active_kernel().name == "numpy"
        for name in ("reference", "numpy"):
            with use_kernel(name) as kernel:
                assert kernel.name == name

    def test_use_kernel_restores_previous(self):
        before = active_kernel()
        with use_kernel("reference") as kernel:
            assert kernel.name == "reference"
            assert active_kernel() is kernel
        assert active_kernel() is before


class TestConformanceCatchesDrift:
    def test_one_ulp_qos_nudge_fails_the_check(self, monkeypatch):
        """A numpy primitive one ulp off the reference must fail the
        check, both at the primitive and in the objectives it feeds."""
        exact = NumpyKernel.server_min_qos

        def nudged(self, *args):
            worst = exact(self, *args)
            return np.nextafter(worst, np.inf)

        monkeypatch.setattr(NumpyKernel, "server_min_qos", nudged)
        report = check_kernel_conformance(seed=0, instances=1)
        assert not report.ok
        assert {"server_min_qos", "objectives"} <= {
            mismatch.field for mismatch in report.mismatches
        }, report.format()


class TestEdgeCases:
    """Satellite: structural edge cases byte-identical across kernels."""

    def _snapshots(self, compiled, population):
        evaluator = compiled.evaluator(include_assignment_constraint=True)
        out = {}
        for name in ("reference", "numpy"):
            with use_kernel(name):
                result = evaluator.evaluate_population(population)
                out[name] = (
                    result.objectives.tobytes(),
                    result.violations.tobytes(),
                )
        return out

    def _assert_identical(self, snapshots):
        reference = snapshots.pop("reference")
        for name, got in snapshots.items():
            assert got == reference, f"{name} diverged from reference"

    def test_empty_population(self):
        compiled = _compiled()
        population = np.empty((0, compiled.request.n), dtype=np.int64)
        self._assert_identical(self._snapshots(compiled, population))

    def test_all_unplaced_rows(self):
        compiled = _compiled()
        population = np.full((4, compiled.request.n), UNPLACED, dtype=np.int64)
        self._assert_identical(self._snapshots(compiled, population))

    def test_single_server_estate(self):
        compiled = _compiled(servers=1, datacenters=1, vms=6, tightness=0.6)
        rng = np.random.default_rng(0)
        population = rng.integers(0, 1, size=(5, compiled.request.n))
        population[0, 0] = UNPLACED
        self._assert_identical(self._snapshots(compiled, population))

    def test_int32_genomes(self):
        compiled = _compiled()
        rng = np.random.default_rng(1)
        population = rng.integers(
            0, compiled.m, size=(6, compiled.request.n)
        ).astype(np.int32)
        self._assert_identical(self._snapshots(compiled, population))

    def test_conformance_checker_clean(self):
        report = check_kernel_conformance(seed=7, instances=1)
        assert report.ok, report.format()
        assert report.comparisons > 0


class TestBatchViolationOverrides:
    """Satellite: every built-in constraint has its own batch body, and
    it agrees row by row with an independent per-genome count."""

    def test_every_builtin_constraint_overrides_the_fallback(self):
        compiled = _compiled(servers=8, vms=20, seed=9)
        constraints = compiled.constraint_set(include_assignment=True)
        checked = [constraints.capacity, *constraints.group_constraints]
        if constraints.assignment is not None:
            checked.append(constraints.assignment)
        assert len(checked) >= 3
        for constraint in checked:
            assert (
                type(constraint).batch_violations
                is not Constraint.batch_violations
            ), f"{type(constraint).__name__} has no batch body"

    def test_overrides_match_the_fallback_rowwise(self):
        compiled = _compiled(servers=8, vms=20, seed=9)
        constraints = compiled.constraint_set(include_assignment=True)
        rng = np.random.default_rng(3)
        population = rng.integers(0, compiled.m, size=(12, compiled.request.n))
        population[rng.random(population.shape) < 0.05] = UNPLACED
        capacity = constraints.capacity
        per_row = []
        for genome in population:
            placed = genome != UNPLACED
            usage = scatter_rows(genome[placed], compiled.request.demand[placed], compiled.m)
            per_row.append(int((usage > capacity.threshold).sum()))
        assert capacity.batch_violations(population).tolist() == per_row
        datacenter = compiled.infrastructure.server_datacenter.tolist()
        for constraint in constraints.group_constraints:
            per_row = [
                group_violations(constraint.rule, genome[list(constraint.members)].tolist(), datacenter)
                for genome in population
            ]
            assert constraint.batch_violations(population).tolist() == per_row


class TestGroupLayout:
    def test_layout_skips_groupless_instances(self):
        spec = ScenarioSpec(servers=4, datacenters=1, vms=6, affinity_probability=0.0)
        scenario = ScenarioGenerator(spec, seed=2).generate()
        merged, _ = Request.concatenate(list(scenario.requests))
        compiled = CompiledProblem.compile(scenario.infrastructure, merged)
        constraints = compiled.constraint_set()
        if not constraints.group_constraints:
            assert constraints.group_layout() is None

    def test_layout_counts_match_constraints(self):
        compiled = _compiled(servers=8, vms=24, seed=11)
        constraints = compiled.constraint_set()
        layout = constraints.group_layout()
        if layout is None:
            pytest.skip("fuzzed instance drew no placement groups")
        assert isinstance(layout, GroupLayout)
        assert layout.n_groups == len(constraints.group_constraints)


class TestRepairUsageTile:
    def test_tile_rows_match_per_genome_usage(self):
        """The repair screen hands rows of its usage tile to the walk in
        place of per-genome scatters: the rows must equal them bitwise,
        unplaced genes included."""
        from repro.tabu.repair import TabuRepair

        compiled = _compiled(servers=6, vms=16, seed=13, tightness=0.95)
        repairer = TabuRepair(compiled, seed=0)
        rng = np.random.default_rng(4)
        population = rng.integers(
            0, compiled.m, size=(7, compiled.request.n), dtype=np.int64
        )
        population[1::2][rng.random((3, compiled.request.n)) < 0.2] = UNPLACED
        capacity = repairer.constraints.capacity
        tile = capacity.batch_usage(population)
        for row, genome in enumerate(population):
            placed = genome != UNPLACED
            usage = scatter_rows(genome[placed], compiled.request.demand[placed], compiled.m)
            assert tile[row].tobytes() == usage.tobytes()


class TestConformanceCaseCoverage:
    """The QoS edge cases of ``verify --check kernels`` reach the branch
    each one is named for."""

    @pytest.fixture(scope="class")
    def cases(self):
        return {name: case for name, *case in _conformance_cases(seed=7, instances=1)}

    @staticmethod
    def _load(compiled, population, base_usage):
        """(infrastructure, placed plus committed usage) of one case."""
        usage = compiled.evaluator().constraints.capacity.batch_usage(population)
        total = usage + (0.0 if base_usage is None else base_usage)
        return compiled.infrastructure, total

    def test_zero_capacity_case_takes_the_inf_branch(self, cases):
        infra, total = self._load(*cases["edge: zero-capacity attributes"])
        empty = infra.capacity <= 0
        assert empty.any()
        assert (empty & (total > 0)).any()  # loads to inf
        assert (empty & (total == 0)).any()  # stays at load 0

    def test_committed_base_usage_is_nonzero(self, cases):
        _, _, base_usage = cases["edge: committed base usage"]
        assert base_usage is not None and np.all(base_usage > 0)

    def test_no_overloaded_cell(self, cases):
        infra, total = self._load(*cases["edge: no overloaded cell"])
        assert total.any()
        assert not np.any(total / infra.capacity > infra.max_load)

    def test_paper_width_tile(self, cases):
        compiled, population, _ = cases["paper width: 800x1600"]
        assert (compiled.m, compiled.n) == (800, 1600)
        assert population.shape == (3, 1600)

    def test_fully_placed_paper_width_tile(self, cases):
        compiled, population, _ = cases["paper width: 800x1600 fully placed"]
        assert (compiled.m, compiled.n) == (800, 1600)
        assert population.shape == (16, 1600)
        assert not (population == UNPLACED).any()


# ----------------------------------------------------------------------
# The numpy backend's bodies before the one-tile rewrite, verbatim: the
# oracles the rewritten primitives must match byte for byte.
# ----------------------------------------------------------------------
def flat_key_batch_usage(population, demand, m):
    """``NumpyKernel.batch_usage`` over one flat (row, server, attr) key."""
    pop, n = population.shape
    h = demand.shape[1]
    mask = population != UNPLACED
    # One flat (row, server, attr) index per gene-attribute pair;
    # unplaced genes land in a scratch server bucket at index m.
    servers = np.where(mask, population, m)
    cells = (np.arange(pop, dtype=np.int64)[:, None] * (m + 1) + servers)
    flat = (cells[:, :, None] * h + np.arange(h, dtype=np.int64)).ravel()
    weights = np.broadcast_to(demand, (pop, n, h)).ravel()
    counts = np.bincount(flat, weights=weights, minlength=pop * (m + 1) * h)
    return counts.reshape(pop, m + 1, h)[:, :m, :]


def subset_exp_server_min_qos(usage, base_usage, capacity, max_load, max_qos):
    """``NumpyKernel.server_min_qos`` with ``exp`` on the overloaded cells only."""
    total = usage + base_usage
    if (capacity > 0).all():
        load = total / capacity
    else:
        safe = np.where(capacity > 0, capacity, 1.0)
        load = np.where((capacity <= 0) & (total > 0), np.inf, total / safe)
    qos = np.empty(load.shape, dtype=np.float64)
    qos[...] = max_qos
    # Flat indices of the overloaded cells; ``cell`` is each one's
    # (server, attribute) entry in the (m, h) knee/ceiling tables.
    over = np.flatnonzero(load > max_load)
    if over.size:
        cell = over % max_load.size
        knee = max_load.ravel()[cell]
        # Overloaded cells have load > knee, so the exp argument is
        # already <= 0 — no clamp needed (matches the reference's
        # minimum(0, .) on this subset element for element).
        qos.ravel()[over] = max_qos.ravel()[cell] * np.exp(
            (knee - load.ravel()[over]) / (1.0 - knee)
        )
    # Column-wise minimum over the attribute axis: a reduction over
    # a 3-wide last axis runs one short inner loop per server.
    worst = qos[..., 0].copy()
    for col in range(1, qos.shape[-1]):
        np.minimum(worst, qos[..., col], out=worst)
    return worst


@dataclasses.dataclass(frozen=True)
class ParityCase:
    """One evaluation input for the byte-parity fuzz."""

    name: str
    infrastructure: Infrastructure
    request: Request
    population: np.ndarray
    #: (m, h) committed usage; zeros for an empty estate.
    base_usage: np.ndarray


def parity_cases() -> list[ParityCase]:
    """Small fuzzed inputs over every shape the rewrite must survive:
    pop 0, 1 and odd; fully placed, 2% and 100% UNPLACED; int32 and
    int64 genomes; m = 1; a zero-capacity attribute; committed base
    usage; an estate where no cell can overload."""
    rng = np.random.default_rng(13)
    six = _compiled(servers=6, vms=14, seed=5)
    infra, request = six.infrastructure, six.request
    zero_capacity = infra.capacity.copy()
    zero_capacity[::2, 0] = 0.0
    single = _compiled(servers=1, datacenters=1, vms=6, tightness=0.6)
    # name -> (estate, request, the capacity committed usage scales with)
    estates = {
        "6 servers": (infra, request, infra.capacity),
        "m=1": (single.infrastructure, single.request, single.infrastructure.capacity),
        "zero-capacity attribute": (
            dataclasses.replace(infra, capacity=zero_capacity), request, infra.capacity
        ),
        "no overloaded cell": (
            dataclasses.replace(infra, capacity=infra.capacity * 1000.0),
            request,
            infra.capacity,
        ),
    }
    cases = []
    for estate, (infrastructure, req, scale) in estates.items():
        m, h = infrastructure.m, infrastructure.h
        committed = {
            "empty estate": np.zeros((m, h)),
            "committed usage": rng.random((m, h)) * scale * 0.6,
        }
        for (base_name, base_usage), pop, unplaced, dtype in itertools.product(
            committed.items(), (0, 1, 7), (0.0, 0.02, 1.0), (np.int64, np.int32)
        ):
            population = rng.integers(0, m, size=(pop, req.n))
            population[rng.random(population.shape) < unplaced] = UNPLACED
            cases.append(
                ParityCase(
                    f"{estate}, {base_name}, pop {pop}, {unplaced:.0%} unplaced, "
                    f"{np.dtype(dtype).name}",
                    infrastructure,
                    req,
                    population.astype(dtype),
                    base_usage,
                )
            )
    return cases


def paper_scale_case() -> ParityCase:
    """One NSGA-III evaluation call at the paper's widest size: 100
    fully placed genomes of 1600 VMs on 800 servers."""
    compiled = _compiled(servers=800, datacenters=4, vms=1600, seed=1, tightness=0.65)
    m = compiled.m
    population = np.random.default_rng(3).integers(0, m, size=(100, compiled.request.n))
    return ParityCase(
        "paper scale: 100x1600, m=800",
        compiled.infrastructure,
        compiled.request,
        population,
        np.zeros((m, compiled.infrastructure.h)),
    )


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOneTileEvaluationParity:
    """The numpy backend's population tile and QoS primitive keep every
    byte of their previous bodies (the oracles above)."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [*parity_cases(), paper_scale_case()]

    def test_cases_cover_the_listed_shapes(self, cases):
        pops = {case.population.shape[0] for case in cases}
        assert {0, 1, 7, 100} <= pops
        assert any(case.population.dtype == np.int32 for case in cases)
        assert any(case.infrastructure.m == 1 for case in cases)
        assert any(case.base_usage.any() for case in cases)
        assert any((case.infrastructure.capacity <= 0).any() for case in cases)
        unplaced = [(case.population == UNPLACED).mean() for case in cases if case.population.size]
        assert 0.0 in unplaced and 1.0 in unplaced and any(0 < u < 1 for u in unplaced)

    def test_batch_usage(self, cases):
        kernel = NumpyKernel()
        for case in cases:
            demand, m = case.request.demand, case.infrastructure.m
            got = kernel.batch_usage(case.population, demand, m)
            # The flat-key body returned an int64 tile for pop 0.
            assert got.dtype == np.float64 and got.flags.c_contiguous, case.name
            assert same_bytes(got, flat_key_batch_usage(case.population, demand, m)), case.name

    def test_server_min_qos(self, cases):
        kernel = NumpyKernel()
        for case in cases:
            infra = case.infrastructure
            usage = flat_key_batch_usage(case.population, case.request.demand, infra.m)
            tables = (case.base_usage, infra.capacity, infra.max_load, infra.max_qos)
            want = subset_exp_server_min_qos(usage, *tables)
            assert same_bytes(kernel.server_min_qos(usage, *tables), want), case.name
            if usage.shape[0]:  # the single-genome (m, h) form
                want = subset_exp_server_min_qos(usage[0], *tables)
                assert same_bytes(kernel.server_min_qos(usage[0], *tables), want), case.name
