"""Unit tests for the market layer: preference orders, price books,
market partitioning/compilation, the brokered allocator, the
market-layer invariants and the ``verify --check market`` checker."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator, RoundRobinAllocator
from repro.errors import ValidationError
from repro.market import (
    BrokeredAllocator,
    PriceBook,
    Provider,
    ProviderMarket,
)
from repro.model import Infrastructure, PlacementGroup, Request
from repro.model.placement import UNPLACED
from repro.objectives.preference import (
    PREFERENCE_CRITERIA,
    active_preference,
    parse_preference,
    select_index,
    set_preference,
)
from repro.types import PlacementRule
from repro.utils.pareto import dominance_matrix
from repro.verify import CheckContext, check_market_conformance, run_invariants
from repro.verify.invariants import _CHECKERS
from repro.workloads import ScenarioGenerator, ScenarioSpec


@pytest.fixture()
def scenario():
    spec = ScenarioSpec(
        servers=12, datacenters=3, vms=10, max_request_size=3, tightness=0.5
    )
    return ScenarioGenerator(spec, seed=11).generate()


@pytest.fixture(autouse=True)
def _clear_active_preference():
    yield
    set_preference(None)


# ----------------------------------------------------------------------
# Preference parsing
# ----------------------------------------------------------------------
class TestParsePreference:
    def test_full_spec_round_trips(self):
        order = parse_preference("qos>provider_cost>migration")
        assert order.criteria == ("qos", "provider_cost", "migration")
        assert order.columns == (1, 0, 2)
        assert parse_preference(order.spec) == order

    def test_partial_spec_pads_canonical_tail(self):
        order = parse_preference("migration")
        assert order.columns == (2, 0, 1)

    def test_aliases_and_case_fold(self):
        assert parse_preference("DOWNTIME>Energy").columns == (1, 0, 2)

    @pytest.mark.parametrize(
        "spec", ["", "   ", "qos>>cost", ">qos", "qos>"]
    )
    def test_empty_or_torn_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_preference(spec)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValidationError, match="karma"):
            parse_preference("qos>karma")

    def test_duplicate_column_via_alias_rejected(self):
        # 'cost' and 'energy' both alias objective column 0.
        with pytest.raises(ValidationError, match="repeats"):
            parse_preference("cost>qos>energy")

    def test_non_string_rejected(self):
        with pytest.raises(ValidationError):
            parse_preference(None)

    def test_set_preference_validates_eagerly(self):
        with pytest.raises(ValidationError):
            set_preference("qos>bogus")
        assert active_preference() is None
        assert set_preference("qos>cost").spec == "qos>cost"


# ----------------------------------------------------------------------
# Preference selection
# ----------------------------------------------------------------------
class TestSelection:
    FRONT = np.array(
        [
            [3.0, 1.0, 5.0],
            [1.0, 4.0, 2.0],
            [1.0, 3.0, 9.0],
            [2.0, 2.0, 1.0],
        ]
    )

    def test_lexicographic_minimum_wins(self):
        # cost first: rows 1 and 2 tie at 1.0; qos breaks the tie.
        assert parse_preference("cost>qos").select(self.FRONT) == 2
        assert parse_preference("qos").select(self.FRONT) == 0
        assert parse_preference("migration").select(self.FRONT) == 3

    def test_duplicate_rows_pick_lowest_index(self):
        front = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert parse_preference("cost").select(front) == 1

    def test_none_is_ideal_point(self):
        # Normalized ideal-point distance: row 3 balances all axes.
        idx = select_index(self.FRONT, None)
        lo = self.FRONT.min(axis=0)
        span = np.where(
            (self.FRONT.max(axis=0) - lo) > 0, self.FRONT.max(axis=0) - lo, 1.0
        )
        normalized = (self.FRONT - lo) / span
        assert idx == int(np.argmin(np.sqrt((normalized**2).sum(axis=1))))

    def test_empty_front_rejected(self):
        with pytest.raises(ValidationError):
            select_index(np.empty((0, 3)))
        with pytest.raises(ValidationError):
            parse_preference("qos").select(np.empty((0, 3)))

    def test_active_preference_lifecycle(self):
        assert active_preference() is None
        installed = set_preference("qos>cost")
        assert active_preference() is installed
        assert set_preference(None) is None
        assert active_preference() is None

    def test_criteria_table_spans_all_columns(self):
        assert set(PREFERENCE_CRITERIA.values()) == {0, 1, 2}


# ----------------------------------------------------------------------
# Price books
# ----------------------------------------------------------------------
class TestPriceBook:
    def test_neutral_default(self):
        book = PriceBook()
        assert book.price_at(13.0) == (1.0, 1.0)

    def test_diurnal_curve_oscillates(self):
        book = PriceBook(curve="diurnal", amplitude=0.2, period=24.0)
        assert book.multiplier_at(6.0) == pytest.approx(1.2)
        assert book.multiplier_at(18.0) == pytest.approx(0.8)
        assert book.multiplier_at(0.0) == pytest.approx(1.0)

    def test_trend_curve_grows_linearly(self):
        book = PriceBook(curve="trend", amplitude=0.5, period=10.0)
        assert book.multiplier_at(10.0) == pytest.approx(1.5)

    def test_static_rates_scale_the_dynamic_factor(self):
        book = PriceBook(operating_rate=2.0, usage_rate=0.5)
        assert book.price_at(3.0) == (2.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"operating_rate": -0.1},
            {"usage_rate": -1.0},
            {"curve": "random_walk"},
            {"period": 0.0},
            {"curve": "diurnal", "amplitude": 1.0},
            {"curve": "trend", "amplitude": -0.2},
        ],
    )
    def test_invalid_books_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PriceBook(**kwargs)


# ----------------------------------------------------------------------
# Market partitioning and compilation
# ----------------------------------------------------------------------
class TestProviderMarket:
    def test_single_provider_compiles_byte_identical(self, scenario):
        infra = scenario.infrastructure
        compiled = ProviderMarket.from_infrastructure(infra, 1).compile(at=5.0)
        merged = compiled.infrastructure
        assert merged.p == 1
        assert merged.server_provider is None
        np.testing.assert_array_equal(merged.capacity, infra.capacity)
        np.testing.assert_array_equal(merged.usage_cost, infra.usage_cost)
        np.testing.assert_array_equal(
            merged.operating_cost, infra.operating_cost
        )
        np.testing.assert_array_equal(
            merged.server_datacenter, infra.server_datacenter
        )

    def test_partition_covers_every_server_once(self, scenario):
        infra = scenario.infrastructure
        market = ProviderMarket.from_infrastructure(infra, 3)
        sizes = [p.infrastructure.m for p in market.providers]
        assert sum(sizes) == infra.m
        assert all(size >= 1 for size in sizes)
        merged = market.compile(at=0.0).infrastructure
        assert merged.m == infra.m
        assert merged.p == 3
        counts = np.bincount(merged.server_provider, minlength=3)
        assert counts.tolist() == sizes

    def test_fewer_datacenters_than_providers_deals_servers(self, scenario):
        infra = scenario.infrastructure  # 3 datacenters
        market = ProviderMarket.from_infrastructure(infra, 5)
        sizes = [p.infrastructure.m for p in market.providers]
        assert sum(sizes) == infra.m
        assert all(size >= 1 for size in sizes)

    def test_cannot_split_past_server_count(self, scenario):
        with pytest.raises(ValidationError, match="cannot split"):
            ProviderMarket.from_infrastructure(
                scenario.infrastructure, scenario.infrastructure.m + 1
            )

    def test_mismatched_books_or_names_rejected(self, scenario):
        infra = scenario.infrastructure
        with pytest.raises(ValidationError):
            ProviderMarket.from_infrastructure(
                infra, 2, price_books=[PriceBook()]
            )
        with pytest.raises(ValidationError):
            ProviderMarket.from_infrastructure(infra, 2, names=("only-one",))

    def test_duplicate_provider_names_rejected(self, scenario):
        infra = scenario.infrastructure
        provider = Provider(name="acme", infrastructure=infra)
        with pytest.raises(ValidationError, match="duplicate"):
            ProviderMarket([provider, provider])

    def test_compile_scales_cost_vectors_by_price_book(self, scenario):
        infra = scenario.infrastructure
        books = [
            PriceBook(operating_rate=1.0, usage_rate=1.0),
            PriceBook(operating_rate=2.0, usage_rate=3.0),
        ]
        market = ProviderMarket.from_infrastructure(
            infra, 2, price_books=books
        )
        compiled = market.compile(at=0.0)
        merged = compiled.infrastructure
        for k, provider in enumerate(market.providers):
            rows = np.flatnonzero(merged.provider_of_server == k)
            np.testing.assert_allclose(
                merged.usage_cost[rows],
                provider.infrastructure.usage_cost * books[k].usage_rate,
            )
            np.testing.assert_allclose(
                merged.operating_cost[rows],
                provider.infrastructure.operating_cost
                * books[k].operating_rate,
            )
        assert compiled.prices == ((1.0, 1.0), (2.0, 3.0))

    def test_dynamic_prices_move_with_time(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 2)
        morning = market.compile(at=6.0).infrastructure.usage_cost
        evening = market.compile(at=18.0).infrastructure.usage_cost
        assert not np.array_equal(morning, evening)


# ----------------------------------------------------------------------
# The brokered allocator
# ----------------------------------------------------------------------
class TestBrokeredAllocator:
    @pytest.fixture()
    def brokered(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
        broker = BrokeredAllocator(market, RoundRobinAllocator)
        return broker.allocate(scenario.requests, at=0.0)

    def test_one_plan_per_provider_plus_split(self, brokered):
        routes = [plan.route for plan in brokered.plans]
        assert routes == [
            "provider:provider0",
            "provider:provider1",
            "provider:provider2",
            "split",
        ]

    def test_provider_routes_are_confined(self, brokered):
        provider_of_server = brokered.instance.infrastructure.provider_of_server
        for k, plan in enumerate(brokered.plans[:-1]):
            placed = plan.outcome.assignment[
                plan.outcome.assignment != UNPLACED
            ]
            if placed.size:
                assert (provider_of_server[placed] == k).all(), plan.route

    def test_front_is_mutually_nondominated(self, brokered):
        objs = brokered.front_objectives
        assert len(brokered.front) >= 1
        assert not dominance_matrix(objs).any()

    def test_deployed_is_a_front_member(self, brokered):
        assert any(plan is brokered.deployed for plan in brokered.front)
        assert brokered.preference_spec is None

    def test_broker_is_deterministic(self, scenario, brokered):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
        again = BrokeredAllocator(market, RoundRobinAllocator).allocate(
            scenario.requests, at=0.0
        )
        np.testing.assert_array_equal(
            again.deployed.outcome.assignment,
            brokered.deployed.outcome.assignment,
        )
        assert again.deployed.route == brokered.deployed.route

    def test_explicit_preference_is_recorded(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
        set_preference("qos>cost")
        outcome = BrokeredAllocator(market, RoundRobinAllocator).allocate(
            scenario.requests, at=0.0
        )
        assert outcome.preference_spec == "qos>cost"
        # The qos-first pick minimizes column 1 over the front.
        qos = outcome.front_objectives[:, 1]
        assert outcome.deployed.objectives[1] == qos.min()

    def test_empty_bundle_rejected(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 2)
        with pytest.raises(ValidationError):
            BrokeredAllocator(market, RoundRobinAllocator).allocate([])

    def test_a_straddling_request_counts_its_extra_providers(self):
        """Each provider owns one datacenter, so the split route can host
        the different-datacenters trio only across all three providers:
        two market violations, and the clean confined plans keep that
        plan out of the front."""
        infrastructure = Infrastructure.homogeneous(
            datacenters=3, servers_per_datacenter=2, capacity=[32, 128, 2000]
        )

        def request(n, groups=()):
            return Request(
                demand=np.ones((n, 3)),
                qos_guarantee=np.full(n, 0.9),
                downtime_cost=np.ones(n),
                migration_cost=np.ones(n),
                groups=groups,
            )

        trio = request(3, (PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1, 2)),))
        market = ProviderMarket.from_infrastructure(infrastructure, 3)
        outcome = BrokeredAllocator(market, FirstFitAllocator).allocate([trio, request(1)])
        *confined, split = outcome.plans
        assert split.route == "split"
        assert split.outcome.accepted.tolist() == [True, True]
        assert split.market_violations == 2 and not split.clean
        assert split.provider_of_request[0] == -1
        for k, plan in enumerate(confined):
            assert plan.market_violations == 0 and plan.clean, plan.route
            assert plan.provider_of_request[1] == k
        assert all(plan is not split for plan in outcome.front)


# ----------------------------------------------------------------------
# Market invariants + the conformance checker
# ----------------------------------------------------------------------
class TestMarketVerification:
    def test_market_invariants_are_registered(self):
        assert {
            "provider_capacity_closure",
            "preference_selection_consistency",
            "brokered_front_non_domination",
        } <= set(_CHECKERS)

    def test_invariants_pass_on_brokered_outcome(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
        outcome = BrokeredAllocator(market, RoundRobinAllocator).allocate(
            scenario.requests, at=0.0
        )
        ctx = CheckContext(
            infrastructure=outcome.instance.infrastructure,
            requests=scenario.requests,
            outcome=outcome.deployed.outcome,
            front_objectives=outcome.front_objectives,
            brokered=outcome,
        )
        report = run_invariants(ctx)
        assert report.ok, report.format()
        assert "provider_capacity_closure" in report.checked
        assert "brokered_front_non_domination" in report.checked

    def test_front_invariant_flags_foreign_deployed_plan(self, scenario):
        market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
        outcome = BrokeredAllocator(market, RoundRobinAllocator).allocate(
            scenario.requests, at=0.0
        )
        impostor = outcome.plans[0]
        if impostor is outcome.deployed:
            impostor = outcome.plans[1]
        survivors = tuple(
            plan for plan in outcome.front if plan is not outcome.deployed
        )
        object.__setattr__(outcome, "front", survivors or (impostor,))
        ctx = CheckContext(
            infrastructure=outcome.instance.infrastructure,
            requests=scenario.requests,
            brokered=outcome,
        )
        report = run_invariants(ctx, names=["brokered_front_non_domination"])
        assert not report.ok

    def test_check_market_conformance_is_green(self):
        report = check_market_conformance(seed=3)
        assert report.ok, report.format()
        assert report.comparisons > 0
        assert list(report.mismatches) == []
