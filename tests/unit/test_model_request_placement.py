"""Unit tests for requests, placement groups and the placement encoding."""

import numpy as np
import pytest

from repro.errors import ConstraintError, EncodingError, ValidationError
from repro.model import (
    AttributeSchema,
    Infrastructure,
    Placement,
    PlacementGroup,
    Request,
)
from repro.model.placement import UNPLACED
from repro.types import PlacementRule


class TestPlacementGroup:
    def test_needs_two_members(self):
        with pytest.raises(ConstraintError):
            PlacementGroup(PlacementRule.SAME_SERVER, (0,))

    def test_duplicates_rejected(self):
        with pytest.raises(ConstraintError):
            PlacementGroup(PlacementRule.SAME_SERVER, (1, 1))

    def test_negative_rejected(self):
        with pytest.raises(ConstraintError):
            PlacementGroup(PlacementRule.SAME_SERVER, (-1, 2))

    def test_rule_family_flags(self):
        assert PlacementRule.SAME_SERVER.is_affinity
        assert PlacementRule.SAME_DATACENTER.is_affinity
        assert not PlacementRule.DIFFERENT_SERVERS.is_affinity
        assert not PlacementRule.DIFFERENT_DATACENTERS.is_affinity


class TestRequest:
    def test_sizes(self, small_request):
        assert (small_request.n, small_request.h) == (6, 3)

    def test_group_out_of_range_rejected(self):
        with pytest.raises(ConstraintError):
            Request(
                demand=np.ones((2, 3)),
                qos_guarantee=np.full(2, 0.9),
                downtime_cost=np.ones(2),
                migration_cost=np.ones(2),
                groups=(PlacementGroup(PlacementRule.SAME_SERVER, (0, 5)),),
            )

    def test_total_demand(self, small_request):
        assert np.allclose(
            small_request.total_demand(), small_request.demand.sum(axis=0)
        )

    def test_concatenate_shifts_groups(self, small_request):
        merged, owner = Request.concatenate([small_request, small_request])
        assert merged.n == 12
        assert owner.tolist() == [0] * 6 + [1] * 6
        # The second copy's groups must reference the shifted indices.
        shifted = merged.groups[2]
        assert shifted.members == (6, 7)

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValidationError):
            Request.concatenate([])

    def test_qos_guarantee_range(self):
        with pytest.raises(ValidationError):
            Request(
                demand=np.ones((1, 3)),
                qos_guarantee=np.array([1.5]),
                downtime_cost=np.ones(1),
                migration_cost=np.ones(1),
            )


class TestPlacement:
    def test_roundtrip_dense(self, small_infra):
        assignment = np.array([0, 0, 3, 5, UNPLACED, 7])
        placement = Placement(assignment=assignment, infrastructure=small_infra)
        dense = placement.to_dense()
        assert dense.shape == (2, 8, 6)
        back = Placement.from_dense(dense, small_infra)
        assert np.array_equal(back.assignment, assignment)

    def test_dense_encodes_datacenter(self, small_infra):
        placement = Placement(
            assignment=np.array([5]), infrastructure=small_infra
        )
        dense = placement.to_dense()
        assert dense[1, 5, 0]  # server 5 lives in datacenter 1
        assert dense.sum() == 1

    def test_from_dense_rejects_double_placement(self, small_infra):
        dense = np.zeros((2, 8, 1), dtype=bool)
        dense[0, 0, 0] = True
        dense[0, 1, 0] = True
        with pytest.raises(EncodingError):
            Placement.from_dense(dense, small_infra)

    def test_from_dense_rejects_wrong_datacenter(self, small_infra):
        dense = np.zeros((2, 8, 1), dtype=bool)
        dense[0, 5, 0] = True  # server 5 is in datacenter 1, not 0
        with pytest.raises(EncodingError):
            Placement.from_dense(dense, small_infra)

    def test_out_of_range_server_rejected(self, small_infra):
        with pytest.raises(EncodingError):
            Placement(assignment=np.array([8]), infrastructure=small_infra)

    def test_server_usage_scatter(self, small_infra, small_request):
        assignment = np.array([2, 2, 2, 0, UNPLACED, 0])
        placement = Placement(assignment=assignment, infrastructure=small_infra)
        usage = placement.server_usage(small_request.demand)
        assert np.allclose(
            usage[2], small_request.demand[[0, 1, 2]].sum(axis=0)
        )
        assert np.allclose(usage[0], small_request.demand[[3, 5]].sum(axis=0))
        assert np.allclose(usage[1], 0.0)

    def test_loads_zero_capacity_semantics(self):
        infra = Infrastructure(
            capacity=np.array([[0.0, 10.0]]),
            capacity_factor=np.ones((1, 2)),
            operating_cost=np.ones(1),
            usage_cost=np.ones(1),
            max_load=np.full((1, 2), 0.5),
            max_qos=np.full((1, 2), 0.9),
            server_datacenter=np.array([0]),
            schema=AttributeSchema(names=("a", "b")),
        )
        placement = Placement(assignment=np.array([0]), infrastructure=infra)
        loads = placement.loads(np.array([[1.0, 5.0]]))
        assert np.isinf(loads[0, 0])
        assert loads[0, 1] == 0.5

    def test_equality_and_hash(self, small_infra):
        a = Placement(assignment=np.array([0, 1]), infrastructure=small_infra)
        b = Placement(assignment=np.array([0, 1]), infrastructure=small_infra)
        c = Placement(assignment=np.array([1, 0]), infrastructure=small_infra)
        assert a == b and hash(a) == hash(b)
        assert a != c
