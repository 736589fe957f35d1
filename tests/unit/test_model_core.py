"""Unit tests for the model layer: attributes and infrastructure."""

import numpy as np
import pytest

from repro.errors import DimensionError, ValidationError
from repro.model import DEFAULT_ATTRIBUTES, AttributeSchema, Infrastructure


class TestAttributeSchema:
    def test_default_is_cpu_ram_disk(self):
        assert DEFAULT_ATTRIBUTES.names == ("cpu", "ram", "disk")
        assert DEFAULT_ATTRIBUTES.h == 3

    def test_index_lookup(self):
        assert DEFAULT_ATTRIBUTES.index("ram") == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(ValidationError):
            DEFAULT_ATTRIBUTES.index("gpu")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            AttributeSchema(names=("cpu", "cpu"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            AttributeSchema(names=())

    def test_units_default_to_blank(self):
        schema = AttributeSchema(names=("a", "b"))
        assert schema.units == ("", "")

    def test_units_length_must_match(self):
        with pytest.raises(ValidationError):
            AttributeSchema(names=("a", "b"), units=("x",))

    def test_iteration_and_contains(self):
        schema = AttributeSchema(names=("x", "y"))
        assert list(schema) == ["x", "y"]
        assert "x" in schema and "z" not in schema
        assert len(schema) == 2


class TestInfrastructure:
    def test_sizes(self, small_infra):
        assert (small_infra.g, small_infra.m, small_infra.h) == (2, 8, 3)

    def test_effective_capacity(self, small_infra):
        expect = small_infra.capacity * small_infra.capacity_factor
        assert np.allclose(small_infra.effective_capacity, expect)

    def test_servers_in_datacenter(self, small_infra):
        assert small_infra.servers_in_datacenter(0).tolist() == [0, 1, 2, 3]
        assert small_infra.servers_in_datacenter(1).tolist() == [4, 5, 6, 7]
        with pytest.raises(ValidationError):
            small_infra.servers_in_datacenter(2)

    def test_non_contiguous_dc_ids_rejected(self):
        with pytest.raises(ValidationError):
            Infrastructure(
                capacity=np.ones((2, 3)),
                capacity_factor=np.ones((2, 3)),
                operating_cost=np.ones(2),
                usage_cost=np.ones(2),
                max_load=np.full((2, 3), 0.5),
                max_qos=np.full((2, 3), 0.5),
                server_datacenter=np.array([0, 2]),  # id 1 missing
            )

    def test_homogeneous_constructor(self):
        infra = Infrastructure.homogeneous(
            datacenters=3, servers_per_datacenter=5, capacity=[8, 32, 100]
        )
        assert (infra.g, infra.m) == (3, 15)
        assert np.all(infra.capacity == np.array([8, 32, 100]))

    def test_matrix_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Infrastructure(
                capacity=np.ones((2, 3)),
                capacity_factor=np.ones((3, 3)),  # wrong m
                operating_cost=np.ones(2),
                usage_cost=np.ones(2),
                max_load=np.full((2, 3), 0.5),
                max_qos=np.full((2, 3), 0.5),
                server_datacenter=np.array([0, 0]),
            )

    def test_qos_matrix_range(self):
        with pytest.raises(ValidationError):
            Infrastructure(
                capacity=np.ones((1, 3)),
                capacity_factor=np.ones((1, 3)),
                operating_cost=np.ones(1),
                usage_cost=np.ones(1),
                max_load=np.full((1, 3), 1.0),  # must be < 1
                max_qos=np.full((1, 3), 0.5),
                server_datacenter=np.array([0]),
            )
