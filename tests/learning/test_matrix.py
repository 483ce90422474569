"""Preference matrices: structure, observation, masks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, LearningError
from repro.learning.matrix import PreferenceMatrix
from repro.server.config import KnobSetting


@pytest.fixture()
def matrix(config):
    return PreferenceMatrix(config)


class TestStructure:
    def test_columns_match_knob_space(self, matrix, config):
        assert matrix.n_columns == len(config.knob_space())
        assert matrix.columns == config.knob_space()

    def test_column_lookup(self, matrix, config):
        knob = config.knob_space()[17]
        assert matrix.column_of(knob) == 17

    def test_unknown_knob_rejected(self, matrix):
        with pytest.raises(LearningError):
            matrix.column_of(KnobSetting(1.55, 3, 7.0))

    def test_empty_matrix(self, matrix):
        assert matrix.apps == []
        assert matrix.density() == 0.0


class TestObservation:
    def test_add_and_observe(self, matrix, config):
        matrix.add_app("kmeans")
        knob = config.max_knob
        matrix.observe("kmeans", knob, power_w=20.0, perf=3.0)
        col = matrix.column_of(knob)
        assert matrix.power_row("kmeans")[col] == 20.0
        assert matrix.perf_row("kmeans")[col] == 3.0
        assert matrix.row_observation_count("kmeans") == 1

    def test_unobserved_cells_are_nan(self, matrix, config):
        matrix.add_app("a")
        assert np.isnan(matrix.power_row("a")).all()

    def test_duplicate_app_rejected(self, matrix):
        matrix.add_app("a")
        with pytest.raises(LearningError):
            matrix.add_app("a")

    def test_observe_unknown_app_rejected(self, matrix, config):
        with pytest.raises(LearningError):
            matrix.observe("ghost", config.max_knob, power_w=1.0, perf=1.0)

    def test_negative_observation_rejected(self, matrix, config):
        matrix.add_app("a")
        with pytest.raises(ConfigurationError):
            matrix.observe("a", config.max_knob, power_w=-1.0, perf=1.0)

    def test_observe_row(self, matrix):
        matrix.add_app("a")
        power = np.arange(matrix.n_columns, dtype=float)
        matrix.observe_row("a", power_w=power, perf=2.0 * power)
        assert matrix.row_observation_count("a") == matrix.n_columns
        assert matrix.perf_row("a").tolist() == (2.0 * power).tolist()

    def test_observe_row_rejects_bad_rows(self, matrix):
        matrix.add_app("a")
        row = np.ones(matrix.n_columns)
        with pytest.raises(LearningError):
            matrix.observe_row("a", power_w=row[:-1], perf=row)
        with pytest.raises(LearningError):
            matrix.observe_row("ghost", power_w=row, perf=row)
        negative = row.copy()
        negative[7] = -0.5
        with pytest.raises(ConfigurationError):
            matrix.observe_row("a", power_w=row, perf=negative)
        assert matrix.row_observation_count("a") == 0

    def test_overwrite_observation(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=1.0, perf=1.0)
        matrix.observe("a", config.max_knob, power_w=2.0, perf=2.0)
        col = matrix.column_of(config.max_knob)
        assert matrix.power_row("a")[col] == 2.0

    def test_membership(self, matrix):
        matrix.add_app("a")
        assert "a" in matrix
        assert "b" not in matrix


class TestMasks:
    def test_mask_requires_both_planes(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=1.0, perf=1.0)
        mask = matrix.observed_mask()
        assert mask.sum() == 1

    def test_density(self, matrix, config):
        matrix.add_app("a")
        for knob in config.knob_space():
            matrix.observe("a", knob, power_w=1.0, perf=1.0)
        assert matrix.density() == 1.0

    def test_rows_are_copies(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=5.0, perf=1.0)
        row = matrix.power_row("a")
        row[:] = 0.0
        assert matrix.power_row("a")[matrix.column_of(config.max_knob)] == 5.0


class TestFreeze:
    def test_frozen_matrix_refuses_mutation(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=5.0, perf=1.0)
        matrix.freeze()
        with pytest.raises(LearningError):
            matrix.add_app("b")
        with pytest.raises(LearningError):
            matrix.observe("a", config.min_knob, power_w=1.0, perf=1.0)
        with pytest.raises(LearningError):
            matrix.observe_row(
                "a",
                power_w=np.ones(matrix.n_columns),
                perf=np.ones(matrix.n_columns),
            )
        assert matrix.apps == ["a"]
        assert matrix.row_observation_count("a") == 1

    def test_frozen_planes_are_read_only_but_copies_are_not(self, matrix, config):
        matrix.add_app("a")
        matrix.freeze()
        with pytest.raises(ValueError):
            matrix._power[0, 0] = 1.0
        row = matrix.power_row("a")
        row[:] = 0.0  # callers own their copies
