"""The preference matrices: app x knob-setting observations of power and perf.

"Collaborative filtering uses a matrix to capture power and performance of
previously seen applications for different settings of the power allocation
knobs. In this matrix, each row corresponds to an application, and each
column corresponds to the power allocation knob setting" - Section III-A.

:class:`PreferenceMatrix` is that store, with two planes (power in watts,
performance in work/s) and NaN marking the unobserved entries. The column
order is the canonical knob-space order of
:meth:`repro.server.config.ServerConfig.knob_space`, which is stable across
runs so matrices can be persisted and compared.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError, LearningError
from repro.server.config import KnobSetting, ServerConfig


class PreferenceMatrix:
    """Partially observed app x config power and performance matrices.

    Args:
        config: Supplies the canonical knob-space columns.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._columns: list[KnobSetting] = config.knob_space()
        self._column_index: dict[KnobSetting, int] = {
            knob: i for i, knob in enumerate(self._columns)
        }
        self._rows: list[str] = []
        self._row_index: dict[str, int] = {}
        self._power = np.empty((0, len(self._columns)))
        self._perf = np.empty((0, len(self._columns)))
        self._frozen = False

    # ------------------------------------------------------------ structure

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def columns(self) -> list[KnobSetting]:
        """The knob settings, in canonical order (copies are cheap views)."""
        return list(self._columns)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def apps(self) -> list[str]:
        """Row names in insertion order."""
        return list(self._rows)

    def __contains__(self, app: str) -> bool:
        return app in self._row_index

    def column_of(self, knob: KnobSetting) -> int:
        """Column index of a knob setting.

        Raises:
            LearningError: for settings outside the knob space.
        """
        try:
            return self._column_index[knob]
        except KeyError:
            raise LearningError(f"knob {knob} is not a column of this matrix") from None

    # ------------------------------------------------------------ mutation

    def freeze(self) -> None:
        """Make the matrix read-only, for sharing it between mediators.

        Afterwards :meth:`add_app`, :meth:`observe` and :meth:`observe_row`
        raise, and both planes are non-writeable arrays.
        """
        self._frozen = True
        self._power.flags.writeable = False
        self._perf.flags.writeable = False

    def _check_mutable(self) -> None:
        if self._frozen:
            raise LearningError("this preference matrix is frozen (shared read-only)")

    def add_app(self, app: str) -> None:
        """Add an empty (all-unobserved) row.

        Raises:
            LearningError: if the app already has a row, or the matrix is
                frozen.
        """
        self._check_mutable()
        if app in self._row_index:
            raise LearningError(f"application {app!r} already has a row")
        self._row_index[app] = len(self._rows)
        self._rows.append(app)
        blank = np.full((1, self.n_columns), np.nan)
        self._power = np.vstack([self._power, blank])
        self._perf = np.vstack([self._perf, blank])

    def observe(
        self, app: str, knob: KnobSetting, *, power_w: float, perf: float
    ) -> None:
        """Record one measurement (overwrites a prior one at the same cell).

        Raises:
            LearningError: for unknown apps/knobs, or a frozen matrix.
            ConfigurationError: for negative observations.
        """
        self._check_mutable()
        if power_w < 0 or perf < 0:
            raise ConfigurationError("observations must be non-negative")
        row = self._row_of(app)
        col = self.column_of(knob)
        self._power[row, col] = power_w
        self._perf[row, col] = perf

    def observe_row(self, app: str, *, power_w: np.ndarray, perf: np.ndarray) -> None:
        """Record one measurement per column of ``app``'s row at once.

        Raises:
            LearningError: for unknown apps, rows of the wrong length, or a
                frozen matrix.
            ConfigurationError: for negative observations.
        """
        self._check_mutable()
        row = self._row_of(app)
        if len(power_w) != self.n_columns or len(perf) != self.n_columns:
            raise LearningError(f"a row of {app!r} needs {self.n_columns} observations")
        if (power_w < 0).any() or (perf < 0).any():
            raise ConfigurationError("observations must be non-negative")
        self._power[row] = power_w
        self._perf[row] = perf

    # ------------------------------------------------------------- queries

    def power_rows(self) -> np.ndarray:
        """Copy of the power plane, shape ``(apps, configs)``, NaN = missing."""
        return self._power.copy()

    def perf_rows(self) -> np.ndarray:
        """Copy of the performance plane."""
        return self._perf.copy()

    def observed_mask(self) -> np.ndarray:
        """Boolean mask of cells observed in *both* planes."""
        return ~(np.isnan(self._power) | np.isnan(self._perf))

    def row_observation_count(self, app: str) -> int:
        """How many configs of ``app`` have been measured."""
        row = self._row_of(app)
        return int(self.observed_mask()[row].sum())

    def density(self) -> float:
        """Fraction of observed cells over the whole matrix (0 when empty)."""
        if not self._rows:
            return 0.0
        return float(self.observed_mask().mean())

    def power_row(self, app: str) -> np.ndarray:
        """Copy of one app's power row (NaN = missing)."""
        return self._power[self._row_of(app)].copy()

    def perf_row(self, app: str) -> np.ndarray:
        """Copy of one app's performance row."""
        return self._perf[self._row_of(app)].copy()

    def _row_of(self, app: str) -> int:
        try:
            return self._row_index[app]
        except KeyError:
            raise LearningError(f"application {app!r} has no row") from None

    # ---------------------------------------------------------- persistence

    def save(self, path: str | os.PathLike) -> None:
        """Persist the matrices to a ``.npz`` file.

        On the paper's system the corpus accretes across deployments;
        persisting it means a restarted mediator keeps everything it has
        learnt. The knob-space signature is stored so a matrix recorded on
        one hardware configuration cannot silently be loaded onto another.
        """
        signature = np.array(
            [(k.freq_ghz, k.cores, k.dram_power_w) for k in self._columns]
        )
        np.savez(
            path,
            apps=np.array(self._rows, dtype=object),
            power=self._power,
            perf=self._perf,
            knob_signature=signature,
        )

    @classmethod
    def load(cls, path: str | os.PathLike, config: ServerConfig) -> "PreferenceMatrix":
        """Load a matrix persisted by :meth:`save`.

        Raises:
            LearningError: when the stored knob space does not match
                ``config`` (the matrix belongs to different hardware).
        """
        with np.load(path, allow_pickle=True) as data:
            matrix = cls(config)
            signature = np.array(
                [(k.freq_ghz, k.cores, k.dram_power_w) for k in matrix._columns]
            )
            if data["knob_signature"].shape != signature.shape or not np.allclose(
                data["knob_signature"], signature
            ):
                raise LearningError(
                    "stored knob space does not match this server configuration"
                )
            for app in data["apps"]:
                matrix.add_app(str(app))
            matrix._power = data["power"].copy()
            matrix._perf = data["perf"].copy()
        return matrix
