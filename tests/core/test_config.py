"""FitConfig: the one declaration of the fit parameters."""

import inspect
from dataclasses import MISSING, fields, replace

import pytest

from repro.core.config import (
    EMBEDDING_FIELDS,
    FIT_FIELDS,
    OPERATOR_FIELDS,
    PLACEMENT_FIELDS,
    STAGE4_FIELDS,
    UNKEYED_FIELDS,
    FitConfig,
)
from repro.core.pipeline import SpectralClustering
from repro.errors import ClusteringError


def test_estimator_defaults_match_fit_config():
    """Every SpectralClustering keyword default equals the FitConfig
    default, and the only other keywords are the runtime objects."""
    params = inspect.signature(SpectralClustering).parameters
    assert set(params) - set(FIT_FIELDS) == {"device", "chaos", "resilience"}
    for f in fields(FitConfig):
        default = params[f.name].default
        if f.default is MISSING:
            assert default is inspect.Parameter.empty, f.name
        else:
            assert default == f.default, f.name


def test_key_groups_partition_the_fields():
    groups = (
        OPERATOR_FIELDS + EMBEDDING_FIELDS + STAGE4_FIELDS
        + PLACEMENT_FIELDS + UNKEYED_FIELDS
    )
    assert sorted(groups) == sorted(FIT_FIELDS)
    assert len(groups) == len(set(groups)) == 26


@pytest.mark.parametrize("name, value", [
    ("eig_residency", "host"), ("eig_spmv_format", "ell"),
    ("eig_devices", 2), ("fit_devices", 2), ("partition_mode", "rows"),
    ("kmeans_update", "sort"), ("kmeans_fused", False),
    ("sample_frac", 0.5), ("lift", "nearest"),
])
def test_unkeyed_fields_never_move_a_key(name, value):
    cfg = FitConfig(n_clusters=3, embedding="compressive")
    other = replace(cfg, **{name: value})
    assert other.model_key("fp") == cfg.model_key("fp")


@pytest.mark.parametrize("name, value", [
    ("operator", "rw"), ("objective", "ratiocut"),
    ("handle_isolated", "error"), ("n_clusters", 4), ("m", 30),
    ("eig_tol", 1e-6), ("eig_maxiter", 9), ("seed", 3),
    ("normalize_rows", True), ("precision", "fp32"), ("embedding", "power"),
    ("kmeans_init", "random"), ("kmeans_max_iter", 10),
])
def test_keyed_fields_move_the_model_key(name, value):
    cfg = FitConfig(n_clusters=3)
    assert replace(cfg, **{name: value}).model_key("fp") != cfg.model_key("fp")


class TestJSONForm:
    def test_round_trip(self):
        cfg = FitConfig(n_clusters=4, embedding="compressive", n_signals=12,
                        sample_frac=0.5, seed=None)
        assert FitConfig.from_dict(cfg.to_dict()) == cfg
        assert list(cfg.to_dict()) == list(FIT_FIELDS)

    @pytest.mark.parametrize("obj, match", [
        ([1, 2], "must be an object"),
        ({"n_clusters": 3}, "lacks"),
        ({**FitConfig(n_clusters=3).to_dict(), "typo": 1}, "unknown"),
        ({**FitConfig(n_clusters=3).to_dict(), "seed": "7"}, "'seed'"),
        ({**FitConfig(n_clusters=3).to_dict(), "kmeans_fused": 1},
         "'kmeans_fused'"),
        ({**FitConfig(n_clusters=3).to_dict(), "operator": "lap"},
         "operator must be"),
    ])
    def test_malformed_rejected(self, obj, match):
        with pytest.raises(ClusteringError, match=match):
            FitConfig.from_dict(obj)


class TestEstimatorSeam:
    def test_from_config_round_trips(self):
        cfg = FitConfig(n_clusters=3, eig_tol=1e-8, kmeans_update="sort")
        assert SpectralClustering.from_config(cfg).config == cfg
        assert SpectralClustering(**cfg.to_dict()).config == cfg

    def test_request_estimator_carries_every_field(self):
        from repro.serve.request import ClusterRequest

        req = ClusterRequest(request_id="r", dataset="syn200",
                             kmeans_fused=False, eig_residency="host")
        cfg = req.estimator().config
        assert type(cfg) is FitConfig
        assert cfg.to_dict() == req.to_dict()

    def test_validation_lives_on_the_config(self):
        with pytest.raises(ClusteringError, match="n_clusters must be >= 2"):
            FitConfig(n_clusters=1).check()
        with pytest.raises(ClusteringError, match="n_clusters must be >= 2"):
            SpectralClustering(n_clusters=1)
        FitConfig(n_clusters=2).check()
