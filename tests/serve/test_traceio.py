"""JSONL request traces: round-trip fidelity and strict parsing."""

import json
from dataclasses import fields

import pytest

from repro.core.config import FIT_FIELDS
from repro.errors import TraceFormatError
from repro.serve.request import ClusterRequest
from repro.serve.traceio import (
    read_trace,
    request_from_dict,
    request_to_dict,
    synthetic_trace,
    write_trace,
)


#: a request that sets every fit field to a non-default value
EVERY_FIELD = ClusterRequest(
    request_id="all", arrival=0.25, dataset="syn200", scale=0.1,
    data_seed=3, n_clusters=5, similarity="cosine", sigma=2.5,
    operator="rw", objective="ratiocut", m=24, eig_tol=1e-6,
    eig_maxiter=50, eig_residency="host", eig_spmv_format="ell",
    eig_devices=2, fit_devices=2, partition_mode="rows", precision="fp32",
    embedding="compressive", filter_order=30, n_signals=40,
    sample_frac=0.5, lift="nearest", kmeans_init="random",
    kmeans_max_iter=50, kmeans_update="sort", kmeans_fused=False,
    normalize_rows=True, handle_isolated="error", seed=7, chaos=11,
    no_resilience=True,
)


class TestTraceRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        reqs = synthetic_trace(n_requests=8, chaos_every=3, seed=42)
        reqs.append(EVERY_FIELD)
        path = tmp_path / "trace.jsonl"
        write_trace(reqs, path)
        back = read_trace(path)
        assert len(back) == len(reqs)
        for a, b in zip(reqs, back):
            for f in fields(ClusterRequest):
                assert getattr(a, f.name) == getattr(b, f.name), f.name

    def test_example_trace_keeps_compressive_and_placement_fields(self):
        """The committed example trace (replayed by CI) parses with the
        fields that earlier trace formats dropped."""
        from pathlib import Path

        from repro.serve.request import PredictRequest

        path = (Path(__file__).parents[2] / "examples" / "traces"
                / "fit_config.jsonl")
        comp, composed, plain, pred = read_trace(path)
        assert (comp.n_signals, comp.filter_order, comp.sample_frac) == (
            24, 40, 0.5
        )
        assert (composed.fit_devices, composed.partition_mode) == (2, "rows")
        assert isinstance(pred, PredictRequest)
        assert pred.fit.model_key("fp") == plain.model_key("fp")

    def test_every_field_request_sets_every_fit_field(self):
        defaults = ClusterRequest(request_id="", dataset="syn200")
        for name in FIT_FIELDS:
            assert getattr(EVERY_FIELD, name) != getattr(defaults, name), name

    def test_defaults_omitted_from_lines(self):
        req = ClusterRequest(request_id="r1", dataset="syn200")
        d = request_to_dict(req)
        assert set(d) == {"request_id", "dataset"}

    def test_by_value_request_not_serializable(self, small_graph):
        req = ClusterRequest(request_id="r1", graph=small_graph)
        with pytest.raises(TraceFormatError):
            request_to_dict(req)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '# a comment\n\n{"request_id": "a", "dataset": "syn200"}\n'
        )
        assert len(read_trace(path)) == 1


class TestTraceParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown trace fields"):
            request_from_dict(
                {"request_id": "a", "dataset": "syn200", "n_cluster": 3}
            )

    def test_missing_required_fields(self):
        with pytest.raises(TraceFormatError):
            request_from_dict({"dataset": "syn200"})
        with pytest.raises(TraceFormatError):
            request_from_dict({"request_id": "a"})

    def test_non_integer_chaos_rejected(self):
        with pytest.raises(TraceFormatError, match="chaos"):
            request_from_dict(
                {"request_id": "a", "dataset": "syn200", "chaos": "boom"}
            )

    @pytest.mark.parametrize("field, value", [
        ("scale", "x"),
        ("n_clusters", "3"),
        ("data_seed", "z"),
        ("arrival", None),
        ("n_clusters", 2.5),
        ("n_clusters", True),
        ("normalize_rows", 1),
        ("similarity", 7),
        ("request_id", 7),
        ("m", "auto"),
    ])
    def test_wrong_field_type_rejected(self, field, value):
        obj = {"request_id": "a", "dataset": "syn200", field: value}
        with pytest.raises(TraceFormatError, match=rf"{field}.*\(line 4\)"):
            request_from_dict(obj, lineno=4)

    @pytest.mark.parametrize("field, value", [
        ("n_new", "8"),
        ("new_seed", 1.5),
        ("deadline", "soon"),
        ("priority", False),
        ("fit", "syn200"),
    ])
    def test_wrong_predict_field_type_rejected(self, field, value):
        obj = {
            "kind": "predict", "request_id": "p",
            "fit": {"request_id": "f", "dataset": "syn200"}, field: value,
        }
        with pytest.raises(TraceFormatError, match=rf"{field}.*\(line 4\)"):
            request_from_dict(obj, lineno=4)

    def test_wrong_type_in_nested_fit_rejected(self):
        obj = {
            "kind": "predict", "request_id": "p",
            "fit": {"request_id": "f", "dataset": "syn200", "scale": "x"},
        }
        with pytest.raises(TraceFormatError, match="scale"):
            request_from_dict(obj)

    def test_nullable_fields_accept_null(self):
        req = request_from_dict({
            "request_id": "a", "dataset": "syn200",
            "m": None, "seed": None, "chaos": None, "eig_maxiter": None,
        })
        assert req.m is None and req.seed is None
        pred = request_from_dict({
            "kind": "predict", "request_id": "p", "deadline": None,
            "fit": {"request_id": "f", "dataset": "syn200"},
        })
        assert pred.deadline is None

    def test_invalid_json_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"request_id": "a", "dataset": "syn200"}\n{oops\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(path)


class TestSyntheticTrace:
    def test_arrivals_monotone_nonnegative(self):
        reqs = synthetic_trace(n_requests=20)
        arrivals = [r.arrival for r in reqs]
        assert all(a >= 0 for a in arrivals)
        assert arrivals == sorted(arrivals)

    def test_deterministic_by_seed(self):
        a = synthetic_trace(n_requests=10, seed=5)
        b = synthetic_trace(n_requests=10, seed=5)
        assert [request_to_dict(x) for x in a] == [request_to_dict(x) for x in b]

    def test_chaos_every_arms_subset(self):
        reqs = synthetic_trace(n_requests=12, chaos_every=4)
        armed = [r for r in reqs if r.chaos is not None]
        assert len(armed) == 3
        assert all(isinstance(r.chaos, int) for r in armed)

    def test_workloads_repeat_for_cache_pressure(self):
        reqs = synthetic_trace(n_requests=12)
        keys = {(r.dataset, r.scale, r.data_seed, r.n_clusters) for r in reqs}
        assert len(keys) < len(reqs)  # repeats exist by construction
