"""Prometheus text exposition of MetricsRegistry snapshots."""

import pytest

from repro.obs.prometheus import (
    escape_help,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
)
from repro.service.metrics import MetricsRegistry


def lines_of(text):
    return [line for line in text.splitlines() if line]


def samples_of(text):
    """name -> value for every non-comment exposition line."""
    out = {}
    for line in lines_of(text):
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        out[name] = value
    return out


class TestSanitize:
    def test_replaces_illegal_characters(self):
        assert sanitize_metric_name("schedule.latency-s") == "schedule_latency_s"

    def test_prefixes_leading_digit(self):
        assert sanitize_metric_name("5xx") == "_5xx"

    def test_keeps_legal_names(self):
        assert sanitize_metric_name("jobs_total:rate") == "jobs_total:rate"


class TestRender:
    def snapshot(self):
        reg = MetricsRegistry(buckets=(0.1, 1.0))
        reg.incr("requests", 7)
        for v in (0.05, 0.5, 2.0):
            reg.observe("latency_s", v)
        return reg.snapshot()

    def test_counters_get_total_suffix(self):
        text = render_prometheus(self.snapshot())
        samples = samples_of(text)
        assert samples["repro_requests_total"] == "7"
        assert "# TYPE repro_requests_total counter" in lines_of(text)

    def test_series_render_as_summary(self):
        text = render_prometheus(self.snapshot())
        samples = samples_of(text)
        assert "# TYPE repro_latency_s summary" in lines_of(text)
        assert float(samples['repro_latency_s{quantile="0.5"}']) == pytest.approx(
            0.5015394534033262)
        assert float(samples["repro_latency_s_sum"]) == pytest.approx(2.55)
        assert samples["repro_latency_s_count"] == "3"

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self.snapshot())
        samples = samples_of(text)
        assert "# TYPE repro_latency_s_histogram histogram" in lines_of(text)
        assert samples['repro_latency_s_histogram_bucket{le="0.1"}'] == "1"
        assert samples['repro_latency_s_histogram_bucket{le="1"}'] == "2"
        assert samples['repro_latency_s_histogram_bucket{le="+Inf"}'] == "3"
        assert samples["repro_latency_s_histogram_count"] == "3"

    def test_gauges_section(self):
        text = render_prometheus({"counters": {}, "series": {}},
                                 gauges={"uptime_seconds": 12.5})
        samples = samples_of(text)
        assert samples["repro_uptime_seconds"] == "12.5"
        assert "# TYPE repro_uptime_seconds gauge" in lines_of(text)

    def test_custom_namespace(self):
        text = render_prometheus({"counters": {"n": 1}, "series": {}},
                                 namespace="svc")
        assert "svc_n_total 1" in lines_of(text)

    def test_empty_snapshot_renders_empty_document(self):
        assert render_prometheus({"counters": {}, "series": {}}) == "\n"

    def test_special_float_values(self):
        text = render_prometheus(
            {"counters": {}, "series": {}},
            gauges={"inf": float("inf"), "nan": float("nan")},
        )
        samples = samples_of(text)
        assert samples["repro_inf"] == "+Inf"
        assert samples["repro_nan"] == "NaN"

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == r'a\"b'
        assert escape_label_value("a\\b") == r"a\\b"
        assert escape_label_value("a\nb") == r"a\nb"
        assert escape_label_value("plain") == "plain"

    def test_escape_help(self):
        assert escape_help("a\nb") == r"a\nb"
        assert escape_help("a\\b") == r"a\\b"
        assert escape_help('quotes "stay"') == 'quotes "stay"'

    def test_help_precedes_type_precedes_samples(self):
        """Exposition-format conformance: family comment ordering."""
        text = render_prometheus(self.snapshot(), gauges={"g": 1.0})
        seen_for = {}
        for line in lines_of(text):
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in seen_for, f"duplicate HELP for {name}"
                seen_for[name] = "help"
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert seen_for.get(name) == "help", \
                    f"TYPE before HELP for {name}"
                seen_for[name] = "type"
            else:
                name = line.split("{")[0].rsplit(" ", 1)[0]
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if base.endswith(suffix):
                        base = base[: -len(suffix)]
                        break
                assert seen_for.get(base) == "type", \
                    f"sample before TYPE for {name}"

    def test_histogram_inf_bucket_equals_count(self):
        text = render_prometheus(self.snapshot())
        samples = samples_of(text)
        inf = samples['repro_latency_s_histogram_bucket{le="+Inf"}']
        assert inf == samples["repro_latency_s_histogram_count"]

    def test_histogram_buckets_are_monotone(self):
        text = render_prometheus(self.snapshot())
        counts = []
        for line in lines_of(text):
            if line.startswith("repro_latency_s_histogram_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)

    def test_summary_and_histogram_sum_count_agree(self):
        text = render_prometheus(self.snapshot())
        samples = samples_of(text)
        assert (samples["repro_latency_s_sum"]
                == samples["repro_latency_s_histogram_sum"])
        assert (samples["repro_latency_s_count"]
                == samples["repro_latency_s_histogram_count"])

    def test_slo_percentile_gauges_render(self):
        gauges = {
            "slo_stage_execute_p99_seconds": 0.25,
            "slo_burn_rate_availability_5m": 2.5,
        }
        text = render_prometheus({"counters": {}, "series": {}},
                                 gauges=gauges)
        samples = samples_of(text)
        assert samples["repro_slo_stage_execute_p99_seconds"] == "0.25"
        assert samples["repro_slo_burn_rate_availability_5m"] == "2.5"
        assert ("# TYPE repro_slo_stage_execute_p99_seconds gauge"
                in lines_of(text))

    def test_empty_window_summary_renders_without_quantiles(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5)
        reg.snapshot(reset_windows=True)
        text = render_prometheus(reg.snapshot())
        samples = samples_of(text)
        assert 'repro_lat{quantile="0.5"}' not in samples
        assert samples["repro_lat_count"] == "1"  # lifetime survives

    def test_every_metric_has_help_and_type(self):
        text = render_prometheus(self.snapshot(), gauges={"g": 1.0})
        metric_names = {
            line.split("{")[0].rsplit(" ", 1)[0]
            for line in lines_of(text)
            if not line.startswith("#")
        }
        typed = {
            line.split()[2]
            for line in lines_of(text)
            if line.startswith("# TYPE")
        }
        for name in metric_names:
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                    break
            assert base in typed, f"{name} has no TYPE line"
