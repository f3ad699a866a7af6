"""Structured logging: formatters, configuration, logger tree."""

import io
import json
import logging
import sys

import pytest

from repro.obs.logging import (
    ROOT_LOGGER_NAME,
    JsonFormatter,
    KeyValueFormatter,
    configure_logging,
    get_logger,
)


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Leave the process-global 'repro' logger as we found it."""
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    saved_handlers = list(logger.handlers)
    saved_level = logger.level
    saved_propagate = logger.propagate
    yield
    logger.handlers[:] = saved_handlers
    logger.setLevel(saved_level)
    logger.propagate = saved_propagate


class TestConfigure:
    def test_key_value_line(self):
        buf = io.StringIO()
        configure_logging(level="info", stream=buf)
        get_logger("unit").info(
            "served", extra={"fields": {"status": 200, "ms": 1.25}}
        )
        line = buf.getvalue().strip()
        assert "repro.unit: served" in line
        assert "status=200" in line and "ms=1.25" in line

    def test_json_line(self):
        buf = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=buf)
        get_logger("unit").info("served", extra={"fields": {"status": 200}})
        payload = json.loads(buf.getvalue())
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.unit"
        assert payload["msg"] == "served"
        assert payload["status"] == 200
        assert isinstance(payload["ts"], float)

    def test_level_filters(self):
        buf = io.StringIO()
        configure_logging(level="warning", stream=buf)
        log = get_logger("unit")
        log.info("quiet")
        log.warning("loud")
        out = buf.getvalue()
        assert "quiet" not in out and "loud" in out

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="verbose")

    def test_repeated_calls_do_not_stack_handlers(self):
        buf = io.StringIO()
        for _ in range(3):
            configure_logging(level="info", stream=buf)
        logger = logging.getLogger(ROOT_LOGGER_NAME)
        assert len(logger.handlers) == 1
        get_logger("unit").info("once")
        assert buf.getvalue().count("once") == 1

    def test_default_stream_follows_sys_stderr(self, monkeypatch):
        # configured under a temporary stderr that is closed afterwards:
        # lines must reach the restored stream, not the dead one
        temporary, restored = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", temporary)
        configure_logging(level="info")
        temporary.close()
        monkeypatch.setattr(sys, "stderr", restored)
        get_logger("unit").info("after restore")
        out = restored.getvalue()
        assert "after restore" in out
        assert "Logging error" not in out

    def test_does_not_propagate_to_root(self):
        configure_logging(level="info", stream=io.StringIO())
        assert logging.getLogger(ROOT_LOGGER_NAME).propagate is False


class TestFormatters:
    def record(self, **extra):
        rec = logging.LogRecord(
            name="repro.t", level=logging.INFO, pathname=__file__, lineno=1,
            msg="hello %s", args=("world",), exc_info=None,
        )
        for key, value in extra.items():
            setattr(rec, key, value)
        return rec

    def test_json_formatter_interpolates_message(self):
        payload = json.loads(JsonFormatter().format(self.record()))
        assert payload["msg"] == "hello world"

    def test_json_formatter_ignores_non_mapping_fields(self):
        payload = json.loads(
            JsonFormatter().format(self.record(fields="not-a-dict"))
        )
        assert "not-a-dict" not in payload.values()

    def test_key_value_formatter_includes_exception(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            import sys

            rec = self.record()
            rec.exc_info = sys.exc_info()
        out = KeyValueFormatter().format(rec)
        assert "hello world" in out and "RuntimeError: boom" in out


class TestGetLogger:
    def test_names_nest_under_repro(self):
        assert get_logger("service.http").name == "repro.service.http"
        assert get_logger().name == ROOT_LOGGER_NAME
