"""One source per service setting: :class:`ServeConfig`'s fields.

``tcast-serve run`` takes the settings one by one, and each flag's
default must be the config's own; :class:`BatchScheduler` and
:class:`AdmissionController` take the config itself.  The config checks
every field's range once, and ``tcast-serve run`` turns a value out of
range into a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro.serve import cli
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.scheduler import BatchScheduler


def _run_options():
    """Every option of the ``run`` subcommand (help aside)."""
    parser = cli._build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return [a for a in sub.choices["run"]._actions if a.dest != "help"]


class TestOneSourcePerDefault:
    def test_every_run_option_defaults_to_its_field(self):
        fields = {f.name for f in dataclasses.fields(ServeConfig)}
        options = _run_options()
        assert options
        for action in options:
            assert action.dest in fields, action.option_strings
            assert action.default == getattr(cli.RUN_DEFAULTS, action.dest), (
                action.option_strings
            )

    def test_run_defaults_differ_from_the_library_only_in_port(self):
        assert ServeConfig().port == 0
        assert cli.RUN_DEFAULTS.port != 0
        assert cli.RUN_DEFAULTS == dataclasses.replace(
            ServeConfig(), port=cli.RUN_DEFAULTS.port
        )

    def test_scheduler_and_admission_default_to_the_config(self):
        # Neither layer restates a setting: each takes the config and a
        # clock, nothing else, and reads its settings off that config.
        for layer in (BatchScheduler, AdmissionController):
            params = inspect.signature(layer).parameters
            assert list(params) == ["config", "clock"], layer
            assert params["config"].default is inspect.Parameter.empty
            assert params["clock"].kind is inspect.Parameter.KEYWORD_ONLY
        config = ServeConfig(max_pending=3, workers=2)
        assert BatchScheduler(config).config is config
        assert AdmissionController(config).config is config

    def test_run_builds_the_config_from_its_flags(self, monkeypatch):
        seen = []

        class Service:
            def __init__(self, config: ServeConfig) -> None:
                seen.append(config)

            async def run(self) -> int:
                return 0

        monkeypatch.setattr(cli, "ThresholdQueryService", Service)
        assert cli.main(["run"]) == 0
        assert cli.main([
            "run", "--port", "0", "--workers", "3", "--no-vectorize",
            "--codel-target-ms", "50",
        ]) == 0
        assert seen == [
            cli.RUN_DEFAULTS,
            dataclasses.replace(
                cli.RUN_DEFAULTS, port=0, workers=3, vectorize=False,
                codel_target_ms=50.0,
            ),
        ]


#: One out-of-range value per checked field.
_BAD_FIELDS = [
    ("port", -1),
    ("port", 65536),
    ("max_pending", 0),
    ("tenant_rate", -1.0),
    ("max_batch_runs", 0),
    ("workers", 0),
    ("max_connections", 0),
    ("max_line_bytes", 0),
    ("idle_timeout", -1.0),
    ("idle_timeout", float("nan")),
    ("read_deadline", -0.5),
    ("max_inflight_per_conn", 0),
    ("codel_target_ms", -1.0),
    ("codel_interval_ms", 0.0),
]


class TestValidation:
    @pytest.mark.parametrize(
        "name, value", _BAD_FIELDS, ids=[f"{n}={v}" for n, v in _BAD_FIELDS]
    )
    def test_out_of_range_field_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ServeConfig(**{name: value})

    def test_burst_is_checked_only_with_the_rate_limit_on(self):
        assert ServeConfig(tenant_burst=0.0).tenant_burst == 0.0
        with pytest.raises(ValueError, match="tenant_burst"):
            ServeConfig(tenant_rate=1.0, tenant_burst=0.5)

    def test_every_bound_itself_is_valid(self):
        # Zero switches the rate limit, both timers and CoDel off and
        # picks a free port; each cap may be as small as one.
        ServeConfig(
            port=0, tenant_rate=0.0, idle_timeout=0.0, read_deadline=0.0,
            codel_target_ms=0.0,
        )
        ServeConfig(
            port=65535, max_pending=1, max_batch_runs=1, workers=1,
            max_connections=1, max_line_bytes=1, max_inflight_per_conn=1,
            tenant_rate=0.5, tenant_burst=1.0,
        )


class TestRunUsageErrors:
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--workers", "0", "workers"),
            ("--max-pending", "0", "max_pending"),
            ("--max-inflight-per-conn", "0", "max_inflight_per_conn"),
            ("--max-connections", "0", "max_connections"),
            ("--idle-timeout", "-1", "idle_timeout"),
        ],
    )
    def test_bad_flag_exits_2_with_one_error_line(
        self, monkeypatch, capsys, flag, value, field
    ):
        started = []
        monkeypatch.setattr(cli, "ThresholdQueryService", started.append)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--port", "0", flag, value])
        assert exit_info.value.code == 2
        assert not started
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = [ln for ln in err.splitlines() if "error:" in ln]
        assert field in line
