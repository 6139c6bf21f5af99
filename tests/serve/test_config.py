"""One source per service default: :class:`ServeConfig`'s fields.

``tcast-serve run``, :class:`BatchScheduler` and :class:`AdmissionPolicy`
take the service's settings one by one; each default must be the
config's own, so changing one is a one-line edit.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

from repro.serve import cli
from repro.serve.admission import AdmissionPolicy
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
        config = ServeConfig()
        params = inspect.signature(BatchScheduler).parameters
        for name, param in params.items():
            if name != "clock":
                assert param.default == getattr(config, name), name
        policy = AdmissionPolicy()
        for field in dataclasses.fields(AdmissionPolicy):
            assert getattr(policy, field.name) == getattr(config, field.name)

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
