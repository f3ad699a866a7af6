"""The ``repro-exp`` command table: parser pin and the one error exit.

``cli_parser_pin.json`` records, for every command and sub-command, each
option's option strings, dest, default, type, choices, nargs and
required flag, plus the mutually exclusive groups. It was recorded
before the commands moved onto one table; the parser must still match
it, apart from the option that move deleted (``table3b --tasks``, which
was accepted and ignored). Help text is not pinned.

Regenerate (only when an option changes on purpose) with::

    PYTHONPATH=src python -m tests.experiments.test_cli_table
"""

import argparse
import json
import pathlib

import pytest

from repro.cli import build_parser, main

PIN_PATH = pathlib.Path(__file__).with_name("cli_parser_pin.json")


def _type_name(value):
    return None if value is None else getattr(value, "__name__", repr(value))


def describe(parser: argparse.ArgumentParser, path: str = "repro-exp"):
    """``{command path: {options, groups}}`` for ``parser`` and its
    sub-parsers, in a JSON-ready form."""
    out = {}
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            options[action.dest] = {
                "kind": "subcommand", "required": action.required,
                "choices": sorted(action.choices),
            }
            for name, sub in action.choices.items():
                out.update(describe(sub, f"{path} {name}"))
            continue
        key = " ".join(action.option_strings) or action.dest
        options[key] = {
            "kind": type(action).__name__,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "type": _type_name(action.type),
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "nargs": action.nargs,
            "required": action.required,
        }
    groups = [
        {"required": group.required,
         "options": [" ".join(a.option_strings)
                     for a in group._group_actions]}
        for group in parser._mutually_exclusive_groups
    ]
    out[path] = {"options": options, "groups": groups}
    return out


def _current():
    return json.loads(json.dumps(describe(build_parser())))


class TestParserPin:
    def test_matches_pin_recorded_before_the_table(self):
        expected = json.loads(PIN_PATH.read_text())
        # The one option deleted on purpose: table3b ignored it.
        del expected["repro-exp table3b"]["options"]["--tasks"]
        current = _current()
        assert sorted(current) == sorted(expected)
        for path in expected:
            assert current[path] == expected[path], path

    def test_every_command_has_a_runner(self):
        parser = build_parser()
        for argv in (["table2"], ["fig1"], ["table3b"], ["ledger", "list"],
                     ["ledger", "sweep"], ["load", "report"], ["dash"]):
            assert callable(parser.parse_args(argv).run), argv


class TestErrorExit:
    """Every :class:`~repro.errors.ReproError` ends in one ``error:``
    line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,needle", [
        (["faults", "--tasks", "5"], "at least"),
        (["ledger", "sweep", "--workers", "bogus"], "bogus"),
        (["load", "sequence", "--requests", "5", "--tenants", "a"],
         "name=weight"),
    ])
    def test_repro_error_exits_2_without_traceback(
            self, argv, needle, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err
        assert "Traceback" not in err


class TestLoadRun:
    def test_unlabeled_run_is_archived(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        assert main(["load", "run", "--requests", "4", "--rate", "200",
                     "--no-pace", "--reps", "1", "--db", db]) == 0
        assert f"archived load_run #1 to {db}" in capsys.readouterr().out


def _dump(pin) -> str:
    """JSON with one line per option, so a diff names the option."""
    commands = []
    for path in sorted(pin):
        entry = pin[path]
        options = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(spec, sort_keys=True)}"
            for key, spec in sorted(entry["options"].items())
        )
        commands.append(
            f" {json.dumps(path)}: {{\n"
            f"  \"groups\": {json.dumps(entry['groups'])},\n"
            f"  \"options\": {{\n{options}\n  }}\n }}"
        )
    return "{\n" + ",\n".join(commands) + "\n}\n"


if __name__ == "__main__":  # pragma: no cover
    PIN_PATH.write_text(_dump(_current()))
