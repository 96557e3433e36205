"""The CLI's interface, pinned field by field.

`data/cli_interface.json` records, for the top-level parser and each
subcommand, every argument's option strings, dest, type, default, required
flag, choices, metavar, nargs and help, in registration order, plus each
mutually exclusive group.  A refactor of `cli.build_parser` must reproduce
it exactly.  The record holds no rendered `--help` text, so it does not
depend on argparse's line wrapping, which differs across Python versions.
A change that means to alter the interface rewrites the record from
``interface(build_parser())``.
"""

import argparse
import json
from pathlib import Path

from deltaprime.cli import build_parser

RECORD = Path(__file__).parent / "data" / "cli_interface.json"


def _argument(action):
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "type": None if action.type is None else action.type.__name__,
        "default": repr(action.default),
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "metavar": action.metavar,
        "nargs": action.nargs,
        "help": action.help,
    }


def _parser_record(parser):
    return {
        "prog": parser.prog,
        "description": parser.description,
        "arguments": [
            _argument(a) for a in parser._actions if not isinstance(a, argparse._SubParsersAction)
        ],
        "exclusive_groups": [
            {"required": g.required, "options": [a.option_strings for a in g._group_actions]}
            for g in parser._mutually_exclusive_groups
        ],
    }


def interface(parser):
    """A JSON-ready record of `parser` and of each subcommand it registers."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in subs._choices_actions}
    return {
        **_parser_record(parser),
        "subcommands_dest": subs.dest,
        "subcommands_required": subs.required,
        "subcommands": [
            {"name": name, "help": helps[name], **_parser_record(sub)}
            for name, sub in subs.choices.items()
        ],
    }


def test_cli_interface_matches_record():
    assert interface(build_parser()) == json.loads(RECORD.read_text())
