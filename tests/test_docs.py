"""The README's references to package names resolve to real objects."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# `caflow.<module>.<name>`, optionally followed by ` / `other_name`` for a
# second name in the same module
_REF = re.compile(r"`caflow\.(\w+)\.(\w+)(?:\([^`]*\))?`(?:\s*/\s*`(\w+)`)?")


def test_readme_names_resolve():
    refs = _REF.findall(README.read_text(encoding="utf-8"))
    assert refs, "README mentions no caflow.<module>.<name>"
    missing = []
    for module, name, second in refs:
        mod = importlib.import_module(f"caflow.{module}")
        missing += [f"caflow.{module}.{n}" for n in (name, second) if n and not hasattr(mod, n)]
    assert not missing, f"README names objects that do not exist: {missing}"


def _synopsis_flags():
    # `caflow <command> ...` lines of README's "Command line" block, with
    # their indented continuation lines
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("caflow "):
            command = line.split()[1]
            flags[command] = set()
        if command is not None:
            flags[command] |= set(re.findall(r"--[\w-]+", line))
    return flags


def test_readme_command_line_flags_are_accepted():
    from caflow.cli import _build_parser

    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    synopsis = _synopsis_flags()
    assert set(synopsis) == set(subparsers)
    unknown = [
        f"{command} {flag}"
        for command, flags in synopsis.items()
        for flag in sorted(flags)
        if flag not in subparsers[command]._option_string_actions
    ]
    assert not unknown, f"README lists flags its subcommand does not accept: {unknown}"


def test_readme_config_block_parses():
    # README's "Config format" example is a complete config, so a key that the
    # parser no longer accepts cannot stay documented there
    from caflow.cli import parse_config_text

    block = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    spec = parse_config_text(block.split("```", 2)[1], source="README.md")
    assert spec.cfg.n_areas == 2
