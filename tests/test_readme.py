"""The README's library example runs as written, its command-line
sections document exactly the subcommands and options the parsers take,
and its experiment-config table exactly the keys each block takes."""

from __future__ import annotations

import argparse
import inspect
import re

import pytest

import conf_ensemble
from conf_ensemble import cli

from conftest import ROOT, SWEEP_SCRIPT, load_script
from test_builder import REBASED_SIZES


def readme_section(heading: str) -> str:
    """The README text from ``## heading`` to the next ``## `` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n")[1].split("\n## ")[0]


def library_example() -> str:
    """The python block under the README's "Library example" heading."""
    section = readme_section("Library example")
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """The --options of parser and of its subcommands, --help left out."""
    options = set()
    for action in parser._actions:
        options |= {o for o in action.option_strings if o.startswith("--")}
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= long_options(sub)
    return options - {"--help"}


def subcommands(parser: argparse.ArgumentParser) -> set[str]:
    return {name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for name in action.choices}


def sweep_parser() -> argparse.ArgumentParser:
    return load_script(SWEEP_SCRIPT).build_parser()


@pytest.mark.parametrize(
    "heading, parser",
    [("CLI", cli.build_parser), ("Experiment script", sweep_parser)],
    ids=["cli", "sweep"],
)
def test_documented_flags_match_the_parser(heading, parser):
    documented = set(re.findall(r"--[a-z][a-z-]*", readme_section(heading)))
    assert documented == long_options(parser())


def config_table() -> dict[str, tuple[str, set[str]]]:
    """The README's experiment-config table: each block's owner and the
    keys it documents (the backticked names outside parentheses)."""
    section = readme_section("CLI").split("\n### Experiment config\n")[1]
    rows = re.findall(r"^\| (`.+?) \| `(\w+)` \| (.+) \|$", section, re.M)
    return {block: (owner, set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))))
            for block, owner, keys in rows}


def test_documented_config_keys_match_their_owners():
    """Each block documents exactly the parameters of the record or
    loader it becomes; the runtime block's threshold stands for
    RuntimeConfig's thresholds."""
    table = config_table()
    assert [owner for owner, _ in table.values()] == [
        "generate_blobs", "load_csv", "load_idx", "BuildConfig", "ClassifierRecipe",
        "TrainConfig", "RuntimeConfig"]
    for block, (owner, keys) in table.items():
        taken = set(inspect.signature(getattr(conf_ensemble, owner)).parameters)
        if owner == "RuntimeConfig":
            taken = taken - {"thresholds"} | {"threshold"}
        assert keys == taken, block


def test_documented_subcommands_match_the_parser():
    documented = set(re.findall(r"^conf-ensemble ([a-z-]+)", readme_section("CLI"), re.M))
    assert documented == subcommands(cli.build_parser())


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    # The example is the builder tests' rebased chain on the same blobs.
    assert namespace["report"].subset_sizes() == REBASED_SIZES
    assert namespace["record"].num_samples == 3000
    assert capsys.readouterr().out.count("\n") == 2
