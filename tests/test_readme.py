"""The README's library example runs as written."""

from __future__ import annotations

import re

from conftest import ROOT

from test_builder import REBASED_SIZES


def library_example() -> str:
    """The python block under the README's "Library example" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example")[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    # The example is the builder tests' rebased chain on the same blobs.
    assert namespace["report"].subset_sizes() == REBASED_SIZES
    assert namespace["record"].num_samples == 3000
    assert capsys.readouterr().out.count("\n") == 2
