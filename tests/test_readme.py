"""The README's code blocks must actually run.

Documentation that drifts from the code is worse than none; this test
extracts every ```python block from README.md and executes it.
"""

import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def cli_lines():
    """Each ``repro-traffic`` command in the README's bash blocks, as
    argv words: continuation lines joined, ``#`` comments dropped."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["repro-traffic"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_has_python_examples(self):
        assert len(python_blocks()) >= 1

    @pytest.mark.parametrize(
        "index, block",
        list(enumerate(python_blocks())),
        ids=lambda value: str(value) if isinstance(value, int) else "block",
    )
    def test_block_executes(self, index, block):
        # Shrink the quickstart's trace for test speed: the semantics
        # are duration-invariant.
        source = block.replace("duration_s=600", "duration_s=60")
        namespace = {}
        exec(compile(source, "README.md", "exec"), namespace)

    def test_quickstart_phi_claim(self):
        """The quickstart's comment promises phi ~ 0.01; hold it to
        the right order of magnitude."""
        from repro.core import PACKET_SIZE_TARGET, make_sampler
        from repro.core.evaluation import score_sample
        from repro.workload import nsfnet_hour_trace

        trace = nsfnet_hour_trace(duration_s=120)
        sampler = make_sampler("systematic", granularity=50)
        result = sampler.sample(trace)
        score = score_sample(trace, result, PACKET_SIZE_TARGET)
        assert score.phi < 0.1

    def test_documented_cli_commands_exist(self):
        """Every `repro-traffic <sub>` the README shows must parse."""
        from repro.cli import build_parser

        text = README.read_text()
        subcommands = set(re.findall(r"repro-traffic (\w[\w-]*)", text))
        parser = build_parser()
        known = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                known |= set(action.choices)
        assert subcommands <= known, subcommands - known

    def test_documented_cli_lines_parse(self):
        """Every `repro-traffic ...` line in a bash block parses, flags
        and all."""
        from repro.cli import build_parser

        parser = build_parser()
        commands = cli_lines()
        assert len(commands) >= 10
        rejected = []
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                rejected.append(" ".join(argv))
        assert not rejected, rejected

    def test_linked_documents_exist(self):
        root = README.parent
        for relative in re.findall(r"\]\(([\w/._-]+\.md)\)", README.read_text()):
            assert (root / relative).exists(), relative
