"""README command-line usage stays in step with the parser: every flag it
shows exists, the scenario keys it names are the ones replan accepts, the
benchmark stages it lists are the ones bench reports, and the bank format
it names is the one load reads."""
import argparse
import json
import re
from pathlib import Path

from mptraj import BenchScenario, basis, cli, run_benchmark

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(start: str, end: str) -> str:
    """README text from the heading `start` up to the next heading `end`."""
    head = README.index(start)
    stop = README.find(end, head + len(start))
    return README[head:] if stop < 0 else README[head:stop]


def _parser_flags() -> set:
    subs = next(action for action in cli._PARSER._actions
                if isinstance(action, argparse._SubParsersAction))
    flags = set(cli._PARSER._option_string_actions)
    for sub in subs.choices.values():
        flags |= set(sub._option_string_actions)
    return flags


def test_usage_flags_exist_on_the_parser():
    usage = _section("\n## Command-line usage", "\n## ")
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage))
    assert "--bank" in shown
    assert shown - _parser_flags() == set()


def test_scenario_keys_match_the_replan_reader():
    replan = _section("\n### 6. Replan in segments", "\n### ")
    example = json.loads(replan.split("<<'EOF'\n")[1].split("\nEOF")[0])
    optional = re.findall(r"^- `(\w+)`:", replan, flags=re.MULTILINE)
    assert optional
    assert set(example) | set(optional) == set(cli._SCENARIO_KEYS)


def test_bench_stages_match_the_stage_table():
    bench = _section("\n### 7. Benchmark", "\n### ")
    listed = re.findall(r"^- `(\w+)`:", bench, flags=re.MULTILINE)
    tiny = BenchScenario(dofs=1, duration=1.0, rate_hz=200.0, num_basis=5)
    assert listed == list(run_benchmark(tiny, repetitions=1))


def test_bank_format_number_is_the_one_load_reads():
    named = re.findall(r"format\s+number\s+\(currently\s+(\d+)\)", README)
    assert named == [str(basis.BANK_FORMAT)]
