"""README stays in step with the code: every flag its command-line usage
shows exists, the scenario keys it names are the ones replan accepts, the
benchmark stages it lists are the ones bench reports, the bank format it
names is the one load reads, and every code name it calls or qualifies
exists in the package."""
import argparse
import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import mptraj
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


# the owners of call forms in README that are numpy's or Python's, not mptraj's
NOT_MPTRAJ = {"diag", "exp", "float", "np", "print", "tuple"}
# the extensions of file names, such as `wdist.json`, which read as Owner.name
FILE_SUFFIXES = {"csv", "json", "npz", "svg"}


def _names(owner) -> set:
    """The attributes of a module or class, and the fields of a dataclass."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return set(dir(owner)) | {field.name for field in fields}


def test_readme_code_names_exist():
    # each backticked `name(` or `Owner.name`: a name of an mptraj module or
    # public class, and of Owner itself where Owner is such a class
    modules = [mptraj] + [importlib.import_module(f"mptraj.{info.name}")
                          for info in pkgutil.iter_modules(mptraj.__path__)]
    classes = {name: obj for module in modules for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("mptraj")
               and not name.startswith("_")}
    known = set().union(*map(_names, modules + list(classes.values())))
    unknown = []
    # backticks pair within a paragraph, so a span may wrap a line; fenced
    # blocks are shell, not code names
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    spans = [span for paragraph in re.split(r"\n\s*\n", prose)
             for span in re.findall(r"`([^`]+)`", paragraph)]
    for span in spans:
        for match in re.finditer(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\()?", span):
            parts = match[1].split(".")
            if ((len(parts) == 1 and not match[2]) or parts[0] in NOT_MPTRAJ
                    or parts[-1] in FILE_SUFFIXES):
                continue
            owner = classes.get(parts[-2]) if len(parts) > 1 else None
            if parts[-1] not in (_names(owner) if owner else known):
                unknown.append(match[0])
    assert unknown == []
