"""The timed models read enum members through the names `protocol` binds
for them, never through the enum class: every attribute read on an enum
class goes through `EnumType.__getattr__`, a slow path on the code that
runs per simulated event."""
import ast
from enum import Enum
from pathlib import Path

from culsim import protocol

SRC = Path(protocol.__file__).resolve().parent
HOT_MODULES = ("sim.py", "cache.py", "ccu.py", "baseline.py", "memsys.py")
ENUMS = {name: set(obj.__members__) for name, obj in vars(protocol).items()
         if isinstance(obj, type) and issubclass(obj, Enum)}


def enum_reads_in_function_bodies(path: Path) -> list:
    """`file:line: Class.MEMBER` for each member read through its class in
    a function body; class-level defaults are left alone."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        for sub in (n for stmt in body for n in ast.walk(stmt)):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.attr in ENUMS.get(sub.value.id, ())):
                found.add(f"{path.name}:{sub.lineno}: {sub.value.id}.{sub.attr}")
    return sorted(found)


def test_the_guard_sees_every_enum_and_a_planted_read(tmp_path):
    assert {"LineState", "CoherentKind", "OpKind"} <= set(ENUMS)
    planted = tmp_path / "planted.py"
    planted.write_text("class C:\n    state = LineState.INVALID\n\n"
                       "def f(line):\n    return line.state is LineState.INVALID\n")
    assert enum_reads_in_function_bodies(planted) == ["planted.py:5: LineState.INVALID"]


def test_hot_modules_read_no_enum_member_through_its_class():
    found = [hit for name in HOT_MODULES for hit in enum_reads_in_function_bodies(SRC / name)]
    assert found == []
