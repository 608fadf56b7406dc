"""The analyser reads process source by slicing the file's cached lines.

``_proc_source`` replaces ``inspect.getsource``, which tokenises the whole
file to find where a function ends.  For every function the analyser
parses — across the shipped designs and the verify targets — and every
function defined in the component tests beside this file, both methods
must give the same syntax tree.
"""

import ast
import functools
import inspect
import textwrap
import types
from pathlib import Path

import pytest

import repro.rtl.compile as rtl_compile
from repro.designs import (
    BlurCustomDesign,
    Saa2VgaCustomFIFO,
    Saa2VgaCustomSRAM,
    VideoSystem,
    build_blur_histogram_pipeline,
    build_blur_pattern,
    build_dual_path_saa2vga,
    build_rgb_over_bus_pipeline,
    build_saa2vga_pattern,
)
from repro.rtl import Simulator
from repro.rtl.compile import analyze
from repro.verify.session import TARGETS, verify
from repro.video import random_frame

DESIGNS = [
    lambda: build_saa2vga_pattern("fifo", capacity=8),
    lambda: build_saa2vga_pattern("sram", capacity=8),
    lambda: Saa2VgaCustomFIFO(capacity=8),
    lambda: Saa2VgaCustomSRAM(capacity=8),
    lambda: build_blur_pattern(line_width=10, out_capacity=8),
    lambda: BlurCustomDesign(line_width=10, out_capacity=8),
    lambda: build_dual_path_saa2vga(capacity=8, fifo_depth=4),
    lambda: build_blur_histogram_pipeline(line_width=10),
    lambda: build_rgb_over_bus_pipeline(capacity=8, fifo_depth=4),
]


def _getsource(func):
    try:
        return textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None


def _tree(func, source_of):
    analyze._SOURCE_CACHE.pop(func.__code__, None)
    original = analyze._proc_source
    analyze._proc_source = source_of
    try:
        tree = analyze._parse_proc(func)
    finally:
        analyze._proc_source = original
        analyze._SOURCE_CACHE.pop(func.__code__, None)
    return None if tree is None else ast.dump(tree)


def _parsed_by_the_analyser(monkeypatch):
    """Every function the analyser parses while compiling the shipped
    designs and running each verify target once."""
    seen = {}
    parse = analyze._parse_proc

    def spy(func):
        seen[func.__code__] = func
        return parse(func)

    monkeypatch.setattr(analyze, "_parse_proc", spy)
    rtl_compile._clear_recipes()
    frame = random_frame(10, 4, seed=1)
    for build in DESIGNS:
        Simulator(VideoSystem(build(), frames=[frame]))
    for name in sorted(TARGETS):
        verify(name, seed=0, cycles=20)
    monkeypatch.undo()
    rtl_compile._clear_recipes()
    return list(seen.values())


def _defined_beside_this_file():
    """A function object for every function defined in ``tests/rtl``."""
    funcs = []

    def walk(code, globals_):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                cells = tuple(types.CellType() for _ in const.co_freevars)
                funcs.append(types.FunctionType(const, globals_,
                                                closure=cells))
                walk(const, globals_)

    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        walk(compile(path.read_text(), str(path), "exec"), {})
    return funcs


def test_the_analyser_sees_the_getsource_tree(monkeypatch):
    funcs = _parsed_by_the_analyser(monkeypatch)
    assert len(funcs) > 40
    differ = [func.__qualname__ for func in funcs
              if _tree(func, analyze._proc_source) != _tree(func, _getsource)]
    assert differ == []


def test_every_function_in_the_component_tests_parses_alike():
    funcs = _defined_beside_this_file()
    assert len(funcs) > 300
    differ = [f"{func.__code__.co_filename}:{func.__code__.co_firstlineno}"
              for func in funcs
              if _tree(func, analyze._proc_source) != _tree(func, _getsource)]
    assert differ == []


def test_a_wrapper_reads_its_own_source():
    def wrapped():
        return 1

    @functools.wraps(wrapped)
    def wrapper():
        return wrapped()

    assert "return wrapped()" in analyze._proc_source(wrapper)
    assert "return wrapped()" not in _getsource(wrapper)


@pytest.mark.parametrize("source", ["lambda: 0", None])
def test_code_without_source_lines_has_none(source):
    namespace = {}
    if source is None:
        exec("def made():\n    return 0\n", namespace)
        func = namespace["made"]
    else:
        func = eval(source)
    assert analyze._proc_source(func) is None
