"""The AST index: one traversal per distinct script.

:class:`repro.jsengine.astindex.AstIndex` is the only walk the static
consumers make.  These tests pin that it is the walk they used to make
(the preorder nodes and the depth a recursive walk finds), that
building it does not depend on the caller's stack, and that a corpus
analyzed through one cache calls ``Node.children`` about once per node
the parser built.
"""

import random
import sys
import threading

import pytest

from repro.detection.heuristics import ContentAnalysis, _merge_script_analysis
from repro.jsengine import CompileCache, compilecache, parser
from repro.jsengine import nodes as N
from repro.jsengine.astindex import AstIndex
from repro.jsengine.parser import MAX_NESTING, ParseError, parse
from repro.staticjs import analyze_script

from .test_absint import corpus_sources
from .test_js_differential import GENERATOR_SEED, STATIC_CASES, ProgramGen
from .test_js_parser import _at_stack_depth

#: one source per recursive path through the parser, nested ``n`` deep
NESTINGS = {
    "parens": lambda n: "(" * n + "1" + ")" * n,
    "brackets": lambda n: "[" * n + "]" * n,
    "objects": lambda n: "x = " + "{a: " * n + "1" + "}" * n,
    "calls": lambda n: "f(" * n + ")" * n,
    "members": lambda n: "a" + "[a" * n + "]" * n,
    "unary": lambda n: "!" * n + "x",
    "prefix": lambda n: "++" * n + "x",
    "new": lambda n: "new " * n + "X",
    "assignments": lambda n: "a = " * n + "1",
    "conditionals": lambda n: "a ? b : " * n + "c",
    "blocks": lambda n: "{" * n + "}" * n,
    "ifs": lambda n: "if (a) {" * n + "}" * n,
    "loops": lambda n: "for (;;) " * n + ";",
    "functions": lambda n: "function f() {" * n + "}" * n,
    "function-exprs": lambda n: "(function () {" * n + "})" * n,
    "tries": lambda n: "try {" * n + "} finally {}" * n,
    "switches": lambda n: "switch (a) { case 1: " * n + "}" * n,
}


def _parses(source):
    try:
        parse(source)
    except ParseError:
        return False
    return True


def _deepest(template):
    """The deepest nesting of ``template`` the parser accepts."""
    low, high = 1, MAX_NESTING + 1  # accepted, rejected
    assert _parses(template(low)) and not _parses(template(high))
    while high - low > 1:
        middle = (low + high) // 2
        if _parses(template(middle)):
            low = middle
        else:
            high = middle
    return template(low)


def _recursive_depth(node):
    deepest = 0
    for child in node.children():
        deepest = max(deepest, 1 + _recursive_depth(child))
    return deepest


def _programs():
    rng = random.Random(GENERATOR_SEED + 19)
    sources = [ProgramGen(rng).program() for _ in range(40)]
    sources.extend(STATIC_CASES)
    sources.extend(_deepest(template) for template in NESTINGS.values())
    programs = []
    for source in sources:
        try:
            programs.append(parse(source))
        except Exception:  # noqa: BLE001 - cases that never parse
            continue
    return programs


@pytest.fixture(scope="module")
def programs():
    programs = _programs()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        depths = [_recursive_depth(program) for program in programs]
    finally:
        sys.setrecursionlimit(limit)
    # the 3,000-link chain is the deepest tree
    assert max(depths) > 3_000
    return list(zip(programs, depths))


@pytest.mark.parametrize("caller_depth", [0, 500])
def test_index_is_the_preorder_walk_at_any_caller_depth(programs, caller_depth):
    for program, depth in programs:
        index = (AstIndex(program) if caller_depth == 0 else
                 _at_stack_depth(caller_depth, lambda: AstIndex(program)))
        nodes = list(program.walk())
        assert len(index) == len(nodes)
        assert all(a is b for a, b in zip(index.nodes, nodes))
        assert index.max_depth == depth


def test_subtree_ends_give_children_and_stack_order(programs):
    for program, _depth in programs[:40]:
        index = AstIndex(program)
        for position, node in enumerate(index.nodes):
            children = [index.nodes[child] for child in index.children_of(position)]
            assert len(children) == len(node.children())
            assert all(a is b for a, b in zip(children, node.children()))
            assert index.nodes[position:index.end[position]] == tuple(node.walk())
        # a right-to-left stack walk: pop a node, push its children
        visited, stack = [], [program]
        while stack:
            node = stack.pop()
            visited.append(node)
            stack.extend(node.children())
        ordered = index.stack_order(range(len(index)))
        assert all(index.nodes[p] is node for p, node in zip(ordered, visited))


def test_corpus_calls_children_about_once_per_built_node(monkeypatch):
    """The static pass and the content heuristics over every distinct
    script of the seed-2016 scale-0.005 corpus, through one cache, call
    ``Node.children`` at most 1.2 times per node of every program the
    parser built (the cache's, plus eval payloads and deobfuscated
    sources parsed afresh)."""
    sources = corpus_sources()
    built = []
    parse_tokens = parser.parse_tokens

    def recording(tokens):
        program = parse_tokens(tokens)
        built.append(program)
        return program

    calls = [0]
    children = N.Node.children

    def counting(self):
        calls[0] += 1
        return children(self)

    monkeypatch.setattr(parser, "parse_tokens", recording)
    monkeypatch.setattr(compilecache, "parse_tokens", recording)
    monkeypatch.setattr(N.Node, "children", counting)
    cache = CompileCache()
    for source in sources:
        analyze_script(source, compile_cache=cache)
        _merge_script_analysis(ContentAnalysis(), source, cache)
    monkeypatch.setattr(N.Node, "children", children)
    nodes = sum(len(AstIndex(program)) for program in built)
    assert len(built) > len(sources)
    assert calls[0] <= 1.2 * nodes


def test_threads_sharing_one_cache_compute_the_serial_results():
    """Shard threads share a pipeline's cache: racing first requests may
    each build an entry's index, report or merge result, and every
    reader must still get the values a serial run computes."""
    sources = corpus_sources()[:120]

    def observe(cache):
        out = []
        for source in sources:
            analysis = ContentAnalysis()
            report = analyze_script(source, compile_cache=cache)
            _merge_script_analysis(analysis, source, cache)
            out.append((report.to_dict(), analysis.obfuscation_layers,
                        analysis.obfuscation_score, analysis.injection_score,
                        analysis.eval_count))
        return out

    expected = observe(CompileCache())
    shared = CompileCache()
    results = {}

    def worker(number):
        results[number] = observe(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    assert all(result == expected for result in results.values())
    assert shared.misses == len(sources)
