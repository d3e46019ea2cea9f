"""From-scratch JavaScript analysis engine.

Provides everything the paper's behavioural/static JS analysis needs:

* :func:`repro.jsengine.parser.parse` — ES5-subset parser,
* :class:`repro.jsengine.interpreter.Interpreter` — sandboxed
  tree-walking execution, the one JS engine and evaluator (the staticjs
  abstract machine subclasses it); its
  :func:`~repro.jsengine.interpreter.evaluate_binary` is the one
  implementation of JS operator semantics (static analysis folds
  through it too),
* :class:`repro.jsengine.compilecache.CompileCache` — once-per-source
  memo of the AST (and of its index, the staticjs report and the
  content heuristics' per-script outputs) shared by a pipeline run and
  every JS consumer in it,
* :class:`repro.jsengine.astindex.AstIndex` — the preorder index every
  static consumer iterates: one traversal per distinct script,
* :class:`repro.jsengine.hostenv.BrowserHost` /
  :func:`repro.jsengine.hostenv.run_script_in_page` — browser host
  environment with behaviour capture, the one browser host (the
  staticjs abstract host subclasses it),
* :func:`repro.jsengine.deobfuscate.deobfuscate` — static layer peeling,
* :func:`repro.jsengine.features.extract_features` — Zozzle-style
  syntax-tree features.
"""

from .compilecache import CompileCache
from .deobfuscate import DeobfuscationResult, deobfuscate, looks_obfuscated
from .features import JsFeatures, extract_features
from .hostenv import BehaviorLog, BrowserHost, run_script_in_page
from .interpreter import BudgetExceeded, Interpreter
from .lexer import LexError
from .parser import ParseError, parse
from .values import JSException, UNDEFINED

__all__ = [
    "BehaviorLog",
    "BrowserHost",
    "BudgetExceeded",
    "CompileCache",
    "DeobfuscationResult",
    "Interpreter",
    "JSException",
    "JsFeatures",
    "LexError",
    "ParseError",
    "UNDEFINED",
    "deobfuscate",
    "extract_features",
    "looks_obfuscated",
    "parse",
    "run_script_in_page",
]
