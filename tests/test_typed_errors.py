"""Library errors stay typed: every exception class that ``src/jetsuff``
defines, builds or raises is one of ``jetsuff.errors``, or on the short
list below."""

import ast
import builtins
from pathlib import Path

import jetsuff
from jetsuff import errors

SRC = Path(jetsuff.__file__).parent
TYPED = {name for name, v in vars(errors).items()
         if isinstance(v, type) and issubclass(v, Exception)}
BUILTIN = {name for name, v in vars(builtins).items()
           if isinstance(v, type) and issubclass(v, BaseException)}
# (module, class): why that class, and not one of jetsuff.errors
DECLARED = {
    ("sampling.py", "ImportError"): "scipy, whose Sobol table is read, is missing",
    ("sampling.py", "RuntimeError"): "the Sobol table's layout changed in scipy",
    ("germ.py", "NotImplementedError"): "ZSpec.distance_many of the base class",
    ("germ.py", "ValueError"): "raised in germ_from_json, which converts it",
    ("lojasiewicz.py", "AttributeError"): "the module __getattr__",
    ("trivializer.py", "AttributeError"): "the module __getattr__",
}


def exception_classes(tree):
    """(class name, line) for each exception class the module defines, builds
    or raises. A raised lowercase name is a variable: a re-raise of an error
    built, and so checked, elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if any(isinstance(b, ast.Name) and b.id in BUILTIN | TYPED for b in node.bases):
                yield node.name, node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", ""))
            if name[:1].isupper():
                yield name, node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUILTIN:
            yield node.func.id, node.lineno


def found():
    """{(module, class): the lines} over every module but ``errors.py``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            for name, line in exception_classes(ast.parse(path.read_text())):
                out.setdefault((path.name, name), set()).add(line)
    return out


def test_library_errors_are_typed():
    untyped = {key: sorted(lines) for key, lines in found().items()
               if key[1] not in TYPED and key not in DECLARED}
    assert untyped == {}


def test_declared_exceptions_are_still_raised():
    assert set(DECLARED) <= set(found())


def test_the_walk_sees_every_form():
    tree = ast.parse("class E(ValueError): pass\n"
                     "raise KeyError\n"
                     "raise np.linalg.LinAlgError('x')\n"
                     "errors[i] = ZeroDivisionError('float division by zero')\n"
                     "raise error\n")
    assert sorted(exception_classes(tree)) == [
        ("E", 1), ("KeyError", 2), ("LinAlgError", 3), ("ZeroDivisionError", 4)]
