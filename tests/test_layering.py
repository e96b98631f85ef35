"""Module layering of the package, read from the source with ast.

The combinatorial modules compute their claims without the matrix oracle,
which only checks them, and every import sits at module level, so the
import graph is the one the module headers show.  Every domain error class
is still raised somewhere in the package, every module-level function,
class and constant is read in its own module or taken from it by another
(imported, or read as module.name), and every module-level import is used
in its module or exported.  Only rational.scaled reads a
Fraction's numerator and denominator, and inside rational only _ratio
builds a Fraction from integers.  The message of every raise in the package is
written in some test, so each of its guards is one that a test reaches.
BoundExceeded, NotInImage and EmptyLift are each raised in one place and
caught in none.  Outside forms, only the sort key of a tableau reads a
space's signature, and no test of a type's classification guards a space
being built.  Every cache that lives as long as the process is bounded.
"""

import ast
from pathlib import Path

import dualpairs
from dualpairs import errors

PACKAGE = Path(dualpairs.__file__).parent
TESTS = Path(__file__).parent
COMBINATORIAL = ("forms", "orbits", "theta", "cycles")


def _imported_modules(tree: ast.Module) -> set:
    """Names of the package modules (and of the names imported from them)
    that the imports of tree mention, relative or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("dualpairs"):
                continue
            out.add(module.removeprefix("dualpairs").lstrip("."))
            out.update(a.name for a in node.names)  # from . import oracle
        elif isinstance(node, ast.Import):
            out.update(a.name.removeprefix("dualpairs.") for a in node.names)
    return out


def test_combinatorial_modules_do_not_import_the_oracle():
    for module in COMBINATORIAL:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert "oracle" not in _imported_modules(tree), module


def test_no_function_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [f"{path.name}:{node.lineno} in {func.name}"
                      for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_only_the_oracle_imports_division():
    # the D-coordinate tuples stay behind the oracle's rational matrices
    importers = sorted(path.stem for path in PACKAGE.glob("*.py")
                       if "division" in _imported_modules(
                           ast.parse(path.read_text())))
    assert importers == ["oracle"]


def test_division_imports_nothing_from_the_package():
    # the division algebras are leaf data: plain int and Fraction tuples
    tree = ast.parse((PACKAGE / "division.py").read_text())
    assert _imported_modules(tree) == set()


def test_oracle_imports_nothing_from_fractions():
    # the oracle builds and checks its matrices on integers
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names}
    assert "fractions" not in imported


def test_every_domain_error_is_raised():
    # an error class must not outlive its last raise
    defined = {cls.__name__ for cls in errors.DomainError.__subclasses__()}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.attr if isinstance(func, ast.Attribute)
                           else getattr(func, "id", None))
    assert defined and sorted(defined - raised) == []


def _assigned_names(node) -> list:
    """The names a module-level statement binds by assignment, dunders
    (__all__, __version__) left out."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and not name.id.startswith("__")]


def _uses(module: str, tree: ast.Module) -> set:
    """The (module, name) pairs that module's tree reads: a bare name is
    read from module itself, a name imported from a package module from
    that module, and mod.name from the module that mod names or aliases
    (from . import cycles as cyc)."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("dualpairs")):
            source = (node.module or "").removeprefix("dualpairs").lstrip(".")
            for a in node.names:
                if source:
                    used.add((source, a.name))
                else:
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add((module, node.id))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add((aliases[node.value.id], node.attr))
    return used


def test_every_module_level_name_is_used():
    # a function, class or constant outlives its last read only in the
    # public API, which __init__ imports; a name is keyed by its module, so
    # a read of another module's namesake (cli._space, forms._space) does
    # not keep it alive
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update((path.stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        defined.update((path.stem, name) for node in tree.body
                       for name in _assigned_names(node))
        used |= _uses(path.stem, tree)
    unused = sorted(f"{module}.py:{name}" for module, name in defined - used)
    assert unused == []


def test_every_module_level_import_is_used():
    # an import outlives its last use only as a re-export in __all__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}"
                   for name in sorted(imported - used)
                   if name not in dualpairs.__all__]
    assert unused == []


def _innermost_functions(tree: ast.Module) -> dict:
    """Each node of tree inside a function, mapped to the name of the
    innermost function around it."""
    where = {}
    for func in ast.walk(tree):  # breadth first: the innermost wins
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where.update((id(node), func.name) for node in ast.walk(func))
    return where


def test_only_scaled_splits_a_fraction():
    # one way into the integer kernel: every other routine takes the
    # integers of rational.scaled, so no second copy of its denominator
    # clearing can come back
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        where = _innermost_functions(tree)
        readers.update(f"{path.stem}.{where.get(id(node), '<module>')}"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in ("numerator", "denominator"))
    assert readers == {"rational.scaled"}


def test_only_ratio_builds_a_fraction():
    # one way out of the integer kernel: inside rational a Fraction is
    # built only by _ratio, an integer over its row's lead or a matrix's
    # denominator, apart from the constants of zeros, eye and _ZERO, so no
    # second readout can come back beside cayley's and inv's
    tree = ast.parse((PACKAGE / "rational.py").read_text())
    where = _innermost_functions(tree)
    builders = {where.get(id(node), "<module>") for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "Fraction"}
    assert builders == {"_ratio", "zeros", "eye", "<module>"}
    assert [ast.unparse(node) for node in tree.body
            if isinstance(node, ast.Assign)
            and "Fraction(" in ast.unparse(node)] == ["_ZERO = Fraction(0)"]


def test_only_forms_asks_for_a_signature():
    # a space is built from (type, p, n) by forms.space_of and read through
    # FormedSpace.p, so no module outside forms writes a branch per
    # classification: none reads .signature, apart from the sort key that
    # orders enumerate_orbits, and no test of a type's classification
    # (.kind, SIG_KINDS) guards a space being built
    readers, builders = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "forms.py":
            continue
        tree = ast.parse(path.read_text())
        where = _innermost_functions(tree)
        readers.update(f"{path.stem}.{where.get(id(node), '<module>')}"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr == "signature")
        for node in ast.walk(tree):
            if not isinstance(node, (ast.If, ast.IfExp)):
                continue
            test = ast.unparse(node.test)
            if ".kind" not in test and "SIG_KINDS" not in test:
                continue
            branches = node.body + node.orelse if isinstance(node, ast.If) \
                else [node.body, node.orelse]
            builders += [f"{path.stem}.{where.get(id(node), '<module>')}"
                         for branch in branches for sub in ast.walk(branch)
                         if isinstance(sub, ast.Call) and ast.unparse(
                             sub.func) in ("formed_space", "space_of")]
    assert readers == {"orbits.sort_key"}
    assert builders == []


def _strings(node) -> list:
    """The string literals in node, the literal parts of f-strings among
    them, with adjacent literals joined as the parser joins them."""
    return [c.value for c in ast.walk(node)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def _re_raises(tree: ast.Module) -> set:
    """Lines of the raises that pass on a message raised elsewhere: str(exc)
    in the handler that caught exc, or the message that argparse hands to
    the error method of an ArgumentParser subclass."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.name:
            passed = f"str({node.name})"
        elif isinstance(node, ast.ClassDef) and "argparse.ArgumentParser" \
                in map(ast.unparse, node.bases):
            passed = "message"
        else:
            continue
        lines.update(r.lineno for r in ast.walk(node)
                     if isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                     and r.exc.args and ast.unparse(r.exc.args[0]) == passed)
    return lines


def _raise_messages(tree: ast.Module) -> list:
    """(line, literal texts) of each raise whose exception is called with a
    message: the strings in its first argument, or, when that is a name a
    for loop binds, the strings the loop iterates.  A re-raise is left out:
    its text is pinned where it is first raised."""
    bound = {}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For):
            bound.update((name.id, _strings(loop.iter))
                         for name in ast.walk(loop.target)
                         if isinstance(name, ast.Name))
    passed_on = _re_raises(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and node.exc.args and node.lineno not in passed_on:
            msg = node.exc.args[0]
            out.append((node.lineno, bound.get(msg.id, [])
                        if isinstance(msg, ast.Name) else _strings(msg)))
    return out


def test_every_raise_is_pinned():
    # a guard of the package either fires in some test, which writes its
    # message, or goes: a check that cannot fail checks nothing
    written = [text for path in sorted(TESTS.glob("*.py"))
               for text in _strings(ast.parse(path.read_text()))]
    unpinned = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, texts in _raise_messages(ast.parse(path.read_text())):
            unpinned += [f"{path.name}:{line}: {text!r}" for text in texts
                         if text.strip()
                         and not any(text in w for w in written)]
            if not texts:
                unpinned.append(f"{path.name}:{line}: no literal message")
    assert unpinned == []


# each of these errors has one raiser in the package: every other operation
# calls it, or reads the cached verdict beneath it, so no inline copy of
# the check, with a message of its own, can come back
ONE_RAISER = {"BoundExceeded": "orbits.py:check_bound",
              "NotInImage": "theta.py:generalized_descent",
              "EmptyLift": "theta.py:theta_lift"}


def test_errors_with_one_raiser_are_raised_in_one_place():
    """BoundExceeded is raised only in orbits.check_bound, NotInImage only
    in theta.generalized_descent and EmptyLift only in theta.theta_lift,
    and no module catches any of them, by except or by
    contextlib.suppress: the moment image is the cached verdict of
    theta._descent, and whether a lift exists that of theta._lift."""
    raisers, catchers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                raisers += [(name, f"{path.name}:{node.name}")
                            for sub in ast.walk(node)
                            if isinstance(sub, ast.Raise)
                            for name in ONE_RAISER if name in ast.unparse(sub)]
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = ast.unparse(node.type)
            elif isinstance(node, ast.Call) \
                    and ast.unparse(node.func).endswith("suppress"):
                caught = ast.unparse(node)
            else:
                continue
            catchers += [f"{path.name}:{node.lineno}: {name}"
                         for name in ONE_RAISER if name in caught]
    assert sorted(raisers) == sorted(ONE_RAISER.items())
    assert catchers == []


def _module_ints(tree: ast.Module) -> dict:
    """The module-level names that tree assigns an int literal."""
    return {target.id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)}


def test_every_cache_is_bounded():
    # a cache decorating a function lives as long as the process, so it
    # needs a finite bound, or the memory it holds grows with every value
    # it meets: each lru_cache names its maxsize, an int or a module int
    # constant, and functools.cache only keeps a function of no argument.
    # A cache built inside a function call (verify's per-suite cycle
    # lifts) is dropped with that call and is not read here.
    seen, unbounded = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        ints = _module_ints(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in func.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = ast.unparse(call.func if call else dec)
                where = f"{path.name}:{func.name}"
                if name in ("functools.lru_cache", "lru_cache"):
                    seen.add(where)
                    sizes = ([k.value for k in call.keywords
                              if k.arg == "maxsize"] + call.args) if call else []
                    size = sizes[0] if sizes else None
                    bound = ints.get(size.id) if isinstance(size, ast.Name) \
                        else getattr(size, "value", None)
                    if type(bound) is not int or bound < 1:
                        unbounded.append(f"{where}: maxsize {bound!r}")
                elif name in ("functools.cache", "cache"):
                    seen.add(where)
                    args = func.args
                    if args.posonlyargs or args.args or args.vararg \
                            or args.kwonlyargs or args.kwarg:
                        unbounded.append(f"{where}: cache with arguments")
    assert unbounded == []
    assert {"forms.py:_space", "orbits.py:validate", "orbits.py:_row_shapes",
            "theta.py:_descent", "theta.py:_lift", "oracle.py:_realize",
            "oracle.py:_identify", "cli.py:build_parser"} <= seen
