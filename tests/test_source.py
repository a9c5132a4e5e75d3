"""Static checks on the library source."""

import ast
import builtins
from pathlib import Path

import glefield
from glefield.mode_sampler import LAWS


def _library_trees():
    for path in sorted(Path(glefield.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _enclosing_functions(tree):
    """Each node inside a function mapped to the innermost function's name."""
    enclosing = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing.update((inner, node.name) for inner in ast.walk(node))
    return enclosing


def test_library_has_no_assert_statements():
    # assert vanishes under python -O, so library control flow must raise
    found = []
    for path, tree in _library_trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _library_exceptions():
    """Each exception class the library defines, mapped to its file:line."""
    classes = {}
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (f"{path.name}:{node.lineno}",
                                      {_name(base) for base in node.bases})

    def is_exception(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in classes and name not in seen and any(
            is_exception(base, seen + (name,)) for base in classes[name][1] if base)

    return {name: where for name, (where, _) in classes.items() if is_exception(name)}


def test_every_library_exception_class_is_raised():
    # an exception class nothing raises is dead API: callers catch it for
    # nothing and the docs promise a failure mode that cannot happen
    raised = set()
    for path, tree in _library_trees():
        raised.update(_name(node.exc) for node in ast.walk(tree)
                      if isinstance(node, ast.Raise) and node.exc is not None)
    exceptions = _library_exceptions()
    assert exceptions
    assert sorted(where for name, where in exceptions.items() if name not in raised) == []


def test_library_outcomes_are_values_not_exceptions():
    # an exception of glefield's own is a failure, reported by cli.main as
    # its exit code; no other handler catches one, so an outcome a caller
    # goes on with (no resonance, a failed inequality) is a returned value.
    # A handler's names are read through module-level tuples of classes
    exceptions = set(_library_exceptions())
    found = []
    for path, tree in _library_trees():
        tuples = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        enclosing = _enclosing_functions(tree)

        def caught(node):
            if isinstance(node, ast.Tuple):
                return {name for elt in node.elts for name in caught(elt)}
            if _name(node) in tuples:
                return caught(tuples[_name(node)])
            return {_name(node)}

        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and (path.stem, enclosing.get(node)) != ("cli", "main")):
                found += [f"{path.name}:{node.lineno}: {name}"
                          for name in sorted(caught(node.type) & exceptions)]
    assert found == []


def test_scipy_is_imported_only_where_it_is_used():
    # an import that runs when its module loads (outside any function) loads
    # scipy in every process that imports glefield, sampling included;
    # scipy.signal is not used at all, and field_assembly, whose gates run on
    # every assembly, uses no scipy anywhere
    found = []
    for path, tree in _library_trees():
        in_functions = {inner for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            scipy = [name for name in names if name.split(".")[0] == "scipy"]
            loads = isinstance(node, (ast.Import, ast.ImportFrom)) and node not in in_functions
            banned = path.stem == "field_assembly" or any(
                name.startswith("scipy.signal") for name in scipy)
            if scipy and (loads or banned):
                found.append(f"{path.name}:{node.lineno}: {scipy[0]}")
    assert found == []


def test_library_reads_no_environment_variables():
    # every setting is a flag or a config key, so a run is fixed by its
    # command line and config file alone
    reads = {"environ", "getenv"}
    found = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in reads:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in reads for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: from os import")
    assert found == []


def test_only_read_outs_read_the_noise_weight():
    # the spectral laws are built for unit noise and lambda is applied once,
    # where a value is read out: below lambda ~ 1e-154 lambda^2 leaves the
    # double range, so a budget, cutoff or tail bound that held it would
    # underflow.  Of the private helpers only `_integrate`, the quadrature, scales
    # its result; the superposition's nodes read no weight at all
    root = Path(glefield.__file__).parent
    readers = []
    for module, wanted in (("spectral", lambda name: name.startswith("_")),
                           ("mode_sampler", lambda name: name == "spectral_nodes")):
        tree = ast.parse((root / f"{module}.py").read_text())
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and wanted(node.name)
                    and node.name != "_integrate"
                    and any(isinstance(inner, ast.Attribute) and inner.attr == "lambda_k"
                            for inner in ast.walk(node))):
                readers.append(f"{module}.{node.name}")
    assert readers == []


# the package's modules, lowest layer first; the package root holds only the
# version, so it sits below them all
_LAYERS = ("__init__", "cm_kernel", "spectral", "mode_sampler", "field_assembly",
           "regularity", "cli", "__main__")


def _imported_modules(node):
    """Short names of the package modules an import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("glefield.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "glefield":
            return []
        module = module[len("glefield."):]
    if module:
        return [module.split(".")[0]]
    return [alias.name if alias.name in _LAYERS else "__init__" for alias in node.names]


def test_modules_import_only_lower_layers():
    # imports run down the layers, so each layer can be read and tested with
    # only those below it loaded.  The one exception is the public covariance
    # sequence of `spectral`, which reads the embedding of `mode_sampler`
    # inside the function, after both modules have loaded
    upward = []
    for path, tree in _library_trees():
        rank = _LAYERS.index(path.stem)
        enclosing = _enclosing_functions(tree)
        for node in ast.walk(tree):
            for target in _imported_modules(node):
                if _LAYERS.index(target) >= rank:
                    upward.append((path.stem, enclosing.get(node), target))
    assert upward == [("spectral", "autocovariance_sequence", "mode_sampler")]


def test_filters_are_sampled_by_one_function():
    # the AR(1) baseline and gle's innovations form have one sampler, for a
    # mode alone or a block of them at any path length: a second caller of
    # the filters would be a second path that must agree with it bit for bit.
    # Past the step loop they and the state recursion share one kernel
    callers = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [(path.stem, node.name, _name(inner)) for inner in ast.walk(node)
                            if isinstance(inner, ast.Call)
                            and _name(inner) in ("_filter", "_filter_paths", "_filter_block")]
    assert sorted(callers) == [("mode_sampler", "_filter_paths", "_filter_block"),
                               ("mode_sampler", "_sample", "_filter"),
                               ("mode_sampler", "_sample", "_filter_paths"),
                               ("mode_sampler", "recursion", "_filter_block")]


def test_fields_sample_through_one_function():
    # a field's modes and sample-mode's one mode go through the one sampler
    # of a block of modes, each from one call site: a second sampling
    # function called from above would be a second route to the same paths
    trees = {path.stem: tree for path, tree in _library_trees()}
    samplers = {node.name for node in trees["mode_sampler"].body
                if isinstance(node, ast.FunctionDef) and "sample" in node.name}
    calls = []
    for module in ("field_assembly", "cli"):
        enclosing = _enclosing_functions(trees[module])
        calls += [(module, enclosing.get(node), _name(node)) for node in ast.walk(trees[module])
                  if isinstance(node, ast.Call) and _name(node) in samplers]
    assert sorted(calls) == [("cli", "cmd_sample_mode", "_sample"),
                             ("field_assembly", "fill", "_sample")]


def test_cli_samples_and_fits_in_one_function_each():
    # sample-field and every reproduce cell sample through one function, and
    # hoelder and every cell fit through one: a second caller would be a
    # second pipeline that must agree with it
    tree = ast.parse((Path(glefield.__file__).parent / "cli.py").read_text())
    enclosing = _enclosing_functions(tree)
    callers = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node) in (
                "assemble_field", "empirical_variogram", "fit_exponent"):
            callers.setdefault(_name(node), []).append(enclosing.get(node))
    assert callers == {"assemble_field": ["_sample_field"], "empirical_variogram": ["_fit"],
                       "fit_exponent": ["_fit"]}


def test_config_files_have_one_reader():
    # the CLI reads its config in one line-anchored pass; a second parser of
    # the same file would be a second reading that must agree with it
    found = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "configparser"]
    assert found == []


def test_only_mode_sampler_compares_law_names():
    # mode_sampler owns the sampling laws: what each law means, which
    # set-up it needs and its closed-form moments.  A comparison with a law
    # name elsewhere would be a second place that says what a law does
    def names_a_law(node):
        return (isinstance(node, ast.Constant) and node.value in LAWS) or _name(node) == "LAWS"

    found = []
    for path, tree in _library_trees():
        if path.stem == "mode_sampler":
            continue
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(names_a_law(inner) for operand in (node.left, *node.comparators)
                          for inner in ast.walk(operand))]
    assert found == []


def test_modes_have_one_constructor():
    # a mode's alpha and lambda come from the array rules in one place, so a
    # mode built for the field, an oracle or one CLI command has one set of bits
    calls = []
    for path, tree in _library_trees():
        enclosing = _enclosing_functions(tree)
        calls += [(path.stem, enclosing.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _name(node) == "Mode"]
    assert sorted(set(calls)) == [("field_assembly", "_modes")]


def test_regularity_reads_no_embedding_or_law_list():
    # the oracles read each law's moments from mode_sampler._law alone
    tree = ast.parse((Path(glefield.__file__).parent / "regularity.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names.add(_name(node))
    assert names & {"_Markov", "LAWS"} == set()
