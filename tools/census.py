"""Reachability census of ``src/repro``: ``PYTHONPATH=src python tools/census.py``

Runs each path in :func:`user_paths` under a ``sys.setprofile`` hook (installed in every process,
bench children and shard workers too, by a ``sitecustomize.py``) and lists each ``def`` never
called and each literal default never given another value.  Exits 1 on one that no fnmatch
pattern in ``tools/census_allow.txt`` covers, or on a pattern that matches no function or
``name(param)`` under ``src/repro`` (``STALE:``); allowlisted names that were reached are reported."""
import ast, concurrent.futures, contextlib, fnmatch, glob, json, os, re, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOOK = r'''
import ast, atexit, json, multiprocessing.util as mp, os, pathlib, sys, threading
OUT = os.environ["CENSUS_OUT"]
DEFS = {(k.rsplit("|", 1)[0], int(k.rsplit("|", 1)[1])): v for k, v in json.load(open(f"{OUT}/defs.json")).items()}
codes, called, other = {}, set(), set()
def hook(frame, event, arg):
    if event != "call" or (todo := codes.get(frame.f_code)) == ():
        return
    if todo is None:
        d = DEFS.get((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        todo = codes[frame.f_code] = (d["name"], {k: ast.literal_eval(v) for k, v in d["params"].items()}) if d else ()
        called.update([d["name"]] if d else [])
    for name, default in list(todo[1].items()) if todo else ():
        value = frame.f_locals.get(name, default)
        if value is not default and not (type(value) is type(default) and value == default):
            other.add(f"{todo[0]}({name})")
            del todo[1][name]
def dump():
    pathlib.Path(f"{OUT}/{os.getpid()}-{os.urandom(4).hex()}.run").write_text(json.dumps([sorted(called), sorted(other)]))
atexit.register(dump)  # a forked multiprocessing child skips atexit and clears finalizers at start:
os.register_at_fork(after_in_child=lambda: mp.register_after_fork(dump, lambda _: mp.Finalize(None, dump, exitpriority=0)))
sys.setprofile(hook)
threading.setprofile(hook)
'''


def inventory():
    defs = {}
    for path in sorted((ROOT / "src").glob("repro/**/*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        def walk(node, prefix):  # noqa: E306
            for fn in ast.iter_child_nodes(node):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a, params, first = fn.args, {}, min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    pos = a.posonlyargs + a.args
                    for arg, default in [*zip(pos[::-1], a.defaults[::-1]), *zip(a.kwonlyargs, a.kw_defaults)]:
                        with contextlib.suppress(ValueError):  # not a literal, or no default
                            params[arg.arg] = repr(ast.literal_eval(default))
                    defs[f"{path}|{first}"] = {"name": f"{module.replace('.__init__', '')}:{prefix}{fn.name}",
                                               "lines": fn.end_lineno - first + 1, "params": params}
                if isinstance(fn, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(fn, f"{prefix}{fn.name}.")
        walk(ast.parse(path.read_text()), "")
    return defs


def user_paths():
    """Every way a user runs the program: ``(argv, extra environment)``."""
    py, readme = sys.executable, (ROOT / "README.md").read_text()
    for backend in ("scalar", "numpy"):
        yield [py, "-m", "repro.analysis", "--out", "OUT"], {"REPRO_BACKEND": backend}
    yield [py, "bench/run.py", "--smoke", "--out", "OUT"], {}
    for workload in ("solo_articulated", "solo_contact", "fleet_serve"):
        yield [py, "bench/run.py", "--workload", workload, "--passes", "1", "--out", "OUT"], {}
    for example in sorted(glob.glob(str(ROOT / "examples" / "*.py"))):
        yield [py, example] + (["4"] if example.endswith("batch_throughput.py") else []), {}
    yield [py, "-c", "".join(re.findall(r"```python\n(.*?)```", readme, re.S))], {}


def main():
    defs = inventory()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK)
        Path(tmp, "defs.json").write_text(json.dumps(defs))
        env = dict(os.environ, CENSUS_OUT=tmp, PYTHONPATH=f"{tmp}{os.pathsep}{ROOT / 'src'}")
        with concurrent.futures.ThreadPoolExecutor(2) as pool:  # "OUT": where a run writes tables and bench results
            list(pool.map(lambda path: subprocess.run(
                [tempfile.mkdtemp(dir=tmp) if arg == "OUT" else arg for arg in path[0]], cwd=ROOT,
                env=dict(env, **path[1]), check=True, stdout=subprocess.DEVNULL), user_paths()))
        runs = [json.loads(Path(p).read_text()) for p in glob.glob(f"{tmp}/*.run")]
    called, other = ({n for run in runs for n in run[i]} for i in (0, 1))
    unreached = [d for d in defs.values() if d["name"] not in called]
    lines = sum(d["lines"] for d in unreached  # nested defs count once, with their parent
                if not any(d["name"].startswith(u["name"] + ".") for u in unreached))
    single = [f"{d['name']}({p})" for d in defs.values() if d["name"] in called
              for p in d["params"] if f"{d['name']}({p})" not in other]
    print(f"{len(defs)} functions, {len(unreached)} ({lines} lines) never called; {len(single)} of"
          f" {sum(len(d['params']) for d in defs.values() if d['name'] in called)} literal defaults"
          " of called functions never took another value")
    names = sorted(d["name"] for d in unreached) + sorted(single)
    allow = [ln.split()[0] for ln in (ROOT / "tools/census_allow.txt").open() if ln.split() and ln[0] != "#"]
    known = [d["name"] for d in defs.values()] + [f"{d['name']}({p})" for d in defs.values() for p in d["params"]]
    stale = [p for p in allow if not fnmatch.filter(known, p)]
    for pattern in (p for p in allow if p not in stale and not fnmatch.filter(names, p)):
        print(f"reached, but allowlisted: {pattern}")
    failed = [n for n in names if not any(fnmatch.fnmatchcase(n, p) for p in allow)]
    print("".join(f"STALE: {p} matches no function or parameter\n" for p in stale), end="")
    print("".join(f"NOT ALLOWED: {name}\n" for name in failed), end="")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
