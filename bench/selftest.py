"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Builds a small set of real outputs with the program, then runs every check
of bench/checks.py (and the round-to-round determinism check of run.py)
on the real output, which must pass, and on copies perturbed on purpose,
each of which must be rejected. Exits 0 only if every check does both.
"""

import copy
import json
import shutil
import sys

import numpy as np

import run
from run import CASE, CONFIG, GROUP, RHO, checks

ROWS = 1200          # gen-data rows; `train` needs at least two batches of 500
SAMPLES = 4000       # popf --samples
TRAIN = {"epochs_unsup": 5, "epochs_sup": 100}
POPF_SEED, CONVERGE_SEED = 5, 6


def build(work):
    cfg = copy.deepcopy(CONFIG)
    cfg["output_dir"] = str(work)
    cfg["checkpoint"] = str(work / "model" / "model.ckpt")
    cfg["train"].update(TRAIN)
    cfg["sampling"].update({"n_train": ROWS, "n_mcs": 200, "seed": run.DOC_SEED})
    path = work / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = {}
    for name, argv in [
        ("gen-data", ["gen-data"]),
        ("train", ["train"]),
        ("popf", ["popf", "--samples", str(SAMPLES), "--set", f"sampling.seed={POPF_SEED}",
                  "--set", f"output_dir={work / 'popf'}"]),
        ("converge", ["popf", "--converge", "--set", f"sampling.seed={CONVERGE_SEED}",
                      "--set", f"output_dir={work / 'converge'}"]),
        ("compare", ["compare", "--set", f"output_dir={work / 'compare'}"]),
    ]:
        calls[name] = run.must(run.invoke([argv[0], "-c", str(path), *argv[1:]]))
    return calls


# perturbations: each takes the parsed output and returns a changed copy


def add(r, c, by):
    def edit(a):
        a = a.copy()
        a[r, c] += by
        return a
    return edit


def scale(r, c, by):
    def edit(a):
        a = a.copy()
        a[r, c] *= by
        return a
    return edit


def shuffle(c):
    def edit(a):
        a = a.copy()
        a[:, c] = np.random.default_rng(0).permutation(a[:, c])
        return a
    return edit


def set_key(path, value):
    def edit(doc):
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return edit


def perturbed_file(src, dst, edit):
    """Copy src's directory to dst's and write the edited src to dst."""
    shutil.copytree(src.parent, dst.parent)
    if src.suffix == ".json":
        dst.write_text(json.dumps(edit(json.loads(src.read_text(encoding="utf-8")))),
                       encoding="utf-8")
    else:
        # a leading label column (popf_stats.tsv's index names) is kept as is
        header, *lines = src.read_text(encoding="utf-8").splitlines()
        cells = [line.split("\t") for line in lines]
        labelled = not cells[0][0].lstrip("-").replace(".", "", 1).isdigit()
        table = np.array([[float(v) for v in row[labelled:]] for row in cells])
        body = ["\t".join(row[:labelled] + [f"{v:.17g}" for v in values])
                for row, values in zip(cells, edit(table))]
        dst.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    return dst


def main():
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = build(work)
    case = checks.Case(CASE)
    ds = work / "dataset"
    x, y = checks.read_tsv(ds / "X.tsv"), checks.read_tsv(ds / "Y.tsv")
    samples = checks.read_tsv(ds / "samples.tsv")
    rows = [3, 7]
    v_col, gen_col = 1 + 4, 1 + case.nb + 1
    br_col = 1 + case.nb + len(case.gens) + 2
    groups = CONFIG["sampling"]["correlation"]
    model = checks.read_checkpoint(work / "model" / "model.ckpt")
    popf_values = checks.surrogate(model, checks.features(
        case, checks.draw_samples(case, SAMPLES, POPF_SEED, groups)))
    conv_values = checks.surrogate(model, checks.features(
        case, checks.draw_samples(case, checks.CV_CAP, CONVERGE_SEED, groups)))
    conv_out = calls["converge"].stdout
    used = checks.consumed_samples(conv_out)

    det = work / "det"
    shutil.copytree(ds, det / "r0")
    shutil.copytree(ds, det / "r1")

    def flip_digit(_):
        out = work / "bad" / "det"
        shutil.copytree(det, out)
        data = bytearray((out / "r1" / "Y.tsv").read_bytes())
        data[100] = ord("7") if data[100] != ord("7") else ord("3")
        (out / "r1" / "Y.tsv").write_bytes(bytes(data))
        return out

    def sur_dc_equal(doc):
        vexc = doc["errors"]["surrogate"]["exceedance"]["voltage"]["0.01"]
        return set_key(["errors", "dc_only", "exceedance", "voltage", "0.01"], vexc)(doc)

    def in_dir(check):
        return lambda path: check(path.parent)

    # (name, check, real output, perturbations)
    cases = [
        ("X from samples", lambda a: checks.check_features(case, a, samples), x,
         [add(3, 0, 1e-6)]),
        ("cost from MW curves", lambda a: checks.check_cost(case, a), y,
         [scale(5, 0, 1 + 1e-8)]),
        ("AC power flow", lambda a: checks.check_power_flow(case, a, samples, rows), y,
         [add(3, v_col, 1e-6), add(7, br_col, 1e-6), add(3, gen_col - 1, 1e-6)]),
        ("dispatch QP", lambda a: checks.check_dispatch(case, a, samples, rows), y,
         [add(7, gen_col, 1e-5)]),
        ("sampler moments", lambda a: checks.check_sampler(case, a, GROUP, RHO), samples,
         [add(slice(None), 0, 0.01), add(slice(None), 3, 0.02),
          add(slice(None), 4, 0.01), shuffle(1)]),
        ("training history", lambda p: checks.check_history(p, TRAIN["epochs_sup"]),
         work / "model" / "model.history.tsv",
         [lambda a: add(-1, 2, a[0, 2])(a), add(-1, 2, np.nan), lambda a: a[:-1]]),
        ("popf_stats from a numpy forward pass", lambda p: checks.check_stats(p, popf_values),
         work / "popf" / "popf_stats.tsv", [scale(3, 0, 1 + 1e-7), scale(20, 1, 1 + 1e-7)]),
        ("densities integrate to 1", in_dir(checks.check_densities),
         work / "popf" / "density_cost.tsv", [scale(slice(None), 1, 1.001)]),
        ("compare densities integrate to 1", in_dir(checks.check_densities),
         work / "compare" / "density_cost.tsv", [scale(slice(None), 2, 0.999)]),
        ("converge sample count", lambda s: checks.check_converge(s, conv_values), conv_out,
         [lambda s: f"converged at {used + 1} in 1 s", lambda s: f"{used - 1} samples in 1 s"]),
        ("converge stats", lambda p: checks.check_stats(p, conv_values[:used]),
         work / "converge" / "popf_stats.tsv", [scale(0, 0, 1 + 1e-7)]),
        ("report accuracy", checks.check_report, work / "compare" / "report.json",
         [set_key(["errors", "surrogate", "e_mean", 0], 0.0101),
          set_key(["errors", "surrogate", "exceedance", "voltage", "0.01"], 0.0101),
          sur_dc_equal]),
        ("determinism across rounds", lambda d: run.determinism(d, "r"), det, [flip_digit]),
    ]

    failures = 0
    for i, (name, check, real, edits) in enumerate(cases):
        accepted = check(real) == []
        caught = 0
        for k, edit in enumerate(edits):
            if isinstance(real, (np.ndarray, str)) or real == det:
                target = edit(real)
            else:
                target = perturbed_file(real, work / "bad" / f"{i}-{k}" / real.parent.name
                                        / real.name, edit)
            caught += check(target) != []
        ok = accepted and caught == len(edits)
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: real output "
              f"{'accepted' if accepted else 'REJECTED'}, {caught}/{len(edits)} "
              f"perturbed copies rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
