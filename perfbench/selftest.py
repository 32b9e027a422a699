"""Self-test of the output checks: each check must pass on a clean round
and fail on a copy of it with one planted fault.

    python3 perfbench/run.py --self-test

Runs one `mini` round (a desk round cut to a few seconds) and one `stats`
call on three made-up reports whose ranking is clear, so that its output
holds Wilcoxon and Holm rows whatever the seed. It checks both, then plants
one fault per check in a fresh copy of them:
- an output file that no longer matches its manifest;
- a train sample moved next to a validation cell;
- a train log whose lowest validation loss is not at the epoch the train
  command kept;
- a report row with tss != sensitivity + specificity - 1;
- a stats row whose Friedman p-value is off;
- a stats row whose Wilcoxon p-value is off;
- a stats row whose Holm-adjusted p-value is off.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from checks import (
    REPORT_HEADER,
    check_manifests,
    check_report,
    check_round,
    check_split,
    check_stats,
    check_train_log,
)
from workloads import CELL_SIZE, FOLD, read_table, workload

# TSS per unit of the made-up reports: a beats b on all units but u2, and
# both beat c everywhere, so Friedman is significant (chi2 = 10.33) and a
# is compared with b and with c.
RANKED = {"a": [0.6, 0.55, 0.5, 0.45, 0.4, 0.35],
          "b": [0.5, 0.35, 0.55, 0.3, 0.28, 0.05],
          "c": [-0.1] * 6}


def _rewrite(path: Path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _write_ranked(root: Path, cli) -> list[str]:
    """Three reports of RANKED under root/ranked and the program's stats
    over them; returns failure messages if stats did not run."""
    (root / "ranked").mkdir()
    for name, tss in RANKED.items():
        rows = []
        for i, t in enumerate(tss):
            sens = spec = (1.0 + t) / 2.0
            rows += [["plant", f"u{i}", "1", "0", m, repr(v)] for m, v in
                     (("tss", t), ("sensitivity", sens), ("specificity", spec))]
        _rewrite(root / f"ranked/{name}.csv", REPORT_HEADER, rows)
    rc = cli(["stats", "--reports", *(f"ranked/{n}.csv" for n in RANKED),
              "--names", *RANKED, "--metric", "tss",
              "--out", "ranked/stats.csv"], root)
    return [] if rc == 0 else [f"stats on the ranked reports exited {rc}"]


def _check_ranked(root: Path):
    return check_stats(root, "ranked/stats.csv",
                       [f"ranked/{n}.csv" for n in RANKED], list(RANKED))


def _stale_output(root: Path, _):
    with open(root / "run/report_raw.csv", "a") as fh:
        fh.write("\n")
    return check_manifests(root)


def _train_next_to_validation(root: Path, _):
    """Move the first train sample into a free cell that touches a
    validation cell, in both the locations file and the split manifest."""
    header, rows = read_table(root / "run/split.csv")
    cells = {(int(r[1]), int(r[2])): r[3] for r in rows}
    val = [c for c in cells if cells[c] == str(FOLD)]
    target = next((vx + dx, vy + dy) for vx, vy in val
                  for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                  if (vx + dx, vy + dy) not in val)
    i = next(i for i, r in enumerate(rows) if r[4] == "train")
    fold = cells.get(target, rows[i][3])
    rows[i] = [rows[i][0], str(target[0]), str(target[1]), fold, "train"]
    _rewrite(root / "run/split.csv", header, rows)
    lh, locs = read_table(root / "data/locations.csv")
    locs[i] = [locs[i][0], repr((target[0] + 0.5) * CELL_SIZE),
               repr((target[1] + 0.5) * CELL_SIZE)]
    _rewrite(root / "data/locations.csv", lh, locs)
    return check_split(root, "run/split.csv", "data/locations.csv")


def _best_epoch_moved(root: Path, result):
    """Give an epoch other than the kept one the lowest validation loss."""
    header, rows = read_table(root / "run/train_log.csv")
    val = [float(r[2]) for r in rows]
    i = next(i for i, v in enumerate(val) if v != min(val))
    rows[i][2] = repr(min(val) - 1.0)
    _rewrite(root / "run/train_log.csv", header, rows)
    printed = next(s["stdout"] for s in result["stages"]
                   if s["argv"][0] == "train-botaclip")
    return check_train_log(root, "run/train_log.csv", len(rows), (), printed)


def _bad_tss(root: Path, _):
    header, rows = read_table(root / "run/report_adapted.csv")
    i = next(i for i, r in enumerate(rows) if r[4] == "tss")
    rows[i][5] = repr(float(rows[i][5]) - 0.01)
    _rewrite(root / "run/report_adapted.csv", header, rows)
    return check_report(root, "run/report_adapted.csv", "plant")


def _off_stats_cell(row: int, col: int):
    """A fault that moves one p-value of ranked/stats.csv by 10 %."""
    def plant(root: Path, _):
        header, rows = read_table(root / "ranked/stats.csv")
        rows[row][col] = repr(float(rows[row][col]) * 0.9)
        _rewrite(root / "ranked/stats.csv", header, rows)
        return _check_ranked(root)
    return plant


FAULTS = [("output no longer matches its manifest", _stale_output),
          ("train sample next to a validation cell", _train_next_to_validation),
          ("train log whose best epoch is not the kept one", _best_epoch_moved),
          ("report row with tss != sens + spec - 1", _bad_tss),
          ("stats row with an off Friedman p-value", _off_stats_cell(0, 2)),
          ("stats row with an off Wilcoxon p-value", _off_stats_cell(1, 2)),
          ("stats row with an off Holm p-value", _off_stats_cell(2, 3))]


def self_test(base: Path, spawn, cli) -> int:
    """spawn(workload, seed, round_dir, setup_only, trace) -> result;
    cli(argv, cwd) -> exit code of one botaclip command."""
    shutil.rmtree(base, ignore_errors=True)
    clean = base / "round"
    result = spawn("mini", 0, clean, False, False)
    bad = [s for s in result["stages"] if s["rc"] != 0]
    if "error" in result or bad:
        print(f"FAIL mini round did not finish: {result.get('error', bad)}")
        return 1
    ok = True
    fails = check_round(clean, workload("mini", 0), result["inputs"],
                        result["stages"])
    print(f"{'PASS' if not fails else 'FAIL'} clean round passes every check"
          + "".join(f"\n    {f}" for f in fails))
    ok &= not fails
    fails = _write_ranked(clean, cli) or _check_ranked(clean)
    _, rows = read_table(clean / "ranked/stats.csv")
    if [r[0] for r in rows] != ["friedman", "a vs b", "a vs c"]:
        fails.append(f"ranked stats rows {[r[0] for r in rows]}")
    print(f"{'PASS' if not fails else 'FAIL'} clean stats with Wilcoxon and "
          "Holm rows passes its check"
          + "".join(f"\n    {f}" for f in fails))
    ok &= not fails
    for i, (what, plant) in enumerate(FAULTS):
        copy = base / f"fault{i}"
        shutil.copytree(clean, copy)
        caught = plant(copy, result)
        print(f"{'PASS' if caught else 'FAIL'} {what}: "
              + (caught[0] if caught else "not detected"))
        ok &= bool(caught)
    shutil.rmtree(base, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
