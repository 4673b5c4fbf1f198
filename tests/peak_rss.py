"""Peak-RSS gates of the ``metriq`` CLI at the 12-site cap (dim 4096) and at cutoff 40.

    PYTHONPATH=src python tests/peak_rss.py

Run from the repository root.  Each gate runs one CLI command as a child
process, with every RuntimeWarning raised as an error as in tier-1, and
passes if the child exits with its code (0 unless the gate states one) within
its bound on ``ru_maxrss``; its wall time is printed beside its peak, and
bounds nothing.  Before the gates it prints, ungated, the peak of a child that
only imports ``metriq.cli``: a gate's peak that moves with that floor follows
the source's size, not the run.  A sweep's gate also prints its point count times the wall
time of the same command on its first point alone, the gate before it.
The peak is read per child with ``os.wait4``: ``RUSAGE_CHILDREN`` would keep
the largest peak of all children so far.  Exits 1 if any gate fails.

The sixteen gates: ``verify`` of two XXZ chains, the Haldane-Shastry ring and an all-pairs
``fermionQuadratic`` on 12 sites; ``spectrum``, ``run`` and a 4-point ``run`` sweep of the
transverse chain; ``spectrum`` of the Sz-conserving chain, of the ring and of the fermion form;
``verify`` and ``spectrum`` of ``bosonQuadratic`` and ``lmg`` at cutoff 40; ``verify`` of the
transverse chain at an isospectrality tolerance and at a reality tolerance no bound meets.
"""
import json
import os
import sys
import time

# (command and flags, config, bound in MiB, print the command's output[, exit code]).  H is
# read as its nonzeros; a dense H would be 256 MiB, and no other gate leaves room for one.
GATES = (
    # every check must pass; 13 Sz sectors, the largest 924, none made dense, since the checks
    # solve nothing; measured at 34 MiB (47-48 MiB while they solved each sector)
    ("verify", "tests/configs/xxz_asymmetric_n12.json", 120, True),
    # one sector of 4096: every check must pass, certified from one pass over the nonzeros of
    # the hermitian form with no eigensolve; measured at 39 MiB (49 MiB while the assembler
    # sorted its raw entries), so the bound leaves 11 MiB, less than one half of the sector
    # folded by the spin flip alone made dense (32 MiB)
    ("verify", "tests/configs/xxz_transverse_n12.json", 50, True),
    # the Haldane-Shastry ring couples every pair of its 12 sites (139,264 nonzeros, 133
    # assembler offsets): every check must pass; measured at 45-46 MiB, and at 74 MiB while the
    # assembler sorted its raw entries
    ("verify", "tests/configs/haldane_shastry_n12.json", 60, True),
    # fermionQuadratic on 12 sites with all-pairs hopping and pairing (274,431 nonzeros, 245
    # assembler offsets), the kind with the most offsets: every check must pass; measured at
    # 58-60 MiB, and at 81 MiB while the assembler sorted its raw entries
    ("verify", "tests/configs/fermion_quadratic_n12.json", 75, True),
    # one sector of 4096, which the spin flip J and the site reflection R fold into blocks of
    # 1056, 992, 1024 and 1024, built and solved one at a time: one block (8.5 MiB) plus
    # eigvalsh's own copy, over ~42 MiB for the interpreter, numpy, the nonzeros and the
    # blocks' triplets; measured at 59-63 MiB (which, as the fold's freed transients are or are
    # not trimmed, turns on the source's path), so the bound leaves 4 MiB, less than one block
    # made dense; 64-65 MiB while the sector's read and the pass's transients outlived the fold,
    # and 108-110 MiB while J alone folded it
    ("spectrum", "tests/configs/xxz_transverse_n12.json", 67, False),
    # the same sector: the checks solve nothing, so the peak is the spectrum's, as above
    ("run", "tests/configs/xxz_transverse_n12.json", 67, False),
    # the same chain over 4 values of gammas[0]: the deformation leaves F as it is, so the
    # later points take the first point's eigenvalues and solve nothing; holding the solved
    # point's F costs O(nnz) and must not raise the peak; measured at 59-63 MiB, as the one
    # point above, in 0.8 s against 0.6 s for it, and at 64-65 MiB before
    ("run", "tests/configs/xxz_transverse_n12_sweep.json", 67, False),
    # 13 Sz sectors: J ties each pair it swaps into one unit, and J and R fold each unit into
    # blocks of at most 396; measured at 38 MiB, and at 45 MiB while the two sectors of 792
    # were solved whole, so the bound leaves 4 MiB, less than one of those and its copy (10 MiB)
    ("spectrum", "tests/configs/xxz_asymmetric_n12.json", 42, False),
    # the ring's 139,264 nonzeros in the same 13 sectors, folded alike; measured at 49-50 MiB,
    # and at 54 MiB while the sectors of 792 were solved whole
    ("spectrum", "tests/configs/haldane_shastry_n12.json", 53, False),
    # the all-pairs fermion form conserves only the parity: two sectors of 2048, each solved as
    # one real block (32 MiB) plus eigvalsh's copy; measured at 125.4-125.5 MiB in 1.2-2.5 s,
    # so the bound leaves 14.5 MiB, less than one more such block held at once
    ("spectrum", "tests/configs/fermion_quadratic_n12.json", 140, False),
    # bosonQuadratic at cutoff 40 (dim 1681, two parity sectors, the largest 841): its metric
    # has kappa ~ 2.35e17, and every check must pass on its bound from the hermitian form;
    # measured at 32 MiB, so the bound leaves 28 MiB, less than a dense complex H (43 MiB)
    ("verify", "tests/configs/boson_quadratic_cutoff40.json", 60, True),
    # its two parity sectors, 841 and 840, each solved as one real block (5.4 MiB); measured at
    # 44.3-44.5 MiB, so the bound leaves 5.5 MiB, less than one of them made dense as complex
    ("spectrum", "tests/configs/boson_quadratic_cutoff40.json", 50, False),
    # lmg at cutoff 40 with gammas +-1.45 (dim 1681, 160 sectors, the largest 21): kappa ~ 6e100,
    # and eta_norm's bound misses its tolerance, so a probe is evolved in the eigenvectors of
    # the hermitian form's sectors; every check must pass; measured at 42 MiB
    ("verify", "tests/configs/lmg_cutoff40.json", 60, True),
    # its 160 sectors, none above 21, each solved on its own; measured at 32.9-33.2 MiB, so the
    # bound leaves 4.8 MiB, less than a dense real H of dim 1681 (21.6 MiB)
    ("spectrum", "tests/configs/lmg_cutoff40.json", 38, False),
    # the transverse chain at isospectrality 1e-16: its bound misses, so F's one sector of 4096
    # goes to eigvals, which forms no eigenvectors (256 MiB dense, and LAPACK's copy), and the
    # check fails; measured at 305 MiB in 31 s on one BLAS thread, against 1202 MiB in 60 s while
    # the fallback formed F's eigenvectors and their residuals
    ("verify --tol isospectrality=1e-16", "tests/configs/xxz_transverse_n12.json", 450, True, 1),
    # the same chain at a reality tolerance no bound meets: reality reads the eigenvalues of the
    # same sector by eigvals, with no eigenvectors, and every check passes; measured at 305 MiB
    # in 31 s on one BLAS thread, against 1204 MiB in 60 s while reality decomposed F, so the
    # bound leaves 95 MiB, less than the sector's real eigenvectors (128 MiB)
    ("verify --tol reality=1e-30", "tests/configs/xxz_transverse_n12.json", 400, True),
)


def spawn(argv: list[str], show: bool) -> tuple[int, float, float]:
    """Exit code, wall time in seconds and peak RSS in MiB of one child running ``argv``."""
    quiet = [] if show else [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - started, usage.ru_maxrss / 1024


def main() -> int:
    # a child that only imports the CLI: the floor under every gate, which follows the source's
    # size and the interpreter's, not the run; printed, not gated
    _, _, floor = spawn([sys.executable, "-c", "import metriq.cli"], False)
    print(f"python -c 'import metriq.cli': peak RSS {floor:.2f} MiB (not gated)", flush=True)
    failed, last_wall = False, 0.0
    for command, config, limit, show, *expected in GATES:
        command, *flags = command.split()
        code, wall, peak_mib = spawn([sys.executable, "-W", "error::RuntimeWarning", "-m",
                                      "metriq.cli", command, config, *flags], show)
        with open(config) as f:
            sweep = json.load(f).get("sweep")
        against = "" if sweep is None else (
            f" against {len(sweep['values'])} x {last_wall:.1f} s for one point")
        print(f"metriq {' '.join([command, config, *flags])}: exit {code}, wall {wall:.1f} s"
              f"{against}, peak RSS {peak_mib:.0f} MiB (limit {limit})", flush=True)
        last_wall = wall
        failed |= code != (expected or [0])[0] or peak_mib > limit
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
