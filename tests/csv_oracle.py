"""Reference row-by-row CSV writer for the path CSVs.

These are ``write_header``, ``write_csv`` and ``trajectory_to_csv`` as they
wrote every path file before the files were filled from one template per
run: ``np.column_stack(...).tolist()`` and one ``"%.17g,..." %`` per row.
``stostab.sde.write_path_csvs`` and ``trajectory_to_csv`` must reproduce
their bytes exactly.
"""

import numpy as np


def write_header(fh, header_lines) -> None:
    """Write each header line prefixed with ``# ``."""
    for line in header_lines:
        fh.write(f"# {line}\n")


def write_csv(path, columns, rows, header_lines=()) -> None:
    """Write the header, the column names, then rows of numbers at ``.17g``.

    Each row fills one prebuilt ``%.17g,...`` format, one field per column.
    Rows of Python numbers (``.tolist()``) format faster than numpy scalars.
    """
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        write_header(fh, header_lines)
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


def trajectory_to_csv(traj, path, header_lines=()) -> None:
    """Write ``t,x1,...,xn[,u1,...,um]`` rows at 17 significant digits.

    ``header_lines`` are emitted first, one per line, prefixed with ``# ``.
    """
    cols = ["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])]
    data = [traj.times, traj.states]
    if traj.controls is not None:
        cols += [f"u{i + 1}" for i in range(traj.controls.shape[1])]
        data.append(traj.controls)
    write_csv(path, cols, np.column_stack(data).tolist(), header_lines)
