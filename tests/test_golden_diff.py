"""The golden differ: a changed output names each changed cell and its
direction, and identical outputs name none."""

import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import golden_diff

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
README = GOLDEN_DIR / "readme_sweep.csv"
#: the sweep CSV's fields in order; the first six name the row
FIELDS = golden_diff.SWEEP_KEY + ("Y_Z", "e_bit", "e_ph_u", "rate")


def bump(cell, units):
    """``cell`` (``%.8e``) moved by ``units`` in its last printed digit."""
    mantissa, exponent = cell.split("e")
    return f"{Decimal(mantissa) + Decimal(units).scaleb(-8)}e{exponent}"


def mutate(lines, row, column, units):
    """Move the cell (row key, column) of CSV ``lines``; (old, new) cell."""
    for i, line in enumerate(lines):
        fields = line.rstrip("\r\n").split(",")
        if ",".join(fields[:6]) == row:
            k = FIELDS.index(column)
            old = fields[k]
            fields[k] = bump(old, units)
            lines[i] = ",".join(fields) + "\r\n"
            return old, fields[k]
    raise KeyError(row)


def run(capsys, old, new):
    code = golden_diff.main([str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_one_digit_moves_name_the_cell_and_direction(tmp_path, capsys):
    lines = README.read_bytes().decode().splitlines(keepends=True)
    up_row = "bb84,30.0,1e-06,0.063,0.03,0"
    down_row = "three_state,10.0,0.0,0.063,0.03,0"
    ph_old, ph_new = mutate(lines, up_row, "e_ph_u", +1)
    rate_old, rate_new = mutate(lines, down_row, "rate", -1)
    assert (ph_old, ph_new) == ("4.92908240e-02", "4.92908241e-02")
    new = tmp_path / "readme_sweep.csv"
    new.write_bytes("".join(lines).encode())
    code, out = run(capsys, README, new)
    assert code == 1
    cells = [line.split() for line in out]
    assert [up_row, "e_ph_u", ph_old, ph_new, "up"] in cells
    assert [down_row, "rate", rate_old, rate_new, "down"] in cells
    # per column: cells up, down and otherwise, then the largest relative move
    summary = {line[0]: line[1:] for line in cells if len(line) == 5}
    assert summary["e_ph_u"][:3] == ["1", "0", "0"]
    assert summary["rate"][:3] == ["0", "1", "0"]
    assert float(summary["e_ph_u"][3]) == float(f"{1e-8 / 4.9290824:.3g}")
    assert out[0] == "changed cells: 2"


def test_identical_files_exit_0_with_no_output(tmp_path):
    copy = tmp_path / "readme_sweep.csv"
    copy.write_bytes(README.read_bytes())
    proc = subprocess.run([sys.executable, str(Path(golden_diff.__file__)),
                           str(README), str(copy)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_report_cells_are_keyed_by_label(tmp_path, capsys):
    old = GOLDEN_DIR / "report_lc3_bb84.txt"
    text = old.read_text()
    new = tmp_path / "report.txt"
    new.write_text(text.replace("e_ph_u[tag 3]: 3.89237447e-02",
                                "e_ph_u[tag 3]: 3.89237446e-02")
                   .replace("protocol: bb84", "protocol: three_state"))
    code, out = run(capsys, old, new)
    assert code == 1
    assert ("e_ph_u[tag 3]  e_ph_u    3.89237447e-02  3.89237446e-02  down"
            in out)
    assert any(line.split() == ["protocol", "protocol", "bb84",
                                "three_state", "changed"] for line in out)


def test_counts_cells_are_json_leaves_by_path(tmp_path, capsys):
    old = GOLDEN_DIR / "counts_lc3_bb84.json"
    doc = json.loads(old.read_text())
    n = doc["per_tag"][1]["n_x"]["0Z"][0]
    doc["per_tag"][1]["n_x"]["0Z"][0] += 1
    del doc["per_tag"][3]["w"]
    new = tmp_path / "counts.json"
    new.write_text(json.dumps(doc))  # layout differs, leaves do not
    code, out = run(capsys, old, new)
    assert code == 1
    cells = [line.split() for line in out]
    assert ["per_tag[1].n_x.0Z[0]", "per_tag[].n_x.0Z[]", str(n),
            str(n + 1), "up"] in cells
    assert ["per_tag[3].w", "per_tag[].w", "3", "None", "removed"] in cells


def test_bytes_outside_every_cell(tmp_path, capsys):
    # a row's line ending is no cell: the diff still fails and says so
    data = README.read_bytes()
    new = tmp_path / "readme_sweep.csv"
    new.write_bytes(data[:-2] + b"\n")
    code, out = run(capsys, README, new)
    assert code == 1
    assert out == ["the bytes differ outside every cell and text line "
                   "(line endings or layout)"]
    # a header's line ending is a text line
    new.write_bytes(data.replace(b"rate\r\n", b"rate\n", 1))
    code, out = run(capsys, README, new)
    assert (code, len(out)) == (1, 1) and out[0].startswith("text line 5: ")
