import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs_verbatim(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "H_sharp_eq_H", "Hdd_C_eq_C_H", "Cd_P_eq_P_C", "Hd_Theta_eq_Theta_H",
        "C_eq_Cdd", "P_eq_Pd", "Theta_positive", "P_signature_plus",
        "P_signature_minus", "H_vs_Hdd_deviation"]
    assert all(line.split()[2] in ("True", "None") for line in lines)
