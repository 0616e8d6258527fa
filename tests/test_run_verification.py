"""``scripts/run_verification.py``'s sweep over generator settings."""
import importlib.util
from pathlib import Path

from bpa.pipeline import GenParams, VerificationSummary

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
run_verification = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_verification)


def blocks(out: str) -> list[list[str]]:
    """The printed summaries, each a header line and its indented lines."""
    found = []
    for line in out.splitlines():
        if line.startswith("  "):
            found[-1].append(line)
        else:
            found.append([line])
    return found


def test_the_sweep_prints_one_summary_per_setting(capsys):
    # the exit code is left out: other aggregation shapes still fail the round trip
    run_verification.main(["-n", "3"])
    printed = blocks(capsys.readouterr().out)
    assert len(printed) == len(run_verification.SWEEP)
    for block, params in zip(printed, run_verification.SWEEP):
        assert f"groups={params.agg_group_count}x{params.agg_group_size} [" in block[0]
        assert block[-1].startswith("  3 instances: ")
    default = printed[run_verification.SWEEP.index(GenParams())]
    assert default[1:] == [
        "  3 instances: 3 isomorphic, 3 profile checks, 3 count checks, 0 failures"
    ]


def test_the_negative_control_sweep_succeeds(capsys):
    assert run_verification.main(["-n", "2", "--negative-control"]) == 0
    printed = blocks(capsys.readouterr().out)
    assert len(printed) == 4  # the distinct tree shapes of SWEEP
    assert all("groups=1x2 [" in block[0] for block in printed)


def test_a_negative_control_instance_that_passes_fails_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(run_verification, "verify", lambda n, **kwargs: VerificationSummary(instances=1))
    assert run_verification.main(["-n", "1", "--negative-control"]) == 1
