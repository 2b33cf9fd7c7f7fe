import io
import json

import grimmsmooth
from grimmsmooth.cli import replay_manifest, run
from oracles import ram_sum_miller_rabin


def invoke(argv, tmp_path, manifest=None):
    """Run the CLI in-process, returning (exit_code, stdout_text)."""
    buf = io.StringIO()
    argv = list(argv) + ["--manifest", str(manifest) if manifest else "-"]
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def test_g_example(tmp_path):
    code, out = invoke(["g", "--n", "2"], tmp_path)
    assert code == 0
    assert out == "n,g\n2,3\n"


def test_g1(tmp_path):
    code, out = invoke(["g1", "--n", "2"], tmp_path)
    assert out == "n,g1\n2,3\n"


def test_represent_both_ways(tmp_path):
    code, out = invoke(["represent", "--n", "8", "--k", "3"], tmp_path)
    assert code == 0
    assert out.splitlines()[1] == "8,3,representable,3;2;11"
    code, out = invoke(["represent", "--n", "2", "--k", "4"], tmp_path)
    assert code == 0  # a decision, not a verification failure
    line = out.splitlines()[1]
    assert line.startswith("2,4,not_representable,")


def test_verify_grimm(tmp_path):
    code, out = invoke(["verify-grimm", "--limit", "1000"], tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "limit,runs,failures,max_k,max_k_p"
    # largest composite run below 1000 is the 19 composites after 887
    assert lines[1] == "1000,166,0,19,887"


def test_verify_grimm_emit_runs(tmp_path):
    code, out = invoke(["verify-grimm", "--limit", "30", "--emit-runs"], tmp_path)
    lines = out.splitlines()
    assert lines[0] == "p,k,status,witness"
    assert "7,3,representable," in lines
    assert len(lines) == 9  # header + 8 runs below 30


def test_gap_scan(tmp_path):
    code, out = invoke(["gap-scan", "--limit", "100000"], tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "limit,pairs,violations,max_gap,max_gap_p"
    assert lines[1] == "100000,9591,0,72,31397"


def test_dusart(tmp_path):
    code, out = invoke(["dusart-check", "--limit", "10000"], tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("bound,limit,checked,violations,min_slack")
    assert lines[1].startswith("pi_upper,10000,9999,0,")
    assert lines[2].startswith("theta_upper,10000,1229,0,")


def test_psi_and_window(tmp_path):
    code, out = invoke(["psi", "--x", "10", "--y", "3"], tmp_path)
    assert out == "x,y,psi\n10,3.0,7\n"
    code, out = invoke(["psi-window", "--x", "10", "--z", "8", "--y", "3"], tmp_path)
    lines = out.splitlines()
    assert lines[0] == "x,z,y,count,pi_y,bound_established,smooth_head,smooth_tail"
    assert lines[1] == "10,8,3.0,3,2,true,12,18"


def test_grimm_bound(tmp_path):
    code, out = invoke(
        ["grimm-bound", "--x", "5000", "--y", "400", "--z", "400"], tmp_path
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] in ("true", "false")
    if row[3] == "true":
        assert int(row[4]) == 400


def test_rho_point_and_dump(tmp_path):
    code, out = invoke(["rho", "--t", "2.0"], tmp_path)
    assert code == 0
    t, val = out.splitlines()[1].split(",")
    assert abs(float(val) - 0.30685281944005) < 1e-10
    code, out = invoke(
        ["rho", "--dump", "--t-max", "2", "--step", "0.5"], tmp_path
    )
    lines = out.splitlines()
    assert lines[0] == "t,rho"
    assert len(lines) == 6  # nodes 0, 0.5, 1.0, 1.5, 2.0
    assert lines[1] == "0.0,1.0"


def test_exceptional_scan(tmp_path):
    code, out = invoke(
        ["exceptional-scan", "--x-max", "400", "--eps", "0.45", "--c0", "0.01"],
        tmp_path,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x_max,eps,c0,stride,sampled,degenerate,evaluated")
    assert lines[1].startswith("400,0.45,0.01,1,400,")


def test_ram_sum(tmp_path):
    code, out = invoke(["ram-sum", "--x", "100", "--alpha", "0.5"], tmp_path)
    lines = out.splitlines()
    assert lines[0] == "x,alpha,sum,normalized,heuristic,delta_target"
    assert lines[1].startswith("100,0.5,8,0.8,")


def test_rd_and_phi_sum(tmp_path):
    code, out = invoke(
        ["rd", "--x", "100", "--alpha", "0.5", "--r", "1", "--s", "10", "--d", "1"],
        tmp_path,
    )
    assert out.splitlines()[1] == "100,0.5,1,10,1,28"
    code, out = invoke(
        ["phi-sum", "--v", "3", "--v1", "6", "--eta", "10"], tmp_path
    )
    assert out.splitlines()[1] == "3,6,10.0,-0.5"


def test_exponents_row(tmp_path):
    code, out = invoke(["exponents", "--lambda", "0.0333333"], tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,alpha,delta,gamma,alpha1"
    vals = lines[1].split(",")
    assert abs(float(vals[3]) - 0.497436) < 1e-4


def test_exponents_grid(tmp_path):
    code, out = invoke(["exponents", "--grid", "5"], tmp_path)
    assert len(out.splitlines()) == 6


def test_json_format(tmp_path):
    code, out = invoke(["g", "--n", "2", "--format", "json"], tmp_path)
    assert json.loads(out) == [{"n": 2, "g": 3}]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    code, _ = invoke(["psi", "--x", "-5", "--y", "3"], tmp_path)
    assert code == 2
    code, _ = invoke(["exceptional-scan", "--x-max", "10", "--eps", "0.7"], tmp_path)
    assert code == 2
    code, _ = invoke(["ram-sum", "--x", "100", "--alpha", "0.9"], tmp_path)
    assert code == 2
    buf = io.StringIO()
    assert run(["no-such-command"], stdout=buf) == 2
    # the message names the offending flag
    scan = ["exceptional-scan", "--x-max", "100", "--eps", "0.4"]
    for argv, needle in [
        (scan + ["--stride", "-1"], "--stride"),
        (scan + ["--stride", "0"], "--stride"),
        (scan + ["--c0", "-1"], "--c0"),
        (["exceptional-scan", "--x-max", "-5", "--eps", "0.3"], "--x-max"),
        (["rho", "--t", "40"], "--t"),
        (["g", "--n", "0"], "n must be >= 2"),
        (["verify-grimm", "--limit", "-5"], "--limit"),
        (["gap-scan", "--limit", "0"], "--limit"),
        (["dusart-check", "--limit", "-1"], "--limit"),
        (["psi", "--x", "10", "--y", "nan"], "--y"),
        (["psi-window", "--x", "10", "--z", "5", "--y", "nan"], "--y"),
        (["grimm-bound", "--x", "100", "--y=-inf", "--z", "5"], "--y"),
        (["psi", "--x", "10", "--y", "inf"], "--y"),
        (["ram-sum", "--x", "-5", "--alpha", "0.4"], "--x"),
        (["ram-sum", "--x", "0", "--alpha", "0.4"], "--x"),
        (["ram-sum", "--x", "100", "--alpha", "nan"], "--alpha"),
        (["ram-sum", "--x", "100", "--alpha", "0.6"], "--alpha"),
    ]:
        capsys.readouterr()
        code, out = invoke(argv, tmp_path)
        assert (code, out) == (2, ""), argv
        assert needle in capsys.readouterr().err, argv


def test_table_limit_too_small_is_resource_error(tmp_path):
    code, _ = invoke(
        ["verify-grimm", "--limit", "10000", "--table-limit", "100"], tmp_path
    )
    assert code == 2


def test_ram_sum_table_reaches_sqrt_of_window_top(tmp_path, monkeypatch):
    # x = 1e8, alpha = 1/3: W = 464 and isqrt(x + W) + 1 = 10,001
    monkeypatch.setattr(grimmsmooth.cli, "_table_cache", None)  # as a fresh process
    argv = ["ram-sum", "--x", "100000000", "--alpha", str(1 / 3)]
    mpath = tmp_path / "rs.manifest.json"
    code, out = invoke(argv, tmp_path, manifest=mpath)
    assert (code, out.splitlines()[1].split(",")[2]) == (0, "198")
    data = json.loads(mpath.read_text())
    assert data["table_limit"] == 10_001
    assert replay_manifest(str(mpath))[1] == data["result_digest"]
    assert invoke(argv + ["--table-limit", "10001"], tmp_path) == (code, out)
    assert invoke(argv + ["--table-limit", "10000"], tmp_path)[0] == 2


def test_ram_sum_past_2_31(tmp_path):
    code, out = invoke(["ram-sum", "--x", "1000000000000", "--alpha", "0.4"], tmp_path)
    assert code == 0
    assert int(out.splitlines()[1].split(",")[2]) == ram_sum_miller_rabin(10**12, 0.4)


def test_workers_do_not_change_bytes(tmp_path):
    base = invoke(["verify-grimm", "--limit", "300000", "--workers", "1"], tmp_path)
    two = invoke(["verify-grimm", "--limit", "300000", "--workers", "2"], tmp_path)
    assert base == two
    base = invoke(["gap-scan", "--limit", "300000", "--workers", "1"], tmp_path)
    two = invoke(["gap-scan", "--limit", "300000", "--workers", "2"], tmp_path)
    assert base == two
    base = invoke(
        ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--workers", "1"],
        tmp_path,
    )
    two = invoke(
        ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--workers", "2"],
        tmp_path,
    )
    assert base == two
    emit = ["verify-grimm", "--limit", "300000", "--emit-runs"]
    base = invoke(emit + ["--workers", "1"], tmp_path)
    two = invoke(emit + ["--workers", "2"], tmp_path)
    assert base == two
    scan = ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--format", "json"]
    base = invoke(scan + ["--workers", "1"], tmp_path)
    two = invoke(scan + ["--workers", "2"], tmp_path)
    assert base == two


def test_one_shard_runs_in_process(tmp_path, monkeypatch):
    import os

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["exceptional-scan", "--x-max", "3000", "--eps", "0.4"]
    base = invoke(argv + ["--workers", "1"], tmp_path)
    assert base[0] == 0
    assert invoke(argv + ["--workers", "2"], tmp_path) == base


def test_scan_shards_through_the_pool(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    argv = ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--stride", "3"]
    base = invoke(argv + ["--workers", "1"], tmp_path)
    monkeypatch.setattr(cli, "SHARD_SPAN", 128)  # 8 shards of 384 values
    assert invoke(argv + ["--workers", "1"], tmp_path) == base
    assert invoke(argv + ["--workers", "2"], tmp_path) == base


def test_manifest_written_and_replayable(tmp_path):
    mpath = tmp_path / "run.manifest.json"
    code, out = invoke(["gap-scan", "--limit", "50000"], tmp_path, manifest=mpath)
    assert code == 0
    data = json.loads(mpath.read_text())
    assert data["subcommand"] == "gap-scan"
    assert data["parameters"]["limit"] == 50000
    assert data["result_digest"]
    code2, digest2 = replay_manifest(str(mpath))
    assert code2 == 0
    assert digest2 == data["result_digest"]


def test_manifest_records_peak_rss(tmp_path):
    mpath = tmp_path / "rss.manifest.json"
    argv = ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--workers", "2"]
    code, out = invoke(argv, tmp_path, manifest=mpath)
    assert code == 0
    data = json.loads(mpath.read_text())
    rss = data["peak_rss_kib"]
    assert set(rss) == {"self", "children"}
    assert all(isinstance(v, int) and v >= 0 for v in rss.values())
    assert rss["self"] > 0
    # the field is not an invocation parameter: a replay prints the same bytes
    code2, digest2 = replay_manifest(str(mpath))
    assert (code2, digest2) == (0, data["result_digest"])


def test_manifest_replay_ram_sum(tmp_path):
    mpath = tmp_path / "rs.manifest.json"
    code, out = invoke(
        ["ram-sum", "--x", "5000", "--alpha", "0.45"], tmp_path, manifest=mpath
    )
    data = json.loads(mpath.read_text())
    code2, digest2 = replay_manifest(str(mpath))
    assert digest2 == data["result_digest"]


def test_checkpoint_resume(tmp_path, capsys):
    ck = tmp_path / "scan.ckpt"
    first = invoke(
        ["verify-grimm", "--limit", "200000", "--checkpoint", str(ck)], tmp_path
    )
    assert ck.exists()
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["meta"]["limit"] == 200000
    # resume: all shards already recorded, output identical
    second = invoke(
        ["verify-grimm", "--limit", "200000", "--checkpoint", str(ck)], tmp_path
    )
    assert first == second
    # mismatched parameters are refused
    code, _ = invoke(
        ["verify-grimm", "--limit", "300000", "--checkpoint", str(ck)], tmp_path
    )
    assert code == 2
    # so is a checkpoint written by another version of the package
    header = json.loads(lines[0])
    assert header["meta"]["version"] == grimmsmooth.__version__
    header["meta"]["version"] = "0.0.0-other"
    ck.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    code, _ = invoke(
        ["verify-grimm", "--limit", "200000", "--checkpoint", str(ck)], tmp_path
    )
    assert code == 2 and "0.0.0-other" in capsys.readouterr().err


def test_env_table_limit_floor(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    monkeypatch.setattr(cli, "_table_cache", None)
    monkeypatch.setenv("GRIMMSMOOTH_TABLE_LIMIT", "5000")
    mpath = tmp_path / "env.manifest.json"
    code, out = invoke(["g", "--n", "2"], tmp_path, manifest=mpath)
    assert code == 0 and out == "n,g\n2,3\n"
    assert json.loads(mpath.read_text())["table_limit"] == 5000


def test_env_workers_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIMMSMOOTH_WORKERS", "3")
    mpath = tmp_path / "w.manifest.json"
    code, _ = invoke(["gap-scan", "--limit", "1000"], tmp_path, manifest=mpath)
    assert json.loads(mpath.read_text())["worker_count"] == 3


def test_exit_1_when_a_bound_breaks(tmp_path, monkeypatch):
    # no real violations exist in these ranges, so exercise the reporting
    # path by substituting a failing report
    import grimmsmooth.cli as cli
    from grimmsmooth import DusartReport

    fake = DusartReport(
        limit=100, pi_points_checked=99, pi_violations=(42,), pi_min_slack=-1.0,
        theta_primes_checked=25, theta_violations=(), theta_min_slack=1.0,
    )
    monkeypatch.setattr(cli, "check_dusart", lambda limit, table: fake)
    code, out = invoke(["dusart-check", "--limit", "100"], tmp_path)
    assert code == 1
    assert out.splitlines()[1].startswith("pi_upper,100,99,1,")


def test_exit_1_on_verify_failure(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    def fake_shard(bounds, table):
        return {
            "runs": 1,
            "max_k": 4,
            "max_k_p": 2,
            "failures": ["2,4,not_representable,1;2;4"],
        }

    monkeypatch.setattr(cli, "_verify_shard", fake_shard)
    code, out = invoke(["verify-grimm", "--limit", "100"], tmp_path)
    assert code == 1
    assert out.splitlines()[1] == "100,1,1,4,2"


def test_partial_checkpoint_resume(tmp_path):
    ck = tmp_path / "part.ckpt"
    full = invoke(["verify-grimm", "--limit", "5000000"], tmp_path)
    # simulate an interrupted run: keep only the header + first shard line
    probe = invoke(
        ["verify-grimm", "--limit", "5000000", "--checkpoint", str(ck)], tmp_path
    )
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    resumed = invoke(
        ["verify-grimm", "--limit", "5000000", "--checkpoint", str(ck)], tmp_path
    )
    assert resumed == probe == full

def test_emit_runs_carry_shard_failures(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    def fake_shard(bounds, table):
        return {
            "runs": 10,
            "max_k": 5,
            "max_k_p": 23,
            "failures": ["23,5,not_representable,1;2;3"],
        }

    monkeypatch.setattr(cli, "_verify_shard", fake_shard)
    code, out = invoke(["verify-grimm", "--limit", "40", "--emit-runs"], tmp_path)
    assert code == 1
    lines = out.splitlines()
    assert "23,5,not_representable,1;2;3" in lines
    assert "19,3,representable," in lines
    assert len(lines) == 1 + 10  # header + the runs closing at primes <= 37


def test_torn_checkpoint_resumes(tmp_path):
    ck = tmp_path / "torn.ckpt"
    argv = ["gap-scan", "--limit", "5000000", "--checkpoint", str(ck)]
    full = invoke(argv, tmp_path)
    text = ck.read_text()
    lines = text.splitlines(keepends=True)
    assert len(lines) == 4  # header + 3 shards
    # a run killed while writing the second shard's line
    ck.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    assert invoke(argv, tmp_path) == full
    assert ck.read_text() == text
    # a torn header starts the checkpoint afresh
    ck.write_text(lines[0][:10])
    assert invoke(argv, tmp_path) == full
    assert ck.read_text() == text


def test_bad_env_values_exit_2(tmp_path, monkeypatch, capsys):
    for var in ("GRIMMSMOOTH_WORKERS", "GRIMMSMOOTH_TABLE_LIMIT"):
        with monkeypatch.context() as m:
            m.setenv(var, "abc")
            code, out = invoke(["g", "--n", "100"], tmp_path)
        assert (code, out) == (2, "")
        assert var in capsys.readouterr().err
