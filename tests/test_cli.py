import argparse
import hashlib
import io
import json
import os
import tracemalloc
from math import isqrt
from pathlib import Path

import grimmsmooth
from grimmsmooth import build_rho_table
from grimmsmooth.cli import _PARSER, replay_manifest, run
from oracles import (
    psi_buchstab, psi_large_y, ram_sum_miller_rabin, sieve_primes, smooth_count_direct,
    trial_primes,
)


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


def test_emit_runs_json_and_csv_give_the_same_runs(tmp_path, monkeypatch):
    import grimmsmooth.primes as primes

    # sieve chunks of 128 values, so the runs pair primes across chunks
    monkeypatch.setattr(primes, "_CHUNK_ODDS", 64)
    argv = ["verify-grimm", "--limit", "5000", "--emit-runs"]
    code, csv_out = invoke(argv, tmp_path)
    code_json, json_out = invoke(argv + ["--format", "json"], tmp_path)
    assert code == code_json == 0
    records = json.loads(json_out)
    # the rows are written one by one, as the bytes of dumping the list
    assert json_out == json.dumps(records, separators=(",", ":")) + "\n"
    lines = csv_out.splitlines()
    assert lines[0] == "p,k,status,witness"
    assert [",".join(map(str, r.values())) for r in records] == lines[1:]
    ps = sieve_primes(5000).tolist()
    runs = [(p, q - p - 1) for p, q in zip(ps, ps[1:]) if q - p > 1]
    assert [(r["p"], r["k"]) for r in records] == runs


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


def test_rho_point_builds_the_grid_to_ceil_t_plus_one(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    built = []

    def spy(t_max, step):
        built.append(t_max)
        return build_rho_table(t_max=t_max, step=step)

    monkeypatch.setattr(cli, "build_rho_table", spy)
    # the bytes printed before the grid was cut to ceil(t) + 1
    for t, t_max, line in [
        ("0", 1, "0.0,1.0"),
        ("0.5", 2, "0.5,1.0"),
        ("1", 2, "1.0,1.0"),
        ("2.5", 4, "2.5,0.1303195618322515"),
        ("3", 4, "3.0,0.04860838829113262"),
        ("7.5", 8, "7.5,1.7178674976558836e-07"),
        ("8", 8, "8.0,3.232069355272203e-08"),
        ("8.5", 9, "8.5,5.840570030976966e-09"),
        ("32", 32, "32.0,1.020891477907295e-16"),
    ]:
        built.clear()
        assert invoke(["rho", "--t", t], tmp_path) == (0, f"t,rho\n{line}\n"), t
        assert built == [t_max], t
    # --t-max still raises the grid, and a dump keeps the whole of it
    assert invoke(["rho", "--t", "2.5", "--t-max", "3"], tmp_path)[0] == 0
    assert built[-1] == 3
    assert invoke(["rho", "--t", "2.5", "--dump", "--step", "0.5"], tmp_path)[0] == 0
    assert built[-1] == 8


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
    rd = ["--r", "1", "--s", "10", "--d", "1"]
    for argv, needle in [
        (scan + ["--stride", "-1"], "--stride"),
        (scan + ["--stride", "0"], "--stride"),
        (scan + ["--c0", "-1"], "--c0"),
        (["exceptional-scan", "--x-max", "-5", "--eps", "0.3"], "--x-max"),
        (["rho", "--t", "40"], "--t"),
        (["rho", "--t", "1", "--step", "0"], "--step"),
        (["rho", "--t", "1", "--step", "-0.5"], "--step"),
        (["rho", "--t", "1", "--step", "0.3"], "--step"),
        (["rho", "--t", "1", "--step", "5e-324"], "--step"),
        # the first 1/m past the finest grid, refused before any grid is built
        (["rho", "--t", "1", "--step", str(1 / 100_001)], "--step"),
        (["rho", "--dump", "--t-max", "0"], "--t-max"),
        (["rho", "--dump", "--t-max", "nan"], "--t-max"),
        (["exponents", "--grid", "-3"], "--grid"),
        (["exponents", "--grid", "0"], "--grid"),
        (["g", "--n", "0"], "--n"),
        (["g", "--n", "1"], "--n"),
        (["g1", "--n", "0"], "--n"),
        (["represent", "--n", "1", "--k", "3"], "--n"),
        (["represent", "--n", "100", "--k", "0"], "--k"),
        (["represent", "--n", "100", "--k", str(10**6 + 1)], "--k"),
        (["verify-grimm", "--limit", "-5"], "--limit"),
        (["gap-scan", "--limit", "0"], "--limit"),
        (["dusart-check", "--limit", "-1"], "--limit"),
        # the scans stop at 2^31 without a table to enforce it
        (["verify-grimm", "--limit", str(2**31 + 1)], "--limit"),
        (["gap-scan", "--limit", str(2**31 + 1)], "--limit"),
        (["dusart-check", "--limit", str(2**31 + 1)], "--limit"),
        (["psi", "--x", "-5", "--y", "3"], "--x"),
        (["psi", "--x", str(2**62 + 1), "--y", "3"], "--x"),
        # the prime regime's pi table is refused before it is allocated
        (["psi", "--x", str(2**62), "--y", str(2**31)], "--x"),
        (["psi", "--x", str(2**48 + 2**25 + 1), "--y", str(2**24 + 1)], "--x"),
        (["represent", "--n", "-5", "--k", "3"], "--n"),
        (["represent", "--n", "0", "--k", "3"], "--n"),
        (["gap-scan", "--limit", "100", "--workers", "0"], "--workers"),
        (["psi", "--x", "100", "--y", "3", "--workers", "-3"], "--workers"),
        # only the four sharded commands can start a pool and take the flag
        (["g", "--n", "100", "--workers", "2"], "--workers"),
        (["ram-sum", "--x", "100", "--alpha", "0.4", "--workers", "1"], "--workers"),
        (["psi", "--x", "10", "--y", "nan"], "--y"),
        (["psi-window", "--x", "10", "--z", "5", "--y", "nan"], "--y"),
        (["psi-window", "--x", "100", "--z", "5", "--y=-inf"], "--y"),
        (["psi", "--x", "10", "--y", "inf"], "--y"),
        (["psi", "--x", "0", "--y", "-1"], "--y"),
        (["psi", "--x", "10", "--y", "-1"], "--y"),
        (["psi", "--x", "10", "--y", "0"], "--y"),
        (["psi-window", "--x", "10", "--z", "5", "--y", "-1"], "--y"),
        (["psi-window", "--x", "10", "--z", "5", "--y", "0"], "--y"),
        # pi(y) is counted from a pi table, which needs isqrt(y) <= 2^24
        (["psi-window", "--x", "10", "--z", "5", "--y", str(2**48 + 2**25 + 1)], "--y"),
        # a window must end within int64, where its sieve does not wrap
        (["psi-window", "--x", str(2**63 - 100), "--z", "400", "--y", "1e5"], "--x"),
        (["psi-window", "--x", str(2**63 - 5), "--z", "5", "--y", "1000"], "--x"),
        (["exceptional-scan", "--x-max", str(2**62 + 1), "--eps", "0.1"], "--x-max"),
        (["exceptional-scan", "--x-max", "19223372036854775000", "--eps", "0.1",
          "--stride", str(10**18)], "--x-max"),
        (scan + ["--stride", str(2**62 + 1)], "--stride"),
        (["ram-sum", "--x", "-5", "--alpha", "0.4"], "--x"),
        (["ram-sum", "--x", "0", "--alpha", "0.4"], "--x"),
        (["ram-sum", "--x", "100", "--alpha", "nan"], "--alpha"),
        (["ram-sum", "--x", "100", "--alpha", "0.6"], "--alpha"),
        (["rd", "--x", "-5", "--alpha", "0.4"] + rd, "--x"),
        (["rd", "--x", "0", "--alpha", "0.4"] + rd, "--x"),
        (["rd", "--x", "100", "--alpha", "nan"] + rd, "--alpha"),
        (["rd", "--x", "100", "--alpha", "inf"] + rd, "--alpha"),
        (["rd", "--x", "100", "--alpha", "0.4", "--r", "0", "--s", "10", "--d", "1"], "--r"),
        (["rd", "--x", "100", "--alpha", "0.4", "--r", "1", "--s", "10", "--d", "0"], "--d"),
        (["rd", "--x", "100", "--alpha", "0.4", "--r", "11", "--s", "10", "--d", "1"],
         "--r must be at most --s"),
        (["phi-sum", "--v", "2", "--v1", "10", "--eta", "3"], "--v"),
        (["phi-sum", "--v", "5", "--v1", "5", "--eta", "3"], "--v1 must exceed --v"),
        (["phi-sum", "--v", "5", "--v1", "10", "--eta", "nan"], "--eta"),
        (["exponents", "--lambda", "0.5"], "--lambda"),
        (["exponents", "--lambda", "0.032", "--eps-prime", "-1"], "--eps-prime"),
        # delta = 1/4 + lambda/2 - eps' must not be negative, at --lambda or
        # at every --grid point
        (["exponents", "--lambda", "0.032", "--eps-prime", "0.5"],
         "--eps-prime 0.5 exceeds 1/4 + lambda/2 at --lambda 0.032"),
        (["exponents", "--grid", "3", "--eps-prime", "0.266"],
         "--eps-prime 0.266 exceeds 1/4 + lambda/2 at the --grid point lambda ="),
        (["exceptional-scan", "--x-max", "100", "--eps", "0.6"], "--eps"),
        (["psi-window", "--x", "10", "--z", "0", "--y", "5"], "--z"),
        (["psi-window", "--x", "-3", "--z", "5", "--y", "5"], "--x"),
        # a checkpoint path that cannot be opened
        (["verify-grimm", "--limit", "100", "--checkpoint", str(tmp_path)], "--checkpoint"),
        (["gap-scan", "--limit", "100", "--checkpoint", str(tmp_path / "no" / "c")],
         "--checkpoint"),
        # the table is sized by the arguments alone; the flag is gone
        (["verify-grimm", "--limit", "100", "--table-limit", "100"], "--table-limit"),
        # a table past 2^31 is refused, naming the flag that sets it
        (["g", "--n", str(10**20)], "--n"),
        (["g1", "--n", str(10**22)], "--n"),
        (["represent", "--n", str(10**22), "--k", "3"], "--n"),
        (["ram-sum", "--x", str(10**19), "--alpha", "0.5"], "--x"),
        (["psi-window", "--x", str(10**12), "--z", "600", "--y", "1e10"], "--y"),
    ]:
        capsys.readouterr()
        code, out = invoke(argv, tmp_path)
        assert (code, out) == (2, ""), argv
        assert needle in capsys.readouterr().err, argv
    # a manifest path that cannot be opened: the result is printed first
    for path in (tmp_path, tmp_path / "no" / "m.json"):
        code, out = invoke(["verify-grimm", "--limit", "100"], tmp_path, manifest=path)
        assert (code, out) == (2, "limit,runs,failures,max_k,max_k_p\n100,23,0,7,89\n")
        assert f"--manifest {path}" in capsys.readouterr().err


def test_search_past_its_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the diagnostic cap of g and g1 is a resource limit: the run exits 2
    # naming --n, where exit 1 would claim a counterexample
    monkeypatch.setattr(grimmsmooth.grimm, "_search_cap", lambda n: 3)
    for cmd in ("g", "g1"):
        capsys.readouterr()
        assert invoke([cmd, "--n", "1000000"], tmp_path) == (2, ""), cmd
        err = capsys.readouterr().err
        assert "--n 1000000" in err and "diagnostic cap 3" in err, cmd


def test_grimm_bound_manifest_no_longer_replays(tmp_path, capsys):
    # grimm-bound printed nothing that psi-window does not, and is gone: a
    # manifest it recorded names an unknown subcommand and exits 2, unprinted
    mpath = tmp_path / "gb.manifest.json"
    argv = ["psi-window", "--x", "5000", "--z", "400", "--y", "400"]
    assert invoke(argv, tmp_path, manifest=mpath)[0] == 0
    data = json.loads(mpath.read_text())
    mpath.write_text(json.dumps(data | {"subcommand": "grimm-bound"}))
    capsys.readouterr()
    assert replay_manifest(str(mpath)) == (2, hashlib.sha256(b"").hexdigest())
    assert "invalid choice: 'grimm-bound'" in capsys.readouterr().err


def test_readme_command_block_names_every_subcommand():
    # the fenced block under the README's "Command line" heading shows each
    # subcommand of the parser, and no other
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    named = {
        line.split()[1] for line in block.splitlines()
        if line.startswith("grimmsmooth ")
    }
    sub = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


def test_runs_in_one_process_share_no_parse_state(tmp_path):
    # the parser is built once per process: the flags of one run must not
    # reach the next, in its output or in its manifest
    dump = ["rho", "--dump", "--t-max", "2", "--step", "0.01"]
    point = ["rho", "--t", "2"]
    runs = []
    for argv in (point, dump, point, dump):
        mpath = tmp_path / "rho.manifest.json"
        out = invoke(argv, tmp_path, manifest=mpath)
        runs.append((out, json.loads(mpath.read_text())["parameters"]))
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0][0][1].count("\n") == 2 and runs[1][0][1].count("\n") == 202
    assert runs[0][1] == {
        "dump": False, "format": "csv", "step": 0.001, "t": 2.0, "t_max": 8.0,
    }


def test_window_table_reaches_the_sieving_bound_only(tmp_path):
    # the window near 1e12 sieves with the primes to y = 600 alone
    mpath = tmp_path / "pw.manifest.json"
    argv = ["psi-window", "--x", "1000000000000", "--z", "600", "--y", "600"]
    assert invoke(argv, tmp_path, manifest=mpath)[0] == 0
    assert json.loads(mpath.read_text())["table_limit"] == 600
    # and with y past x + z, with the primes to x + z = 150
    argv = ["psi-window", "--x", "100", "--z", "50", "--y", "1000000"]
    assert invoke(argv, tmp_path, manifest=mpath)[0] == 0
    assert json.loads(mpath.read_text())["table_limit"] == 150


def test_ram_sum_table_reaches_sqrt_of_window_top(tmp_path):
    # x = 1e8, alpha = 1/3: W = 464 and isqrt(x + W) + 1 = 10,001, which the
    # manifest records even after an in-process call built a larger table
    # (31,623 for the window of 1e9)
    assert invoke(["represent", "--n", "1000000000", "--k", "3"], tmp_path)[0] == 0
    argv = ["ram-sum", "--x", "100000000", "--alpha", str(1 / 3)]
    mpath = tmp_path / "rs.manifest.json"
    code, out = invoke(argv, tmp_path, manifest=mpath)
    assert (code, out.splitlines()[1].split(",")[2]) == (0, "198")
    data = json.loads(mpath.read_text())
    assert data["table_limit"] == 10_001
    assert replay_manifest(str(mpath))[1] == data["result_digest"]


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


def test_psi_prime_regime_runs_in_process(tmp_path, monkeypatch):
    import os

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["psi", "--x", "20000000", "--y", "10000"]
    base = invoke(argv + ["--workers", "1"], tmp_path)
    assert base == (0, "x,y,psi\n20000000,10000.0,8532550\n")
    assert invoke(argv + ["--workers", "2"], tmp_path) == base


def test_scan_shards_through_the_pool(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    scan = ["exceptional-scan", "--x-max", "3000", "--eps", "0.4", "--stride", "3"]
    # 157 shards of 128 values each look back for the prime that opens
    # their first gap
    verify = ["verify-grimm", "--limit", "20000"]
    gaps = ["gap-scan", "--limit", "20000"]
    bases = [invoke(argv + ["--workers", "1"], tmp_path) for argv in (scan, verify, gaps)]
    assert bases[1][1] == "limit,runs,failures,max_k,max_k_p\n20000,2260,0,51,19609\n"
    assert bases[2][1] == "limit,pairs,violations,max_gap,max_gap_p\n20000,2261,0,52,19609\n"
    argvs = [scan, verify, gaps]
    # psi with x on the shard edge 20480 = 160 * 128, one before and one
    # after it, and y below and above sqrt(x)
    for x in (20479, 20480, 20481):
        for y in (23, 200):
            argvs.append(["psi", "--x", str(x), "--y", str(y)])
            want = psi_buchstab(x, y, trial_primes(y))
            bases.append((0, f"x,y,psi\n{x},{float(y)},{want}\n"))
    monkeypatch.setattr(cli, "SHARD_SPAN", 128)  # 8 exceptional-scan shards of 384 values
    for argv, base in zip(argvs, bases):
        assert invoke(argv + ["--workers", "1"], tmp_path) == base, argv
        assert invoke(argv + ["--workers", "2"], tmp_path) == base, argv


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


def test_replay_streams_its_output(tmp_path):
    # a replay hashes each piece as run does, so it holds no more of the
    # output than run into a discarding stdout (about 3.5 MB of JSON here)
    mpath = tmp_path / "emit.manifest.json"
    argv = ["verify-grimm", "--limit", "1000000", "--emit-runs", "--format", "json",
            "--workers", "1", "--manifest", str(mpath)]

    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with open(os.devnull, "w") as sink:
        code, run_peak = peak(lambda: run(argv, stdout=sink))
    assert code == 0
    (code, digest), replay_peak = peak(lambda: replay_manifest(str(mpath)))
    assert (code, digest) == (0, json.loads(mpath.read_text())["result_digest"])
    assert replay_peak <= run_peak + 2**20, (replay_peak, run_peak)


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
    # a 0.1.0 file, whose shard lines have another form, is refused by name
    header["meta"]["version"] = "0.1.0"
    old = {"runs": 12, "max_k": 5, "max_k_p": 23, "failures": []}
    ck.write_text(json.dumps(header) + "\n" + json.dumps({"shard": 0, "result": old}) + "\n")
    code, out = invoke(
        ["verify-grimm", "--limit", "200000", "--checkpoint", str(ck)], tmp_path
    )
    assert (code, out) == (2, "") and str(ck) in capsys.readouterr().err


def test_env_table_limit_is_not_read(tmp_path, monkeypatch):
    mpath = tmp_path / "env.manifest.json"
    base = invoke(["g", "--n", "2"], tmp_path, manifest=mpath)
    assert base == (0, "n,g\n2,3\n")
    limit = json.loads(mpath.read_text())["table_limit"]
    for value in ("5000", "abc"):
        monkeypatch.setenv("GRIMMSMOOTH_TABLE_LIMIT", value)
        assert invoke(["g", "--n", "2"], tmp_path, manifest=mpath) == base
        assert json.loads(mpath.read_text())["table_limit"] == limit


def test_env_workers_default(tmp_path, monkeypatch):
    # the variable is not read: without --workers a sharded command uses
    # the CPU count, and a command that cannot start a pool has one worker
    monkeypatch.setenv("GRIMMSMOOTH_WORKERS", "abc")
    mpath = tmp_path / "w.manifest.json"
    code, _ = invoke(["gap-scan", "--limit", "1000"], tmp_path, manifest=mpath)
    data = json.loads(mpath.read_text())
    assert code == 0 and data["worker_count"] == (os.cpu_count() or 1)
    assert "workers" not in data["parameters"]
    assert invoke(["g", "--n", "2"], tmp_path, manifest=mpath) == (0, "n,g\n2,3\n")
    data = json.loads(mpath.read_text())
    assert data["worker_count"] == 1 and "workers" not in data["parameters"]


def test_exit_1_when_a_bound_breaks(tmp_path, monkeypatch):
    # no real violations exist in these ranges, so exercise the reporting
    # path by substituting a failing report
    import grimmsmooth.cli as cli
    from grimmsmooth import DusartReport

    fake = DusartReport(
        limit=100, pi_points_checked=99, pi_violations=(42,), pi_min_slack=-1.0,
        theta_primes_checked=25, theta_violations=(), theta_min_slack=1.0,
    )
    monkeypatch.setattr(cli, "check_dusart", lambda limit: fake)
    code, out = invoke(["dusart-check", "--limit", "100"], tmp_path)
    assert code == 1
    assert out.splitlines()[1].startswith("pi_upper,100,99,1,")


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a window too large for memory (g at n = 4e18 asks numpy for 14.9 GiB)
    # is a resource error, never the exit 1 of a counterexample; the
    # allocation is simulated, not made
    import grimmsmooth.cli as cli

    for err in (MemoryError("Unable to allocate 14.9 GiB"), MemoryError()):
        def fail(*args, err=err):
            raise err

        monkeypatch.setattr(cli, "g", fail)
        capsys.readouterr()
        assert invoke(["g", "--n", "100"], tmp_path) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: out of memory. {err}".rstrip())


def fake_verify(failure, runs, max_k, max_k_p):
    """A verify_grimm_summary whose every range reports ``failure``, a
    GrimmRunReport, so that the shards' summaries pass through the
    checkpoint's JSON round trip."""
    from grimmsmooth import VerifySummary

    def summary(limit, table, lo=2):
        return VerifySummary(lo, limit, runs, (failure,), max_k, max_k_p)

    return summary


def test_exit_1_on_verify_failure(tmp_path, monkeypatch, capsys):
    import grimmsmooth.cli as cli
    from grimmsmooth import GrimmRunReport, RepresentationResult

    failure = GrimmRunReport(2, 4, RepresentationResult(False, hall_witness=frozenset({1, 2, 4})))
    monkeypatch.setattr(cli, "verify_grimm_summary", fake_verify(failure, 1, 4, 2))
    ck = tmp_path / "fail.ckpt"
    for _ in range(2):  # computed, then loaded from the checkpoint
        capsys.readouterr()
        code, out = invoke(["verify-grimm", "--limit", "100", "--checkpoint", str(ck)], tmp_path)
        assert code == 1
        assert out.splitlines()[1] == "100,1,1,4,2"
        assert "NOT REPRESENTABLE: 2,4,not_representable,1;2;4" in capsys.readouterr().err


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
    from grimmsmooth import GrimmRunReport, RepresentationResult

    failure = GrimmRunReport(23, 5, RepresentationResult(False, hall_witness=frozenset({1, 2, 3})))
    monkeypatch.setattr(cli, "verify_grimm_summary", fake_verify(failure, 10, 5, 23))
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


def test_psi_checkpoint_resumes(tmp_path, monkeypatch, capsys):
    import grimmsmooth.cli as cli

    monkeypatch.setattr(cli, "SHARD_SPAN", 4096)
    ck = tmp_path / "psi.ckpt"
    argv = ["psi", "--x", "20000", "--y", "30", "--checkpoint", str(ck)]
    full = invoke(argv, tmp_path)
    assert full == (0, f"x,y,psi\n20000,30.0,{psi_buchstab(20000, 30, trial_primes(30))}\n")
    text = ck.read_text()
    lines = text.splitlines(keepends=True)
    assert len(lines) == 1 + 5  # header + shards (0, 4096], ..., (16384, 20000]
    assert json.loads(lines[0])["meta"] == {
        "cmd": "psi", "x": 20000, "y": 30.0, "span": 4096,
        "version": grimmsmooth.__version__,
    }
    # a run killed while writing its third shard's line
    ck.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    assert invoke(argv, tmp_path) == full
    assert ck.read_text() == text
    # a checkpoint written for another y is refused
    capsys.readouterr()
    other = ["psi", "--x", "20000", "--y", "31", "--checkpoint", str(ck)]
    assert invoke(other, tmp_path) == (2, "")
    assert "checkpoint" in capsys.readouterr().err


def test_psi_regimes_across_workers(tmp_path, monkeypatch):
    import grimmsmooth.cli as cli

    monkeypatch.setattr(cli, "SHARD_SPAN", 128)  # 176 or 177 shards
    mpath = tmp_path / "psi.manifest.json"
    k = 150
    for x in (k * k - 1, k * k, k * k + 1):
        r = isqrt(x)
        for y in (r - 1, r, r + 0.5, 2.5 * r):
            want = psi_buchstab(x, y, trial_primes(int(y)))
            argv = ["psi", "--x", str(x), "--y", str(y)]
            base = invoke(argv + ["--workers", "1"], tmp_path, manifest=mpath)
            assert base == (0, f"x,y,psi\n{x},{float(y)},{want}\n"), argv
            # the prime regime, floor(y) >= isqrt(x), builds no table
            sieves = int(y) < r
            limit = json.loads(mpath.read_text())["table_limit"]
            assert limit == (int(y) if sieves else None), argv
            assert invoke(argv + ["--workers", "2"], tmp_path) == base, argv


def test_psi_checkpoint_of_smooth_counts_is_refused(tmp_path, monkeypatch, capsys):
    # before the prime regime every psi shard stored its smooth count; for
    # floor(y) >= isqrt(x) the shards now store other shares of the same sum
    import grimmsmooth.cli as cli

    monkeypatch.setattr(cli, "SHARD_SPAN", 4096)
    x, y = 20000, 200.0  # isqrt(x) = 141
    want = psi_buchstab(x, y, trial_primes(200))
    cuts = [0, 4096, 8192, 12288, 16384, x]
    counts = [smooth_count_direct(a + 1, b, y) for a, b in zip(cuts, cuts[1:])]
    assert sum(counts) == want
    meta = {
        "cmd": "psi", "x": x, "y": y, "span": 4096,
        "version": grimmsmooth.__version__,
    }
    ck = tmp_path / "psi.ckpt"
    records = [{"meta": meta}] + [{"shard": i, "result": c} for i, c in enumerate(counts[:3])]
    ck.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = ["psi", "--x", str(x), "--y", str(y), "--checkpoint", str(ck)]
    capsys.readouterr()
    assert invoke(argv, tmp_path) == (2, "")
    assert "checkpoint" in capsys.readouterr().err
    ck.unlink()
    assert invoke(argv, tmp_path) == (0, f"x,y,psi\n{x},{y},{want}\n")
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0]) == {"meta": meta | {"regime": "primes", "span": x}}
    shares = [json.loads(line)["result"] for line in lines[1:]]
    # resuming from the smooth counts would have printed a wrong sum
    assert sum(shares) == want != sum(counts[:3]) + sum(shares[3:])


def test_psi_checkpoint_of_prime_regime_shards_is_refused(tmp_path, capsys):
    # earlier versions ran the prime regime on 2^21-value shards under the
    # same header bar the span; resuming such a file with one shard (0, x]
    # would print the share of (0, 2^21] as Psi(x, y)
    x, y = 10**7, 10_000.0  # isqrt(x) = 3162
    ps = sieve_primes(3 * 2**21)
    cuts = [0, 2**21, 2**22, 3 * 2**21]
    shares = [
        (b - a) - int((x // ps[(ps > max(a, y)) & (ps <= b)]).sum())
        for a, b in zip(cuts, cuts[1:])
    ]
    meta = {
        "cmd": "psi", "x": x, "y": y, "span": 2**21,
        "version": grimmsmooth.__version__, "regime": "primes",
    }
    ck = tmp_path / "psi.ckpt"
    records = [{"meta": meta}] + [{"shard": i, "result": c} for i, c in enumerate(shares)]
    ck.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = ["psi", "--x", str(x), "--y", str(y), "--checkpoint", str(ck)]
    capsys.readouterr()
    assert invoke(argv, tmp_path) == (2, "")
    assert str(ck) in capsys.readouterr().err
    want = psi_large_y(x, y)
    assert shares[0] != want
    ck.unlink()
    assert invoke(argv, tmp_path) == (0, f"x,y,psi\n{x},{y},{want}\n")
    assert json.loads(ck.read_text().splitlines()[0]) == {"meta": meta | {"span": x}}


def test_resume_interleaves_loaded_and_pooled_shards(tmp_path, monkeypatch):
    # 40 to 157 shards of 128 values: the first comes from the checkpoint,
    # the rest from a pool of two, and the file grows line by line as if
    # the run had never stopped
    import grimmsmooth.cli as cli

    monkeypatch.setattr(cli, "SHARD_SPAN", 128)
    for argv in (
        ["verify-grimm", "--limit", "20000"],
        ["gap-scan", "--limit", "20000"],
        ["psi", "--x", "5000", "--y", "30"],
    ):
        ck = tmp_path / "run.ckpt"
        argv = argv + ["--workers", "2", "--checkpoint", str(ck)]
        full = invoke(argv, tmp_path)
        text = ck.read_text()
        assert full[0] == 0 and len(text.splitlines()) > 3, argv
        ck.write_text("".join(text.splitlines(keepends=True)[:2]))
        assert invoke(argv, tmp_path) == full, argv
        assert ck.read_text() == text, argv
        ck.unlink()


def test_shard_driver_streams(monkeypatch):
    # 2^40 shards: the first result comes back without any list of shards
    # or results being built, in this process and through a pool
    import argparse

    import grimmsmooth.cli as cli

    for workers in (1, 2):
        args = argparse.Namespace(subcommand="test", worker_count=workers)
        shards = cli._shards(args, 5, 5 + 3 * 2**40, 3, lambda ab: ab, {})
        assert next(shards) == (5, 8)
        assert next(shards) == (8, 11)
        shards.close()


def test_perfbench_hooks_into_cli_resolve(monkeypatch):
    # the benchmark wraps cli functions by name and clears two environment
    # variables by cli's constants: a rename here would crash it or quietly
    # zero its shard spans
    import importlib.util
    import sys
    from pathlib import Path

    import grimmsmooth.cli as cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    owned = [s for s in spans.LAYER_SPANS if s.owner == "cli"]
    assert {s.attr for s in owned} >= {"run", "_verify_shard", "_scan_shard"}
    for span in owned:
        assert callable(getattr(cli, span.attr, None)), span.name
    assert (cli.ENV_TABLE_LIMIT, cli.ENV_WORKERS) == (
        "GRIMMSMOOTH_TABLE_LIMIT", "GRIMMSMOOTH_WORKERS",
    )


def test_hot_paths_never_import_numpy_ma(tmp_path):
    # numpy 2.4's np.unique without index outputs calls np.ma.is_masked,
    # whose lazy import of numpy.ma costs about 9 ms, paid again by every
    # forked worker whose parent never imported it; these commands must not
    # touch it.  A fresh interpreter, since this one may have imported it.
    import subprocess
    import sys
    from pathlib import Path

    script = """
import io, sys
from grimmsmooth.cli import run
for argv in (
    ["verify-grimm", "--limit", "1000000", "--workers", "1"],
    ["psi-window", "--x", "100000", "--z", "600", "--y", "600"],
    ["exceptional-scan", "--x-max", "100000", "--eps", "0.45", "--stride", "10"],
    ["g", "--n", "1000000"],
    ["g1", "--n", "1000000"],
    ["ram-sum", "--x", "100000000", "--alpha", "0.48"],
):
    assert run(argv + ["--manifest", "-"], stdout=io.StringIO()) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
