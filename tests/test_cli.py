import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from apseq import cli
from apseq import generators as G
from apseq import omega as O
from apseq import transforms as T
from apseq.cli import SequenceSpec, build_sequence, main, parse_dfao_file, parse_scheme_file
from apseq.core import Bound
from apseq.errors import SpecError

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


TRACKER = """states: q0 q1
start: q0
alphabet: 0 1
q0 0 -> q0
q0 1 -> q1
q1 0 -> q0
q1 1 -> q1
accept-sets: {q0,q1}
"""
BUCHI = TRACKER.replace("accept-sets: {q0,q1}", "accept: q1")

IDENTITY = """states: q0
start: q0
q0 0 -> 0 q0
q0 1 -> 1 q0
"""


DIGITS = """base: 2
states: e o
start: e
output: e = 0
output: o = 1
e 0 -> e
e 1 -> o
o 0 -> o
o 1 -> e
"""

PAIRS = """kind: gap
base: 0 = 01
base: 1 = 10
expand: 0 = 010
expand: 1 = 101
pairs: 01 10
"""

CHOICE = """kind: gap
base: 0 = 0
base: 1 = 1
expand: 0 = 00110
expand: 1 = 11001
pairs: 00 01 10 11
"""


@pytest.fixture
def tracker_file(tmp_path):
    path = tmp_path / "tracker.aut"
    path.write_text(TRACKER)
    return str(path)


# -- specs ---------------------------------------------------------------------


def test_spec_roundtrip():
    for text in ("thue_morse", "periodic period=01",
                 "mechanical alpha=invphi2 rho=invphi2 variant=lower",
                 "morphic rules=0:01,1:10 seed=0"):
        spec = SequenceSpec.parse(text)
        assert SequenceSpec.parse(spec.print()).print() == spec.print()


def test_spec_rejects_unknowns():
    with pytest.raises(SpecError):
        build_sequence(SequenceSpec.parse("martian"))
    with pytest.raises(SpecError):
        build_sequence(SequenceSpec.parse("periodic period=01 extra=1"))
    with pytest.raises(SpecError):
        build_sequence(SequenceSpec.parse("periodic"))


def test_all_parameterless_families_build():
    for text in ("thue_morse", "fibonacci", "kolakoski", "keane",
                 "alternating_prefix_example", "paperfolding"):
        x = build_sequence(SequenceSpec.parse(text))
        assert len(x.prefix(8)) == 8


# -- gen ------------------------------------------------------------------------


def test_gen_examples():
    code, out, _ = run(["gen", "--spec", "thue_morse", "--n", "32"])
    assert code == 0 and out.strip() == "01101001100101101001011001101001"
    code, out, _ = run(["gen", "--spec", "kolakoski", "--n", "23"])
    assert code == 0 and out.strip() == "22112122122112112212112"
    code, out, _ = run(["gen", "--spec", "periodic period=01", "--n", "4"])
    assert code == 0 and out.strip() == "0101"


def test_gen_deterministic():
    argv = ["gen", "--spec", "aperiodicity_witness k=5", "--n", "30"]
    assert run(argv) == run(argv)


def test_gen_multichar_symbols_comma_separated():
    code, out, _ = run(["gen", "--spec", "aperiodicity_witness k=12", "--n", "6"])
    assert code == 0 and out.strip().count(",") == 5


def test_gen_more_families():
    code, out, _ = run(["gen", "--spec", "toeplitz pattern=1_0_", "--n", "32"])
    assert out.strip() == "11011001110010011101100011001001"
    code, out, _ = run(["gen", "--spec",
                        "alternating_morphic rules=1:2,2:22|1:1,2:11 seed=2",
                        "--n", "23"])
    assert out.strip() == "22112122122112112212112"
    code, out, _ = run(["gen", "--spec", "eventually_periodic pre=1 period=0",
                        "--n", "5"])
    assert out.strip() == "10000"
    code, out, _ = run(["gen", "--spec",
                        "progression_rewrite base_period=01 n0=4 ratio=4",
                        "--n", "12"])
    assert code == 0 and len(out.strip()) == 12
    code, out, _ = run(["gen", "--spec", "block_product head=001 tail=0111",
                        "--n", "12"])
    assert out.strip() == "001110110110"
    code, out, _ = run(["gen", "--spec",
                        "mechanical alpha=1/2 rho=0 variant=lower", "--n", "6"])
    assert out.strip() == "010101"


def test_gen_morphic_coding_onto_new_letters():
    spec = "morphic rules=0:01,1:10 seed=0 coding=0:a,1:b"
    assert run(["gen", "--spec", spec, "--n", "8"]) == (0, "abbabaab\n", "")
    code, out, err = run(["gen", "--spec", "morphic rules=0:01,1:10 seed=0 coding=0:a",
                          "--n", "8"])
    assert (code, out, err) == (2, "", "error: morphism missing image for '1'\n")


def test_gen_morphic_rejects_an_image_for_a_letter_outside_the_source():
    spec = "morphic rules=0:01,1:10 seed=0 coding=0:a,1:b,2:c"
    assert run(["gen", "--spec", spec, "--n", "8"]) == (
        2, "", "error: morphism has an image for '2', not in its source alphabet\n")
    with pytest.raises(SpecError, match="'x'"):
        G.Morphism.from_rules(G.BINARY, G.BINARY, {"0": "01", "1": "10", "x": "0"})


def test_gen_help_names_every_family(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert set(cli.FAMILIES) <= set(re.findall(r"\w+", capsys.readouterr().out))


def test_cli_runs_as_a_module():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "apseq.cli", "gen", "--spec", "thue_morse",
                           "--n", "8"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (done.returncode, done.stdout) == (0, "01101001\n")


# -- exit codes -------------------------------------------------------------------


def test_block_product_spec_provenance():
    x = build_sequence(SequenceSpec.parse("block_product head=001 tail=0111 both=false"))
    assert str(x.provenance) == "block_product head=001 tail=0111"


def test_exit_codes(tmp_path, tracker_file):
    assert run(["gen", "--spec", "bogus", "--n", "4"])[0] == 2
    os.environ["APSEQ_HORIZON_CAP"] = "64"
    try:
        assert run(["gen", "--spec", "thue_morse", "--n", "1000"])[0] == 3
    finally:
        del os.environ["APSEQ_HORIZON_CAP"]
    bad = tmp_path / "bad.aut"
    bad.write_text("nonsense\n")
    assert run(["decide", "--automaton", str(bad), "--spec", "thue_morse"])[0] == 4
    assert run(["decide", "--automaton", tracker_file, "--spec", "kolakoski"])[0] == 5
    os.environ["APSEQ_HORIZON_CAP"] = "1000"
    try:
        assert run(["decide", "--automaton", tracker_file, "--spec", "thue_morse"])[0] == 6
    finally:
        del os.environ["APSEQ_HORIZON_CAP"]


def test_horizon_cap_reaches_the_progression_rewrite_base(monkeypatch):
    # 14348906 is the first index past 10**7 that no level pins, so its
    # symbol is read from the base at that same index: past the default cap
    monkeypatch.setenv("APSEQ_HORIZON_CAP", str(2 * 10**7))
    x = build_sequence(SequenceSpec.parse("progression_rewrite base_period=01 n0=2 ratio=3"))
    assert x[14348906] == "0"


def test_progression_rewrite_capped_below_n1_is_built_and_refused_as_before(
        monkeypatch, tracker_file):
    # the one-state window 2 g(g(1)) = 432 is past the cap, so no description
    # is read from the base
    spec = "progression_rewrite base_pre=1 base_period=10 n0=4 ratio=3"
    assert build_sequence(SequenceSpec.parse(spec)).substitutive is not None
    monkeypatch.setenv("APSEQ_HORIZON_CAP", "10")
    assert build_sequence(SequenceSpec.parse(spec)).substitutive is None
    assert run(["gen", "--n", "10", "--spec", spec]) == (0, "1101010101\n", "")
    assert run(["gen", "--n", "11", "--spec", spec]) == (
        3, "", "error: requested 11 symbols of progression_rewrite base=eventually_periodic "
               "period=10 period_len=2 pre=1 pre_len=1 n0=4 n1=12, cap is 10\n")
    assert run(["decide", "--automaton", tracker_file, "--spec", spec]) == (
        6, "", "error: certified window [17496, 34991] exceeds the horizon cap 10; "
               "raise the cap to decide this pair\n")


# -- analyze -----------------------------------------------------------------------


def test_analyze_complexity_rows():
    code, out, _ = run(["analyze", "--spec", "fibonacci", "--metric", "complexity",
                        "--n-max", "10", "--horizon", "2000"])
    lines = out.strip().splitlines()
    assert lines[0] == "metric,param,value,kind,horizon"
    assert [int(l.split(",")[2]) for l in lines[1:]] == list(range(2, 12))
    assert all(l.split(",")[3] == "lower" for l in lines[1:])


def test_analyze_cube_rows_empty():
    code, out, _ = run(["analyze", "--spec", "thue_morse", "--metric", "powers",
                        "--kind", "cube", "--horizon", "20000"])
    assert code == 0 and out.strip().splitlines() == ["metric,param,value,kind,horizon"]


class _HashSink:
    """A stdout that keeps only a digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_analyze_powers_rows_are_not_held_twice():
    # every square in 600 zeros: 90,000 rows; holding them as 5-tuples next
    # to detect_powers' list peaked at 20.4 MB, making them as printed at 8.5 MB
    sink = _HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["analyze", "--spec", "periodic period=0", "--metric", "powers",
                         "--horizon", "600"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest().startswith("adaad67cefeca91f")
    assert peak < 14e6


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_analyze_powers_rows_stream_in_a_child_process():
    # every square in 3000 zeros: 2,250,000 rows, all in one block of periods;
    # holding detect_powers' list peaked at 344 MB.  The peak is the child's
    # VmHWM: its ru_maxrss starts at the forking test process's size.
    probe = ("import contextlib, hashlib\n"
             "from apseq.cli import main\n"
             "class Sink:\n"
             "    digest = hashlib.sha256()\n"
             "    def write(self, text):\n"
             "        self.digest.update(text.encode())\n"
             "    def flush(self):\n"
             "        pass\n"
             "with contextlib.redirect_stdout(Sink()):\n"
             "    code = main(['analyze', '--spec', 'periodic period=0', '--metric', 'powers',\n"
             "                 '--horizon', '3000'])\n"
             "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
             "print(code, Sink.digest.hexdigest(), int(hwm[0].split()[1]) / 1024)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    code, digest, peak_mb = done.stdout.split()
    assert code == "0" and digest.startswith("bf6f31b61ee340c8")
    assert float(peak_mb) < 100


def test_analyze_powers_limit_zero_and_negative():
    argv = ["analyze", "--spec", "periodic period=0", "--metric", "powers", "--horizon", "20"]
    code, out, _ = run(argv + ["--limit", "0"])
    assert code == 0 and out.strip().splitlines() == ["metric,param,value,kind,horizon"]
    code, out, err = run(argv + ["--limit", "-1"])
    assert code == 2 and out == "" and "limit" in err


def test_analyze_am():
    code, out, _ = run(["analyze", "--spec", "thue_morse", "--metric", "am",
                        "--shifts", "64", "--horizon", "65536"])
    last = out.strip().splitlines()[-1]
    metric, shift, value, kind, horizon = last.split(",")
    assert metric == "am-min"
    num, den = value.split("/")
    assert abs(int(num) / int(den) - 1 / 3) < 0.02


def test_analyze_regulator_kinds():
    code, out, _ = run(["analyze", "--spec", "periodic period=01",
                        "--metric", "regulator", "--n-max", "3",
                        "--horizon", "1000"])
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [2, 3, 4]
    assert all(r[3] == "empirical-lower" for r in rows)
    code, out, _ = run(["analyze", "--spec", "periodic period=01",
                        "--metric", "regulator", "--n-max", "3", "--certified"])
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert all(r[3] == "certified-exact" for r in rows)
    assert [int(r[2]) for r in rows] == [2, 3, 4]


def test_analyze_quasiperiods_and_screen():
    code, out, _ = run(["analyze", "--spec", "fibonacci",
                        "--metric", "quasiperiods", "--length", "13"])
    assert code == 0 and any(",minimal," in l for l in out.splitlines())
    code, out, _ = run(["analyze", "--spec", "periodic period=011",
                        "--metric", "screen", "--horizon", "2000"])
    assert out.strip().splitlines()[-1].split(",")[3] == "confirmed"


def test_analyze_deterministic():
    argv = ["analyze", "--spec", "thue_morse", "--metric", "entropy",
            "--n-max", "12", "--horizon", "20000"]
    assert run(argv) == run(argv)


# -- transduce / decide / compare -----------------------------------------------------


def test_transduce(tmp_path):
    mach = tmp_path / "ident.fst"
    mach.write_text(IDENTITY)
    code, out, _ = run(["transduce", "--machine", str(mach),
                        "--spec", "fibonacci", "--n", "21"])
    assert code == 0 and out.strip() == "010010100100101001010"
    code, out, _ = run(["transduce", "--machine", str(mach),
                        "--spec", "periodic period=01", "--n", "4", "--emit-bound"])
    assert out.splitlines()[1] == "bound: 3 4 5 6 7 8 9 10"
    code, out, _ = run(["transduce", "--machine", str(mach),
                        "--spec", "fibonacci", "--n", "4", "--emit-bound"])
    assert out.splitlines()[1] == "bound: none"


def test_decide(tracker_file):
    code, out, _ = run(["decide", "--automaton", tracker_file, "--spec", "thue_morse"])
    assert code == 0
    assert out.splitlines()[0] == "ACCEPT"
    assert out.splitlines()[1] == "limit {q0,q1}"
    code, out, _ = run(["decide", "--automaton", tracker_file,
                        "--spec", "eventually_periodic pre=01 period=0"])
    assert out.splitlines()[0] == "REJECT"


def test_decide_with_a_recurring_state_acceptor(tmp_path):
    path = tmp_path / "buchi.aut"
    path.write_text(BUCHI)
    code, out, _ = run(["decide", "--automaton", str(path), "--spec", "thue_morse"])
    assert code == 0
    assert out.splitlines() == ["ACCEPT", "limit {q0,q1}", "window [16384,32767]",
                                "bound uniform image window, m=2"]


def test_decide_scheme_file(tmp_path, tracker_file):
    sch = tmp_path / "pairs.scheme"
    sch.write_text("""kind: gap
base: 0 = 01
base: 1 = 10
expand: 0 = 010
expand: 1 = 101
pairs: 01 10
""")
    code, out, _ = run(["gen", "--spec", f"scheme file={sch}", "--n", "8"])
    assert code == 0 and out.strip() == "01100110"
    code, out, _ = run(["decide", "--automaton", tracker_file,
                        "--spec", f"scheme file={sch}"])
    assert code == 0 and out.splitlines()[0] == "ACCEPT"


def test_compare():
    code, out, _ = run(["compare", "--spec-a", "thue_morse definition=recurrence",
                        "--spec-b", "thue_morse definition=digit_sum",
                        "--horizon", "20000"])
    assert code == 0 and "agreement >= 20000" in out and "density 0" in out
    code, out, _ = run(["compare", "--spec-a", "thue_morse",
                        "--spec-b", "periodic period=01", "--horizon", "100"])
    assert "agreement 2" in out
    code, out, _ = run(["compare", "--spec-a", "kolakoski",
                        "--spec-b", "alternating_morphic rules=1:2,2:22|1:1,2:11 seed=2",
                        "--horizon", "20000"])
    assert "agreement >= 20000" in out


# -- malformed input -------------------------------------------------------------------

GEN = "gen --n 8 --spec "
DECIDE = "decide --automaton {f} --spec "

MALFORMED = {
    # name: (input file text, command line with {f} for its path and any
    # --spec last, exit code)
    "scheme-base-without-eq": (PAIRS.replace("base: 0 = 01", "base: 0"),
                               GEN + "scheme file={f}", 2),
    "scheme-letter-without-base": (PAIRS.replace("expand: 0 = 010", "expand: 0 = 012"),
                                   GEN + "scheme file={f}", 2),
    "scheme-pair-of-unknown-letter": (PAIRS.replace("pairs: 01 10", "pairs: 01 12"),
                                      GEN + "scheme file={f}", 2),
    "scheme-without-expansions": (PAIRS.replace("expand:", "# expand:"),
                                  GEN + "scheme file={f}", 2),
    "scheme-random-without-seed": (CHOICE, GEN + "scheme file={f} policy=random", 2),
    "scheme-unknown-policy": (PAIRS, GEN + "scheme file={f} policy=foo", 2),
    "block-product-both-not-a-truth-value": ("", GEN + "block_product head=01 both=yes", 2),
    "digits-output-without-eq": (DIGITS.replace("output: e = 0", "output: e"),
                                 GEN + "automatic file={f}", 4),
    "digits-base-not-a-number": (DIGITS.replace("base: 2", "base: x"),
                                 GEN + "automatic file={f}", 4),
    "digits-digit-not-a-number": (DIGITS.replace("e 1 -> o", "e x -> o"),
                                  GEN + "automatic file={f}", 4),
    "digits-start-outside-states": (DIGITS.replace("start: e", "start: z"),
                                    GEN + "automatic file={f}", 4),
    "digits-arc-to-unknown-state": (DIGITS.replace("e 1 -> o", "e 1 -> z"),
                                    GEN + "automatic file={f}", 4),
    "buchi-arc-to-unknown-state": (BUCHI.replace("q0 1 -> q1", "q0 1 -> q9"),
                                   DECIDE + "thue_morse", 4),
    "automaton-alphabet-misses-letters": (TRACKER, DECIDE + "periodic period=ab", 2),
    "alpha-not-a-number": ("", GEN + "mechanical alpha=abc rho=0", 2),
    "alpha-zero-denominator": ("", GEN + "mechanical alpha=1/0 rho=0", 2),
    "alpha-two-slashes": ("", GEN + "mechanical alpha=1/2/3 rho=0", 2),
    "k-not-a-number": ("", GEN + "aperiodicity_witness k=x", 2),
    "n0-not-a-number": ("", GEN + "progression_rewrite base_period=01 n0=x ratio=2", 2),
    "horizon-cap-not-a-number": ("", "APSEQ_HORIZON_CAP=x " + GEN + "thue_morse", 2),
    # a scheme whose level words stop growing must stop, not loop forever
    "scheme-single-letter-expansions": (
        "kind: ap\nbase: 0 = 0\nbase: 1 = 1\nexpand: 0 = 0\nexpand: 1 = 1\n",
        GEN + "scheme file={f}", 2),
    "scheme-empty-expansion": (
        "kind: ap\nbase: 0 = 0\nbase: 1 = 1\nexpand: 0 = 01\nexpand: 1 =\n",
        GEN + "scheme file={f}", 2),
    # lengths that read no codes, or codes before position 0
    "balance-horizon-below-n-max": ("", "analyze --metric balance --horizon 5 --n-max 8 "
                                        "--spec thue_morse", 2),
    "balance-horizon-zero": ("", "analyze --metric balance --horizon 0 --spec thue_morse", 2),
    "am-horizon-zero": ("", "analyze --metric am --horizon 0 --spec thue_morse", 2),
    "am-horizon-negative": ("", "analyze --metric am --horizon -5 --spec thue_morse", 2),
    "tiling-length-zero": ("", "analyze --metric tiling --length 0 --spec thue_morse", 2),
    # bounds under which no length is tested
    "screen-n-max-zero": ("", "analyze --metric screen --n-max 0 --spec thue_morse", 2),
    "rd-n-max-zero": ("", "analyze --metric rd --n-max 0 --spec thue_morse", 2),
    "balance-n-max-zero": ("", "analyze --metric balance --n-max 0 --spec thue_morse", 2),
    "complexity-n-max-zero": ("", "analyze --metric complexity --n-max 0 --spec thue_morse", 2),
    "complexity-n-max-negative": ("", "analyze --metric complexity --n-max -3 "
                                      "--spec thue_morse", 2),
    "regulator-n-max-zero": ("", "analyze --metric regulator --n-max 0 --spec thue_morse", 2),
    "certified-regulator-n-max-negative": ("", "analyze --metric regulator --certified "
                                               "--n-max -3 --spec thue_morse", 2),
    "prefix-regulator-n-max-zero": ("", "analyze --metric prefix-regulator --n-max 0 "
                                        "--spec thue_morse", 2),
    "entropy-n-max-negative": ("", "analyze --metric entropy --n-max -3 --spec thue_morse", 2),
    "powers-max-period-zero": ("", "analyze --metric powers --max-period 0 --spec thue_morse", 2),
    "powers-max-period-negative": ("", "analyze --metric powers --max-period -1 "
                                       "--spec thue_morse", 2),
    "compare-horizon-negative": ("", "compare --horizon -5 --spec-a thue_morse "
                                     "--spec-b thue_morse", 2),
}


def _hang(signum, frame):
    raise TimeoutError("the command did not finish within 20 s")


@pytest.mark.parametrize("text, command, code", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_exits_with_error(tmp_path, monkeypatch, text, command, code):
    path = tmp_path / "input"
    path.write_text(text)
    head, rest = command.split(" ", 1)
    if "=" in head:  # a leading NAME=value sets the environment, as in a shell
        monkeypatch.setenv(*head.split("=", 1))
        command = rest
    # no pytest-timeout here: an alarm turns a hang into a failure
    handler = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(20)
    try:
        words, flag, spec = command.format(f=path).partition(" --spec ")  # a spec may hold spaces
        got, out, err = run(words.split() + ([flag.strip(), spec] if flag else []))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert (got, out) == (code, "")
    assert err.startswith("error:")


def test_random_scheme_policy_follows_seed(tmp_path):
    path = tmp_path / "choice.scheme"
    path.write_text(CHOICE)
    argv = ["--seed", "3", "gen", "--n", "40", "--spec", f"scheme file={path} policy=random"]
    code, out, _ = run(argv)
    assert code == 0 and run(argv)[1] == out
    want = G.scheme_generate(G.choice_scheme(), policy="random", seed=3).prefix(40).text
    assert out.strip() == want


def test_readme_file_formats_parse(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
    machine, automaton, digits, scheme = section.split("```\n")[1::2]
    printed = T.print_transducer(T.parse_transducer(machine))
    assert T.print_transducer(T.parse_transducer(printed)) == printed
    assert isinstance(O.parse_automaton(automaton), O.MullerAutomaton)
    (tmp_path / "digits").write_text(digits)
    x = G.automatic(parse_dfao_file(str(tmp_path / "digits")))
    assert x.prefix(8).text == "01101001"
    (tmp_path / "scheme").write_text(scheme)
    assert G.scheme_validate(parse_scheme_file(str(tmp_path / "scheme")), 3) == []


def test_readme_family_list_matches_the_family_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("Families: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(cli.FAMILIES)


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_reaches_every_traced_name():
    # perfbench/tracing.py patches package functions by name for --trace 1
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.Tracer.leftovers() == []


def test_tracer_spans_count_the_codes_filled():
    # the tracer wraps Sequence.__init__ and the extend(store, target) it is
    # given, and reads len(store) before and after each fill
    tracing = _tracing()
    NAME, INFO = tracing.NAME, tracing.INFO
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tm = G.thue_morse()
        seqs = {"generators.fibonacci": G.fibonacci(),
                "transforms.transduce": T.transduce(T.cyclic_transducer(G.BINARY, 3), tm),
                "generators.thue_morse_recurrence": tm}
        for name, n in (("generators.fibonacci", 5000), ("transforms.transduce", 9000),
                        ("generators.fibonacci", 20000), ("transforms.transduce", 13000)):
            x, start = seqs[name], len(tracer.spans)
            before = len(x.codes(0))
            x.prefix_array(n)
            spans = [sp for sp in tracer.spans[start:] if sp[NAME] == name]
            assert [sp[INFO]["symbols"] for sp in spans] == [len(x.codes(0)) - before], name
        inner = [sp[INFO]["symbols"] for sp in tracer.spans
                 if sp[NAME] == "generators.thue_morse_recurrence"]
        assert inner and sum(inner) == len(tm.codes(0))
    finally:
        tracer.uninstall()
    assert tracing.Tracer.leftovers() == []


def test_tracer_spans_the_fills_of_a_bound_copy():
    # the copy shares its input's store and generator, and outlives the input
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        x = G.fibonacci().with_bound(Bound(lambda n: 2 * n, "2n"))
        x.prefix_array(10000)
        spans = [sp[tracing.INFO]["symbols"] for sp in tracer.spans
                 if sp[tracing.NAME] == "generators.fibonacci"]
        assert spans and spans[0] == len(x.codes(0))
    finally:
        tracer.uninstall()
    assert tracing.Tracer.leftovers() == []


# -- conformance golden ----------------------------------------------------------

# Every family's valid specs and each single fault (unknown family, each
# missing key, an extra key, a bad value), run through gen, spec, analyze and
# decide under four horizon caps.  {dir} stands for the folder of the input
# files.
GOLDEN_SPECS = [
    "martian", "periodic period", "periodic period=0 period=1",
    "periodic period=01", "periodic period=0", "periodic", "periodic period=",
    "eventually_periodic pre=1 period=0", "eventually_periodic pre=ab period=abc",
    "eventually_periodic period=0", "eventually_periodic pre=1",
    "thue_morse", "thue_morse definition=digit_sum", "thue_morse definition=morphic",
    "thue_morse definition=foo",
    "fibonacci",
    "mechanical alpha=invphi2 rho=invphi2 variant=lower", "mechanical alpha=2/7 rho=1/3",
    "mechanical alpha=1/2 rho=0 variant=upper", "mechanical rho=0", "mechanical alpha=1/2",
    "mechanical alpha=abc rho=0", "mechanical alpha=1/2 rho=0 variant=middle",
    "morphic rules=0:01,1:10 seed=0", "morphic rules=0:01,1:20,2:1 seed=0 coding=0:0,1:1,2:0",
    "morphic seed=0", "morphic rules=0:01,1:10", "morphic rules=0:10,1:01 seed=0",
    "morphic rules=bad seed=0",
    "automatic file={dir}/digits", "automatic", "automatic file={dir}/missing",
    "block_product head=001 tail=0111", "block_product head=01",
    "block_product head=001 tail=0111 both=false", "block_product", "block_product head=1 tail=",
    "keane", "alternating_prefix_example",
    "scheme file={dir}/pairs", "scheme file={dir}/pairs mode=GAP junk=1",
    "scheme file={dir}/choice policy=lex", "scheme", "scheme file={dir}/pairs mode=XX",
    "scheme file={dir}/choice policy=random", "scheme file={dir}/missing",
    "toeplitz pattern=1_0_", "toeplitz pattern=0__1", "toeplitz", "toeplitz pattern=_0",
    "paperfolding", "kolakoski",
    "alternating_morphic rules=1:2,2:22|1:1,2:11 seed=2", "alternating_morphic seed=2",
    "alternating_morphic rules=1:2,2:22|1:1,2:11", "alternating_morphic rules=1:2,2:22 seed=9",
    "progression_rewrite base_period=01 n0=4 ratio=4",
    "progression_rewrite base_pre=1 base_period=0 n0=2 ratio=3",
    "progression_rewrite n0=4 ratio=4", "progression_rewrite base_period=01 ratio=4",
    "progression_rewrite base_period=01 n0=4", "progression_rewrite base_period=01 n0=x ratio=2",
    "progression_rewrite base_period=01 n0=4 ratio=1",
    "aperiodicity_witness k=5", "aperiodicity_witness k=12", "aperiodicity_witness",
    "aperiodicity_witness k=2", "aperiodicity_witness k=x",
]
FAMILY_SPECS = [  # one valid spec per family
    "periodic period=01", "eventually_periodic pre=1 period=0", "thue_morse", "fibonacci",
    "mechanical alpha=1/2 rho=0", "morphic rules=0:01,1:10 seed=0", "automatic file={dir}/digits",
    "block_product head=01", "keane", "alternating_prefix_example", "scheme file={dir}/pairs",
    "toeplitz pattern=1_0_", "paperfolding", "kolakoski",
    "alternating_morphic rules=1:2,2:22|1:1,2:11 seed=2",
    "progression_rewrite base_period=01 n0=4 ratio=4", "aperiodicity_witness k=5"]
GOLDEN_EXTRA = [s + " extra=1" for s in FAMILY_SPECS]
GOLDEN_COMMANDS = [["gen", "--n", "40"], ["spec"], ["analyze", "--metric", "complexity"],
                   ["decide", "--automaton", "{dir}/tracker"]]
GOLDEN_CAPS = [None, "5000", str(2 * 10**7), "x"]
GOLDEN_FILE = ROOT / "tests" / "golden" / "cli" / "specs.json"


def cli_matrix(folder) -> dict:
    """"cap | argv" -> [exit code, stdout, stderr], with the input files
    written to folder and its path printed as {dir}."""
    for name, text in (("digits", DIGITS), ("pairs", PAIRS), ("choice", CHOICE),
                       ("tracker", TRACKER)):
        (Path(folder) / name).write_text(text)
    saved, got = os.environ.pop("APSEQ_HORIZON_CAP", None), {}
    try:
        for cap in GOLDEN_CAPS:
            if cap is not None:
                os.environ["APSEQ_HORIZON_CAP"] = cap
            for spec in GOLDEN_SPECS + GOLDEN_EXTRA:
                for command in GOLDEN_COMMANDS:
                    argv = [a.format(dir=folder) for a in command + ["--spec", spec]]
                    result = run(argv)
                    got[f"{cap} | {' '.join(command)} --spec {spec}"] = [
                        result[0], *(t.replace(str(folder), "{dir}") for t in result[1:])]
            os.environ.pop("APSEQ_HORIZON_CAP", None)
    finally:
        if saved is not None:
            os.environ["APSEQ_HORIZON_CAP"] = saved
    return got


def test_every_family_stores_one_byte_per_code(tmp_path):
    for name, text in (("digits", DIGITS), ("pairs", PAIRS)):
        (tmp_path / name).write_text(text)
    assert {spec.split()[0] for spec in FAMILY_SPECS} == set(cli.FAMILIES)
    for spec in FAMILY_SPECS:
        x = build_sequence(SequenceSpec.parse(spec.format(dir=tmp_path)))
        assert len(x.alphabet) <= 256 and x.prefix_array(100).itemsize == 1, spec


def test_cli_output_matches_its_golden_file(tmp_path):
    want = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    got = cli_matrix(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


# One command per analyze metric and option shape, the transducer's bound
# line and a few faults (a later row raising, a missing option, the tiling
# search's length guard).  A leading NAME=value sets the environment.
METRIC_COMMANDS = [
    "analyze --metric complexity --n-max 6 --horizon 500 --spec fibonacci",
    "analyze --metric complexity --n-max 5 --horizon 300 --spec thue_morse",
    "analyze --metric regulator --n-max 5 --horizon 2000 --spec thue_morse",
    "analyze --metric regulator --n-max 4 --horizon 2000 --spec eventually_periodic pre=1 period=0",
    "analyze --metric regulator --certified --n-max 5 --spec thue_morse",
    "analyze --metric regulator --certified --n-max 3 --spec fibonacci",
    "APSEQ_HORIZON_CAP=400 analyze --metric regulator --certified --n-max 8 --spec thue_morse",
    "analyze --metric prefix-regulator --n-max 5 --horizon 2000 --spec fibonacci",
    "analyze --metric rd --n-max 5 --horizon 2000 --spec thue_morse",
    "analyze --metric balance --n-max 6 --horizon 2000 --spec fibonacci",
    "analyze --metric balance --n-max 6 --horizon 2000 --spec thue_morse",
    "analyze --metric powers --kind square --horizon 200 --limit 40 --spec thue_morse",
    "analyze --metric powers --kind cube --horizon 300 --max-period 8 --spec fibonacci",
    "analyze --metric powers --kind overlap --horizon 100 --limit 25 --spec periodic period=01",
    "analyze --metric powers --kind cube --horizon 400 --spec thue_morse",
    "analyze --metric am --shifts 6 --horizon 2000 --spec thue_morse",
    "analyze --metric frequency --block 01 --i 3 --j 900 --horizon 1000 --spec thue_morse",
    "analyze --metric frequency --block 1 --horizon 700 --spec fibonacci",
    "analyze --metric frequency --horizon 100 --spec thue_morse",
    "analyze --metric entropy --n-max 5 --horizon 3000 --spec thue_morse",
    "analyze --metric quasiperiods --length 13 --spec fibonacci",
    "analyze --metric quasiperiods --length 7 --spec periodic period=aba",
    "analyze --metric tiling --length 8 --spec thue_morse",
    "analyze --metric tiling --length 12 --spec periodic period=0011",
    "analyze --metric tiling --length 8 --pattern 0_1 --spec periodic period=0011",
    "analyze --metric tiling --length 8 --pattern 0□1 --spec periodic period=0011",
    "analyze --metric tiling --length 8 --pattern 01 --spec thue_morse",
    "analyze --metric tiling --length 33 --spec thue_morse",
    "analyze --metric screen --horizon 500 --spec eventually_periodic pre=1 period=0",
    "analyze --metric screen --horizon 500 --n-max 6 --spec thue_morse",
    "transduce --machine {dir}/identity --n 16 --emit-bound --spec thue_morse",
    "transduce --machine {dir}/identity --n 16 --emit-bound --spec fibonacci",
]
METRICS_FILE = ROOT / "tests" / "golden" / "cli" / "metrics.json"


def metrics_matrix(folder) -> dict:
    """"command" -> [exit code, stdout, stderr] for METRIC_COMMANDS."""
    (Path(folder) / "identity").write_text(IDENTITY)
    saved, got = os.environ.pop("APSEQ_HORIZON_CAP", None), {}
    try:
        for command in METRIC_COMMANDS:
            options, spec = command.format(dir=folder).split(" --spec ")
            argv = options.split()
            if "=" in argv[0]:
                os.environ.update([argv.pop(0).split("=", 1)])
            got[command] = list(run(argv + ["--spec", spec]))
            os.environ.pop("APSEQ_HORIZON_CAP", None)
    finally:
        if saved is not None:
            os.environ["APSEQ_HORIZON_CAP"] = saved
    return got


def test_metric_output_matches_its_golden_file(tmp_path):
    want = json.loads(METRICS_FILE.read_text(encoding="utf-8"))
    got = metrics_matrix(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    # re-records the golden files: PYTHONPATH=src python tests/test_cli.py
    import tempfile
    with tempfile.TemporaryDirectory() as folder:
        GOLDEN_FILE.parent.mkdir(exist_ok=True)
        GOLDEN_FILE.write_text(json.dumps(cli_matrix(folder), indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        METRICS_FILE.write_text(json.dumps(metrics_matrix(folder), indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
