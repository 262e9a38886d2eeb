"""Job file parsing, command dispatch, and output stability."""
from __future__ import annotations

import random

import pytest

from dormant import cartier, cli
from dormant.cli import ConnBlock, JobSpec, main, parse_job, run_job
from dormant.cartier import pretango_from_tango
from dormant.connections import (
    LogConnection,
    omega_label,
    omega_log_label,
    trivial_label,
)
from dormant.curves import INF, P1Marked, RaynaudPlane
from dormant.errors import SemanticError, SyntaxError
from dormant.field import PrimeField
from dormant.miura import CartanConnection, exponent_of, miura_from_cartan

PRETANGO_P3 = (
    "cmd=pretango\n"
    "p=3\n"
    "p1 p=3 marks=0,1,inf\n"
    "conn rank=1 bundle=omega_log\n"
    "1 1 / 0 2 1\n"
)

GTC_32 = (
    "raynaud p=3 l=2\n"
    "N=3\n"
    "f 2 / 0 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 2 / 0 0 0 0 0 1\n"
)

OPER_P3 = (
    "cmd=miura\n"
    "action=exponent\n"
    "p1 p=3 marks=0,1,inf\n"
    "conn rank=2 bundle=omega_log\n"
    "0 / 1\n"
    "0 / 1\n"
    "1 / 1\n"
    "0 / 1\n"
    "special=true\n"
)

_OPTION_ORDER = ("action", "monodromy", "pretango", "height", "N", "mode", "threads")


def _curve_line(curve) -> str:
    if curve.model == "p1":
        marks = ",".join("inf" if m == INF else str(m) for m in curve.marks)
        return f"p1 p={curve.field.p} marks={marks}"
    if curve.model == "ell":
        return f"ell p={curve.field.p} a={curve.a} b={curve.b}"
    return f"raynaud p={curve.field.p} l={curve.l}"


def render_job(spec: JobSpec) -> str:
    """Canonical text of a JobSpec; parse(render(s)) recovers s.  The parser
    fuzz's printer: a job that parses prints to a fixed point."""
    lines = []
    if spec.command is not None:
        lines.append(f"cmd={spec.command}")
    lines.append(f"p={spec.p}")
    lines.append(_curve_line(spec.curve))
    for key in _OPTION_ORDER:
        if key not in spec.options:
            continue
        val = spec.options[key]
        if key == "monodromy":
            val = ",".join(str(v) for v in val)
        elif key == "pretango":
            val = "true" if val else "false"
        lines.append(f"{key}={val}")
    for block in spec.blocks:
        if isinstance(block, ConnBlock):
            lines.append(f"conn rank={block.rank} bundle={block.bundle}")
            for row in block.matrix:
                for cell in row:
                    lines.append(cell.render())
            if block.special:
                lines.append("special=true")
        else:
            lines.append(f"{block.kind} {block.value.render()}")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_minimal_job(self):
        spec = parse_job("p=5\nell p=5 a=1 b=1\nconn rank=1 bundle=triv\n0 / 1\n")
        assert spec.p == 5
        assert spec.curve.model == "ell"
        assert len(spec.blocks) == 1
        assert spec.blocks[0].rank == 1

    def test_empty_file(self):
        with pytest.raises(SyntaxError):
            parse_job("")

    def test_comment_only_file(self):
        with pytest.raises(SyntaxError):
            parse_job("# nothing here\n\n# still nothing\n")

    def test_duplicate_marks(self):
        with pytest.raises(SemanticError):
            parse_job("p1 p=5 marks=0,0,inf\n")

    def test_composite_p(self):
        with pytest.raises(SemanticError, match="not prime"):
            parse_job("p=4\np1 p=4 marks=0,1,inf\n")

    def test_p_mismatch(self):
        with pytest.raises(SemanticError, match="disagrees"):
            parse_job("p=5\np1 p=3 marks=0,1,inf\n")

    def test_unknown_command(self):
        with pytest.raises(SemanticError, match="unknown command"):
            parse_job("cmd=explode\np1 p=3 marks=0,1,inf\n")

    def test_unterminated_block(self):
        with pytest.raises(SyntaxError, match="unterminated"):
            parse_job("p1 p=3 marks=0,1,inf\nconn rank=2 bundle=triv\n1 / 1\n")

    def test_block_before_curve(self):
        with pytest.raises(SyntaxError, match="before the curve"):
            parse_job("conn rank=1 bundle=triv\n1 / 1\n")

    def test_missing_curve(self):
        with pytest.raises(SyntaxError, match="missing curve"):
            parse_job("cmd=selftest\np=3\n")

    def test_error_carries_line_number(self):
        try:
            parse_job("p=3\np1 p=3 marks=0,1,inf\nwat\n")
        except SyntaxError as err:
            assert err.line == 3
        else:
            raise AssertionError("expected SyntaxError")

    def test_zero_denominator(self):
        with pytest.raises(SemanticError):
            parse_job("p1 p=3 marks=0,1,inf\nform 1 / 0\n")

    def test_too_many_components(self):
        with pytest.raises(SemanticError, match="components"):
            parse_job("p1 p=3 marks=0,1,inf\nform 1 ; 2\n")

    def test_bytes_input(self):
        spec = parse_job(PRETANGO_P3.encode("utf-8"))
        assert spec.command == "pretango"

    def test_invalid_utf8(self):
        with pytest.raises(SyntaxError, match="UTF-8"):
            parse_job(b"\xff\xfe\x00")

    def test_comments_and_blanks_ignored(self):
        text = PRETANGO_P3.replace(
            "conn rank=1 bundle=omega_log\n",
            "# payload follows\n\nconn rank=1 bundle=omega_log\n\n",
        )
        assert render_job(parse_job(text)) == render_job(parse_job(PRETANGO_P3))

    def test_special_needs_conn(self):
        with pytest.raises(SyntaxError, match="special"):
            parse_job("p1 p=3 marks=0,1,inf\nspecial=true\n")


class TestRender:
    def test_round_trip_fixed_point(self):
        for text in (PRETANGO_P3, "cmd=raynaud\naction=build\n" + GTC_32, OPER_P3):
            once = render_job(parse_job(text))
            assert render_job(parse_job(once)) == once

    def test_residues_normalize(self):
        # 7 = 2 in F_5, and the fraction cancels down to 1/x
        spec = parse_job("p1 p=5 marks=0,1,inf\nconn rank=1\n7 1 / 0 2 1\n")
        assert "1 / 0 1" in render_job(spec)

    def test_canonical_option_order(self):
        spec = parse_job(
            "mode=machine\ncmd=enumerate\np1 p=3 marks=0,1,inf\nmonodromy=1,1,1\n"
        )
        out = render_job(spec)
        assert out.index("monodromy=") < out.index("mode=machine")

    def test_inf_mark_survives(self):
        out = render_job(parse_job("p1 p=7 marks=0,1,inf\n"))
        assert "marks=0,1,inf" in out

    def test_ell_curve_and_pretango_option_round_trip(self):
        once = render_job(parse_job("cmd=enumerate\npretango=true\nell p=5 a=1 b=2\n"))
        assert once == "cmd=enumerate\np=5\nell p=5 a=1 b=2\npretango=true\n"
        assert render_job(parse_job(once)) == once


class TestRefusals:
    """Each refusal of the parser, its text and exit code 2 through main.

    The parametrized pins are the parser's messages on the job text main
    assembles: first cmd= and one line per option flag, then the user's
    text.  main numbers from the user's first line, and puts an error on
    a flag's own line on the command line.
    """

    LINE = "p1 p=3 marks=0,1,inf"

    @pytest.mark.parametrize("argv, err", [
        (["pcurv", "p1 p=3 p=3 marks=0,1,inf"], "line 2: duplicate key 'p'"),
        (["pcurv", "ell p=5 a=1"], "line 2: ell needs b=<int>"),
        (["tango-search", "--height", "1", "height=2\nell p=5 a=1 b=2"],
         "line 3: duplicate option 'height'"),
        (["enumerate", "--monodromy", ",", LINE], "line 2: monodromy= needs a,b,..."),
        (["enumerate", "pretango=maybe\n" + LINE],
         "line 2: pretango= must be true or false"),
        (["pcurv", "mode=fast\n" + LINE], "line 2: mode must be human or machine"),
        (["pcurv", LINE + "\nell p=3 a=1 b=1"], "line 3: second curve line"),
        (["pcurv", LINE + "\nconn rank=0"], "line 3: rank must be positive"),
        (["pcurv", "cmd=pcurv\n" + LINE], "line 2: second cmd= line"),
        (["pcurv", "p=3\np=3\n" + LINE], "line 3: second p= line"),
        (["pcurv", "p1 p=2 marks=0,1,inf"],
         "line 2: p must be an odd prime in [3, 2^31), got 2"),
        (["pcurv", "p=2\np1 p=2 marks=0,1,inf"],
         "line 3: p must be an odd prime in [3, 2^31), got 2"),
        (["cartier", "p1 p=2147483659 marks=0,1,inf\nform 1"],
         "line 2: p must be an odd prime in [3, 2^31), got 2147483659"),
    ])
    def test_refusal_text_and_exit_code(self, argv, err, capsys):
        flags = 1 + sum(a.startswith("--") for a in argv)
        n, rest = err[len("line "):].split(": ", 1)
        shown = f"line {int(n) - flags}" if int(n) > flags else "command line"
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {shown}: {rest}\n")

    @pytest.mark.parametrize("argv, err", [
        (["pcurv", "p1 p=2 marks=0,1,inf"],
         "line 1: p must be an odd prime in [3, 2^31), got 2"),
        (["--machine", "pcurv", "p1 p=2 marks=0,1,inf"],
         "line 1: p must be an odd prime in [3, 2^31), got 2"),
        (["--machine", "tango-search", "--height", "1", "height=2\nell p=5 a=1 b=2"],
         "line 1: duplicate option 'height'"),
        (["enumerate", "--monodromy", ",", LINE], "command line: monodromy= needs a,b,..."),
    ], ids=["plain", "machine", "machine-flag", "flag-value"])
    def test_lines_count_from_the_users_text(self, argv, err, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_a_job_file_keeps_its_own_numbering(self, tmp_path, capsys):
        job = tmp_path / "job.txt"
        job.write_text("cmd=pcurv\n\n" + self.LINE + "\nconn rank=0\n")
        for argv in (["run", str(job)], ["--machine", "run", str(job)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: line 4: rank must be positive\n"

    def test_job_text_expected(self):
        # main always hands parse_job a str; only a direct call reaches this
        with pytest.raises(SyntaxError, match="^line 1: job text expected$"):
            parse_job(None)


class TestFuzz:
    def test_parser_totality_random_bytes(self):
        rng = random.Random(0)
        for _ in range(10000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
            try:
                parse_job(blob)
            except (SyntaxError, SemanticError):
                pass
            # anything else propagates and fails the test

    def test_parser_totality_mutated_jobs(self):
        rng = random.Random(1)
        seeds = (PRETANGO_P3, "cmd=raynaud\naction=validate\n" + GTC_32, OPER_P3)
        chars = "abcdefxyz0123456789=,;/# .-\n"
        parsed = 0
        for _ in range(2000):
            t = list(rng.choice(seeds))
            for _ in range(rng.randrange(1, 6)):
                pos = rng.randrange(len(t))
                op = rng.randrange(3)
                if op == 0:
                    t[pos] = rng.choice(chars)
                elif op == 1:
                    t.insert(pos, rng.choice(chars))
                else:
                    t.pop(pos)
            try:
                spec = parse_job("".join(t))
            except (SyntaxError, SemanticError):
                continue
            parsed += 1
            once = render_job(spec)
            assert render_job(parse_job(once)) == once
        assert parsed > 50


class TestRunJob:
    def test_pretango_yes(self):
        text, code = run_job(parse_job(PRETANGO_P3))
        assert code == 0
        assert text.splitlines()[0] == "yes"

    def test_pretango_witness_line(self):
        text, _ = run_job(parse_job(PRETANGO_P3))
        assert "witness f = 0 1 / 1" in text

    @pytest.mark.parametrize("u, out", [
        ("xy+1", "pretango yes=true\nwitness f = "),
        ("y+1", "pretango yes=false\nobstruction: nonzero Cartier image on the horizontal line"),
    ])
    def test_pretango_formal_certificate_on_raynaud(self, u, out):
        # the monomial search misses the generator u of a = -dlog u, so the
        # verdict comes from the generator the p-curvature powering reads off;
        # a yes prints its witness f, and f gives the connection back
        curve = RaynaudPlane(PrimeField(3), 2)
        x, y = curve.x_elem(), curve.y_elem()
        a = -{"xy+1": x * y + 1, "y+1": y + 1}[u].dlog()
        job = ("cmd=pretango\nmode=machine\nraynaud p=3 l=2\n"
               f"conn rank=1 bundle=ray_omega\n{a.render()}\n")
        text, code = run_job(parse_job(job))
        assert code == 0
        if u == "y+1":
            assert text == out
            return
        first, second = text.split("\n")
        assert first == "pretango yes=true"
        assert second.startswith("witness f = ")
        f = cli._parse_elem(curve, second[len("witness f = "):], 0)
        assert pretango_from_tango(omega_label(curve), f).scalar() == a

    def test_pretango_on_nonflat_is_domain_failure(self):
        job = (
            "cmd=pretango\nell p=5 a=3 b=0\n"
            "conn rank=1 bundle=omega_ell\n0 / 1 ; 0 0 1\n"
        )
        text, code = run_job(parse_job(job))
        assert code == 1
        assert text.startswith("error:")

    def test_elliptic_pretango_yes(self):
        job = (
            "cmd=pretango\nell p=5 a=3 b=0\n"
            "conn rank=1 bundle=omega_ell\n0 / 1 ; 1 / 0 3 0 1\n"
        )
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.splitlines()[0] == "yes"

    def test_canonical_elliptic_is_not_pretango(self):
        job = "cmd=pretango\nell p=5 a=3 b=0\nconn rank=1 bundle=omega_ell\n0 / 1\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.splitlines()[0] == "no"

    def test_pcurv_flat(self):
        job = PRETANGO_P3.replace("cmd=pretango", "cmd=pcurv")
        text, code = run_job(parse_job(job))
        assert code == 0
        assert "zero" in text

    def test_pcurv_machine_rows(self):
        job = (
            "cmd=pcurv\nmode=machine\nell p=5 a=3 b=0\n"
            "conn rank=1 bundle=triv\n2 / 1\n"
        )
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.splitlines()[0] == "pcurv rank=1 zero=false"

    def test_cartier_power_rule(self):
        job = "cmd=cartier\nmode=machine\np1 p=5 marks=0,1,inf\nform 0 0 0 0 1 / 1\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text == "cartier exact=false\n1 / 1"

    def test_cartier_exact_form(self):
        job = "cmd=cartier\nmode=machine\np1 p=5 marks=0,1,inf\nform 0 0 0 1 / 1\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text == "cartier exact=true\n0 / 1"

    def test_enumerate_machine_block(self):
        job = "cmd=enumerate\nmode=machine\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text == "flat=1 pretango=1 admissible=true formula=0"

    def test_enumerate_human_render(self):
        job = "cmd=enumerate\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert "admissible true" in text
        assert "pretango   1" in text

    def test_enumerate_elliptic_counts(self):
        job = "cmd=enumerate\nmode=machine\nell p=5 a=3 b=0\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.startswith("flat=5 pretango=4")

    def test_tango_certify_frozen_certificate(self):
        job = (
            "cmd=tango-certify\nraynaud p=5 l=1\n"
            "f 4 / 0 0 0 0 0 1 ; 0 / 1 ; 0 / 1 ; 4 / 0 0 0 0 1\n"
        )
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.splitlines() == ["value 2", "exact true", "Pinf 10"]

    def test_tango_certify_rejects_pth_power(self):
        job = "cmd=tango-certify\nraynaud p=5 l=1\nf 0 0 0 0 0 1 / 1\n"
        text, code = run_job(parse_job(job))
        assert code == 1
        assert text.startswith("error:")

    def test_tango_search_reaches_bound(self):
        job = "cmd=tango-search\nheight=1\nmode=machine\nraynaud p=3 l=2\n"
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text.startswith("search best=6 ")

    def test_miura_serialization_round_trip(self):
        job = PRETANGO_P3.replace("cmd=pretango", "cmd=miura\naction=from-pretango")
        spec = parse_job(job + "mode=machine\n")
        block, code = run_job(spec)
        assert code == 0
        reload = "cmd=miura\naction=exponent\np1 p=3 marks=0,1,inf\n" + block + "\n"
        text, code = run_job(parse_job(reload))
        assert code == 0
        assert text.splitlines() == ["0 [0, 1]", "1 [0, 1]", "inf [0, 2]"]

    def test_miura_dormant_verdict(self):
        text, code = run_job(parse_job(OPER_P3.replace("exponent", "dormant")))
        assert code == 0
        assert text == "yes"

    def test_miura_oper_needs_special_flag(self):
        text, code = run_job(parse_job(OPER_P3.replace("special=true\n", "")))
        assert code == 2
        assert "special" in text

    def test_raynaud_build_frozen_transition(self):
        job = "cmd=raynaud\naction=build\n" + GTC_32
        text, code = run_job(parse_job(job))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "surface over raynaud 3 2"
        assert lines[1] == "fiber: y^2 z = x^3 + F*(t_alpha) z^3"
        assert "u_01 = 0 0 0 1 / 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 0 / 1" in lines
        assert "r_01 = 1 / 0 0 1 ; 0 / 1 ; 0 / 1 ; 0 / 1 ; 0 / 1" in lines

    def test_raynaud_validate_passes(self):
        job = "cmd=raynaud\naction=validate\n" + GTC_32
        text, code = run_job(parse_job(job))
        assert code == 0
        assert text == "cocycle ok"

    def test_raynaud_wrong_degree_is_domain_failure(self):
        job = "cmd=raynaud\naction=build\n" + GTC_32.replace("N=3", "N=2")
        text, code = run_job(parse_job(job))
        assert code == 1
        assert text.startswith("error:")

    def test_selftest_all_green(self):
        text, code = run_job(parse_job("cmd=selftest\np1 p=3 marks=0,1,inf\n"))
        assert code == 0
        assert text.splitlines()[-1] == "passed=6 failed=0"
        assert all(l.startswith("ok ") for l in text.splitlines()[:-1])

    def test_missing_command(self):
        text, code = run_job(parse_job("p1 p=3 marks=0,1,inf\n"))
        assert code == 2

    def test_undeclared_pole_is_input_error(self):
        # 1/(x - 2) has its pole off the mark frame
        job = PRETANGO_P3.replace("1 1 / 0 2 1", "1 / 1 1")
        text, code = run_job(parse_job(job))
        assert code in (1, 2)
        assert text.startswith("error:")


class TestDeterminism:
    def test_machine_output_is_stable(self):
        jobs = (
            "cmd=enumerate\nmode=machine\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n",
            "cmd=raynaud\naction=build\n" + GTC_32,
            "cmd=pretango\nmode=machine\n" + PRETANGO_P3.split("\n", 1)[1],
        )
        for job in jobs:
            first = run_job(parse_job(job))
            for _ in range(3):
                assert run_job(parse_job(job)) == first

    def test_threads_option_does_not_change_output(self):
        base = "cmd=enumerate\nmode=machine\nmonodromy=4,4,1\np1 p=5 marks=0,1,inf\n"
        capped = base + "threads=8\n"
        assert run_job(parse_job(base))[0] == run_job(parse_job(capped))[0]


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "job.txt"
        path.write_text(PRETANGO_P3, encoding="utf-8")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes"

    def test_inline_job_text(self, capsys):
        code = main(["pretango", PRETANGO_P3.split("\n", 1)[1]])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes"

    def test_machine_flag_injection(self, capsys):
        code = main([
            "--machine", "enumerate", "--monodromy", "4,4,1",
            "p1 p=5 marks=0,1,inf",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "flat=1 pretango=1 admissible=true formula=0"

    def test_selftest_needs_no_input(self, capsys):
        assert main(["selftest"]) == 0
        assert "failed=0" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["run", "/nonexistent/job.txt"]) == 2

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert main(["run", str(path)]) == 2

    def test_domain_failure_exit(self, capsys):
        code = main([
            "raynaud", "build",
            GTC_32.replace("N=3", "N=2"),
        ])
        assert code == 1

    def test_miura_action_flows_through(self, tmp_path, capsys):
        path = tmp_path / "oper.txt"
        path.write_text(OPER_P3.split("\n", 2)[2], encoding="utf-8")
        assert main(["miura", "dormant", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestPretangoOnce:
    @pytest.mark.parametrize("job, first", [
        (PRETANGO_P3, "yes"),
        ("cmd=pretango\nell p=5 a=3 b=0\nconn rank=1 bundle=omega_ell\n"
         "0 / 1 ; 1 / 0 3 0 1\n", "yes"),
        ("cmd=pretango\nell p=5 a=3 b=0\nconn rank=1 bundle=omega_ell\n0 / 1\n", "no"),
    ], ids=["generator", "formal", "obstructed"])
    def test_one_horizontal_cartier_step_per_job(self, monkeypatch, job, first):
        steps, scans = [], []
        step, scan = cartier._horizontal_cartier, cartier.solve_dlog
        monkeypatch.setattr(cartier, "_horizontal_cartier",
                            lambda conn: steps.append(conn) or step(conn))
        monkeypatch.setattr(cartier, "solve_dlog",
                            lambda *a: scans.append(a) or scan(*a))
        spec = parse_job(job)
        text, code = run_job(spec)
        assert code == 0 and text.splitlines()[0] == first
        # on the line the generator is the one p_curvature read off the
        # pole table, so the step solves nothing
        assert len(steps) == 1
        assert len(scans) == (spec.curve.model != "p1")

    def test_missed_generator_prints_a_witness(self):
        # w/y on this ordinary curve has no monomial generator; the witness
        # f printed for it gives the job's connection back
        job = ("cmd=pretango\nell p=5 a=3 b=0\nconn rank=1 bundle=omega_ell\n"
               "0 / 1 ; 1 / 0 3 0 1\n")
        spec = parse_job(job)
        first, second = run_job(spec)[0].split("\n")
        assert first == "yes" and second.startswith("witness f = ")
        conn = cli._connection(spec, rank=1)
        f = cli._parse_elem(spec.curve, second[len("witness f = "):], 0)
        assert pretango_from_tango(conn.label, f).scalar() == conn.scalar()


_ACTIONS = {"miura": ("from-pretango", "exponent", "dormant"),
            "raynaud": ("build", "validate")}
_READS = {"miura": ("action",), "raynaud": ("action", "N"), "tango-search": ("height",),
          "enumerate": ("monodromy", "pretango")}
_BLOCK = {"pcurv": "conn", "pretango": "conn", "miura": "conn", "cartier": "form",
          "tango-certify": "f", "raynaud": "f"}


def _grammar_job(rng):
    """A job drawn from the job grammar: an optional command, one curve line
    at p in {3, 5, 7}, options, rank 1-2 conn blocks under every bundle
    name, payloads with '/' and ';', special= lines and value blocks."""
    p = rng.choice((3, 5, 7))
    l = 2 if p == 3 else 1
    points = [str(rng.randrange(2 * p)) for _ in range(4)] + ["inf"]
    curve, d = rng.choice((
        (f"p1 p={p} marks={','.join(rng.sample(points, rng.randint(2, 4)))}", 1),
        (f"ell p={p} a={rng.randrange(p)} b={rng.randrange(p)}", 2),
        (f"raynaud p={p} l={l}", l * p - 1),
    ))

    def payload():
        # one component too many now and then
        n = d + 1 if rng.random() < 0.05 else rng.randint(1, min(d, 3))
        comps = []
        for _ in range(n):
            num = " ".join(str(rng.randrange(-1, p + 2)) for _ in range(rng.randint(1, 4)))
            den = " ".join(str(rng.randrange(p)) for _ in range(rng.randint(1, 3)))
            comps.append(f"{num} / {den}" if rng.random() < 0.6 else num)
        return " ; ".join(comps)

    cmd = rng.choice(cli.COMMANDS)
    lines = [f"cmd={cmd}"] if rng.random() < 0.95 else []
    lines.append(curve)
    options = {
        "action": lambda: rng.choice(_ACTIONS.get(cmd, ("none",))),
        "monodromy": lambda: ",".join(str(rng.randrange(p)) for _ in range(rng.randint(1, 4))),
        "pretango": lambda: rng.choice(("true", "false")),
        "height": lambda: str(rng.randint(0, 1)),
        "N": lambda: str(rng.randint(0, 4)),
        "mode": lambda: rng.choice(("machine", "human")),
        "threads": lambda: rng.choice(("1", "8")),
    }
    # mostly the options the command reads, and now and then any others
    keys = {k for k in _READS.get(cmd, ()) if rng.random() < 0.8}
    for key in sorted(keys | set(rng.sample(sorted(options), rng.randint(0, 2)))):
        lines.append(f"{key}={options[key]()}")
    # mostly the block the command reads, and now and then any others
    kinds = [_BLOCK[cmd]] if cmd in _BLOCK and rng.random() < 0.8 else []
    for kind in kinds + rng.sample(("conn", "form", "f"), rng.randint(0, 1)):
        if kind == "conn":
            rank = rng.randint(1, 2)
            bundle = rng.choice(("triv", "omega") + cli.OMEGA_FRAMES)
            lines.append(f"conn rank={rank} bundle={bundle}")
            lines += [payload() for _ in range(rank * rank)]
            if rng.random() < 0.5:
                lines.append(f"special={rng.choice(('true', 'false'))}")
        else:
            lines.append(f"{kind} {payload()}")
    return "\n".join(lines) + "\n"


class TestGrammarFuzz:
    def test_generated_jobs_exit_with_a_code(self):
        # every job the grammar generates either fails to parse with an
        # input error, or runs to an exit code 0, 1 or 2 and raises nothing
        rng = random.Random(2)
        parsed = ran = 0
        for _ in range(1000):
            text = _grammar_job(rng)
            try:
                spec = parse_job(text)
            except (SyntaxError, SemanticError):
                continue
            parsed += 1
            report, code = run_job(spec)
            assert code in (0, 1, 2) and isinstance(report, str), text
            ran += code == 0
        assert parsed > 500 and ran > 100


# every command that reads a conn block: its head lines and the block, a
# zero rank-1 matrix or the special oper 0, 0, 1, 0
_CONN_JOBS = {
    "pcurv": ("cmd=pcurv", "conn rank=1 bundle={}\n0"),
    "pretango": ("cmd=pretango", "conn rank=1 bundle={}\n0"),
    "from-pretango": ("cmd=miura\naction=from-pretango", "conn rank=1 bundle={}\n0"),
    "exponent": ("cmd=miura\naction=exponent", "conn rank=2 bundle={}\n0\n0\n1\n0\nspecial=true"),
    "dormant": ("cmd=miura\naction=dormant", "conn rank=2 bundle={}\n0\n0\n1\n0\nspecial=true"),
}
_MODELS = {"p1": "p1 p=3 marks=0,1,inf", "ell": "ell p=5 a=1 b=2", "raynaud": "raynaud p=3 l=2"}
# each omega frame name: the model it belongs to, as the error names it
_HOMES = {"omega_log": ("p1", "the marked line"), "omega_ell": ("ell", "the elliptic model"),
          "ray_omega": ("raynaud", "the one-point model")}


def _dense(terms):
    """The coefficient line c0 c1 ... of the polynomial {degree: c}."""
    return " ".join(str(terms.get(n, 0)) for n in range(max(terms) + 1))


def _ray_witness():
    den = _dense({0: 1, 25: 1, 50: 1})
    nums = ({19: 1, 44: 1}, {13: 2}, {7: 1}, {1: 1, 26: 1}, {20: 2, 45: 2})
    return "witness f = " + " ; ".join(f"{_dense(n)} / {den}" for n in nums)


def _ray_oper():
    zero, den = " ; ".join(["0 / 1"] * 5), _dense({0: 2, 25: 1})
    a1 = " ; ".join(["0 / 1" if n is None else f"{_dense(n)} / {den}"
                     for n in ({24: 1}, None, {12: 2}, {6: 2}, None)])
    return "\n".join(["conn rank=2 bundle=ray_omega", zero, zero,
                      "1 / 1 ; " + " ; ".join(["0 / 1"] * 4), a1, "special=true"])


_NOT_OMEGA = ("error: triv does not frame the differentials", 1)
_OBSTRUCTED = ("pretango yes=false\nobstruction: nonzero Cartier image on the horizontal line", 0)
_NOT_PRETANGO = ("error: the input connection is not pre-Tango", 1)
_DORMANT = ("dormant yes=true", 0)
# what each job printed before labels carried their frame power, under triv
# and under the omega bundle of the curve's own model (named or "omega")
_ANSWERS = {
    "p1": {
        "pcurv": (("pcurv rank=1 zero=true\n0 / 1", 0),) * 2,
        "pretango": (_NOT_OMEGA, _OBSTRUCTED),
        "from-pretango": (_NOT_OMEGA, _NOT_PRETANGO),
        "exponent": (("exponent=0,0;0,0;0,0", 0), ("exponent=0,1;0,1;0,2", 0)),
        "dormant": (_DORMANT,) * 2,
    },
    "ell": {
        "pcurv": (("pcurv rank=1 zero=true\n0 / 1 ; 0 / 1", 0),) * 2,
        "pretango": (_NOT_OMEGA, _OBSTRUCTED),
        "from-pretango": (_NOT_OMEGA, _NOT_PRETANGO),
        "exponent": (("exponent=", 0),) * 2,
        "dormant": (_DORMANT,) * 2,
    },
    "raynaud": {
        "pcurv": (("pcurv rank=1 zero=true\n" + " ; ".join(["0 / 1"] * 5), 0),) * 2,
        "pretango": (_NOT_OMEGA, ("pretango yes=true\n" + _ray_witness(), 0)),
        "from-pretango": (_NOT_OMEGA, (_ray_oper(), 0)),
        "exponent": (("exponent=", 0),) * 2,
        "dormant": (_DORMANT,) * 2,
    },
}


class TestBundles:
    @pytest.mark.parametrize("bundle", ("triv", "omega") + cli.OMEGA_FRAMES)
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_every_bundle_through_every_conn_command(self, model, bundle):
        # a bundle of another model is an input error, the same one for
        # every command; every other job prints what it always printed
        home = _HOMES.get(bundle)
        for command, (head, block) in _CONN_JOBS.items():
            text = f"{head}\nmode=machine\n{_MODELS[model]}\n{block.format(bundle)}\n"
            if home and home[0] != model:
                want = (f"error: {bundle} lives on {home[1]}", 2)
            else:
                want = _ANSWERS[model][command][bundle != "triv"]
            assert run_job(parse_job(text)) == want, command

    def test_exponent_reads_a0(self):
        # the oper [[1/x, 0], [1, 0]] under omega_log: the Cartan component
        # 0 is d + dx/x, not d
        text, code = run_job(parse_job(
            "cmd=miura\naction=exponent\nmode=machine\np1 p=3 marks=0,1,inf\n"
            "conn rank=2 bundle=omega_log\n1 / 0 1\n0\n1\n0\nspecial=true\n"))
        assert (text, code) == ("exponent=1,1;0,1;2,2", 0)
        # the same oper from its Cartan pair, without the job layer: a1 = 0
        # in the coordinate frame is -dlog h = 1/x + 1/(x - 1) in the frame
        # (h dx)^-1, h = 1/(x(x - 1))
        curve = P1Marked(PrimeField(3), (0, 1, INF))
        x = curve.x_elem()
        comp0 = LogConnection(curve, [[x.inverse()]], trivial_label(curve))
        comp1 = LogConnection(curve, [[x.inverse() + (x - 1).inverse()]],
                              omega_log_label(curve).dual())
        m = miura_from_cartan(CartanConnection(curve, (comp0, comp1)))
        zero, one = curve.ff_const(0), curve.ff_const(1)
        assert m.connection.matrix == ((x.inverse(), zero), (one, zero))
        assert exponent_of(m).vectors == ((1, 1), (0, 1), (2, 2))

