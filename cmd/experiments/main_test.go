package main

import (
	"bytes"
	"strings"
	"testing"
)

// tinyArgs keeps CLI tests fast: fig3/fig4 only measure the data-mapping
// stage, no online training.
func tinyArgs(extra ...string) []string {
	return append([]string{
		"-run", "fig3,fig4", "-jobs", "300", "-scale", "tiny", "-q",
	}, extra...)
}

func TestRunAllFiguresSucceed(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(tinyArgs(), &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
	}
	for _, id := range []string{"fig3", "fig4"} {
		if !strings.Contains(out.String(), "== "+id+":") {
			t.Fatalf("report lacks %s section:\n%s", id, out.String())
		}
	}
}

// TestRunDegradesOnInjectedPanic is the acceptance check for graceful
// degradation: with fig3 forced to panic via fault injection, the run
// still emits fig4's report section and exits nonzero.
func TestRunDegradesOnInjectedPanic(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(tinyArgs("-inject", "fig3=panic"), &out, &errb)
	if code == 0 {
		t.Fatal("exit 0 despite a failed figure")
	}
	if !strings.Contains(out.String(), "== fig3: FAILED ==") {
		t.Fatalf("report does not mark fig3 failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "== fig4:") {
		t.Fatalf("surviving figure fig4 missing from report:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "fig3") {
		t.Fatalf("stderr does not name the failed figure:\n%s", errb.String())
	}
}

func TestRunDegradesOnInjectedError(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(tinyArgs("-inject", "fig4=error"), &out, &errb)
	if code == 0 {
		t.Fatal("exit 0 despite a failed figure")
	}
	if !strings.Contains(out.String(), "== fig4: FAILED ==") {
		t.Fatalf("report does not mark fig4 failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "== fig3:") {
		t.Fatalf("surviving figure fig3 missing from report:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(tinyArgs("-inject", "fig3"), &out, &errb); code != 2 {
		t.Fatalf("malformed -inject: exit %d", code)
	}
	if code := run(tinyArgs("-inject", "nope=error"), &out, &errb); code != 2 {
		t.Fatalf("unknown -inject id: exit %d", code)
	}
	if code := run([]string{"-scale", "huge"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scale: exit %d", code)
	}
	if !strings.Contains(errb.String(), "valid ids are:") {
		t.Fatalf("unknown-id error does not list valid ids:\n%s", errb.String())
	}
}

// TestRunTimeoutFailsSlowFigure gives every figure that replays the
// trace online — PRIONN against RF (fig8), the power extension's PRIONN
// and RF (ext-power), and the cold-start ablation (ablate-warm) — a
// deadline it cannot meet, and asserts the run reports each one failed
// and exits nonzero instead of hanging or reporting a late success.
func TestRunTimeoutFailsSlowFigure(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "fig8,ext-power,ablate-warm", "-jobs", "400", "-scale", "tiny", "-q", "-timeout", "1ns"}, &out, &errb)
	if code == 0 {
		t.Fatal("exit 0 despite a deadline failure")
	}
	for _, id := range []string{"fig8", "ext-power", "ablate-warm"} {
		if !strings.Contains(out.String(), "== "+id+": FAILED ==") {
			t.Errorf("report does not mark %s failed:\n%s", id, out.String())
		}
	}
}
