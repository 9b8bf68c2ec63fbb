package integration

// The reproduction referee: icexp's stdout at a small scale, with every
// table, ablation and extension, is pinned byte for byte. A perf or
// deletion change that moves any printed number fails here. After a
// deliberate change to the output, regenerate the file with
//
//	go test ./integration -run TestReproductionGolden -update

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reproduction file from the current icexp output")

const goldenReproduction = "testdata/reproduce-0.05.golden"

// icexpStdout runs icexp and returns its stdout alone: progress and
// timing lines go to stderr and are not part of the referee.
func icexpStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := toolCmd(t, "icexp", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("icexp %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

func TestReproductionGolden(t *testing.T) {
	args := []string{"-scale", "0.05", "-ablations", "-extensions"}
	got := icexpStdout(t, args...)
	if *update {
		if err := os.WriteFile(goldenReproduction, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenReproduction)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("icexp %v differs from %s (first difference at line %d); rerun with -update only if the change is deliberate",
			args, goldenReproduction, firstDiffLine(got, want))
	}
	// The parallel engine and the strictly serial one print the same bytes.
	serial := icexpStdout(t, append(args, "-workers", "1")...)
	if !bytes.Equal(serial, got) {
		t.Errorf("icexp -workers 1 differs from the default worker count (first difference at line %d)",
			firstDiffLine(serial, got))
	}
}

// firstDiffLine returns the 1-based line number of the first line on
// which a and b differ.
func firstDiffLine(a, b []byte) int {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return i + 1
		}
	}
	return len(al) + 1
}
