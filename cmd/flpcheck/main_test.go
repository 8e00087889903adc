package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
)

// TestConformanceReplaysFixture runs the documented replay of one
// committed corpus fixture, its three fields as flags and -n left to the
// gen: name, through main, and checks that the one case ran and that
// every engine agreed on it.
func TestConformanceReplaysFixture(t *testing.T) {
	fx, err := enginetest.LoadFixture(filepath.Join("..", "..", "testdata", "protogen", "table-001.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"flpcheck", "-conformance", "-protocol", fx.Name,
		"-inputs", fx.Inputs, "-budget", strconv.Itoa(fx.MaxConfigs)}
	out := captureStdout(t, main)
	for _, want := range []string{
		"\n  inputs " + fx.Inputs + ": all engines agree\n",
		"byte-identical results at budget " + strconv.Itoa(fx.MaxConfigs) + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}
	if c := strings.Count(out, "all engines agree"); c != 1 {
		t.Errorf("replay checked %d cases, want the fixture's one:\n%s", c, out)
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	f()
	w.Close()
	return <-read
}
