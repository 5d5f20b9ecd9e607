package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advice"
	"repro/internal/graph"
	"repro/internal/view"
)

// TestRunRejectsDamagedAdvice: an advice file with a stray byte is an
// error naming the advice, returned before any socket is opened, not a
// panic.
func TestRunRejectsDamagedAdvice(t *testing.T) {
	dir := t.TempDir()
	g := graph.Lollipop(4, 3)
	graphPath := filepath.Join(dir, "g.bin")
	if err := graph.SaveBinaryFile(g, graphPath); err != nil {
		t.Fatal(err)
	}
	a, err := advice.NewOracle(view.NewTable()).ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	text := a.Encode().String()
	for name, damaged := range map[string]string{
		"stray byte": text[:len(text)/2] + "x" + text[len(text)/2:],
		"non-ASCII":  "0011é0111",
		"truncated":  text[:len(text)-1],
		"words":      "hello",
	} {
		advPath := filepath.Join(dir, "advice.txt")
		if err := os.WriteFile(advPath, []byte(damaged), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(0, 2, 0, graphPath, advPath, "tcp", "127.0.0.1:1", "127.0.0.1:1,127.0.0.1:1", "", 0, "", 0, 0)
		if err == nil || !strings.Contains(err.Error(), "decode advice") {
			t.Errorf("%s: run returned %v, want a decode advice error", name, err)
		}
	}
}
