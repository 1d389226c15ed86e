package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ccai/internal/bench"
)

// TestOnlySelectsFromTheList pins the CLI as a loop over
// bench.Experiments: -only <name> prints exactly that experiment, no
// -only prints all of them in list order, "soak" prints none, and a
// name outside the list is an error rather than silence.
func TestOnlySelectsFromTheList(t *testing.T) {
	var all bytes.Buffer
	for _, e := range bench.Experiments("../..") {
		want, err := e.Run(bench.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := runExperiments(&got, strings.ToUpper(e.Name), "../.."); err != nil {
			t.Fatal(err)
		}
		if got.String() != want+"\n" {
			t.Errorf("-only %s printed %q, want %q", e.Name, got.String(), want+"\n")
		}
		all.Write(got.Bytes())
	}
	var got bytes.Buffer
	if err := runExperiments(&got, "", "../.."); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), all.Bytes()) {
		t.Error("a run without -only is not the experiments in list order")
	}
	got.Reset()
	if err := runExperiments(&got, "soak", "../.."); err != nil || got.Len() != 0 {
		t.Errorf("-only soak printed %d bytes, err %v; want nothing", got.Len(), err)
	}
	if err := runExperiments(&got, "micro", "../.."); err == nil {
		t.Error("the removed micro experiment was accepted")
	}
}

// TestCommittedResultsRoundTrip pins BENCH_results.json to what the CLI
// writes: a tool tag and the soak scorecards, nothing else, so a
// -soak run that changes no scorecard rewrites the file byte-for-byte.
func TestCommittedResultsRoundTrip(t *testing.T) {
	const path = "../../BENCH_results.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := t.TempDir() + "/BENCH_results.json"
	if err := writeDoc(rewritten, readDoc(path)); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(rewritten); !bytes.Equal(got, want) {
		t.Error("BENCH_results.json holds more than the tool tag and soak scorecards")
	}
}
