package main

import "testing"

// TestExperimentsRun executes every experiment section end to end, the
// code path the command itself runs; any row that prints FAIL fails it.
func TestExperimentsRun(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnly(t *testing.T) {
	if err := run([]string{"-only", "E1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-only", "e13"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
}
