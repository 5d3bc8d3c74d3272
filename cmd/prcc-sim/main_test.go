package main

import "testing"

func TestRunProtocols(t *testing.T) {
	for _, proto := range []string{"edge-indexed", "matrix", "dummy-broadcast", "naive-vector", "fifo-only"} {
		args := []string{"-topology", "ring", "-n", "4", "-protocol", proto, "-ops", "60"}
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-topology", "fig5", "-adversarial", "-ops", "50"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-topology", "ring", "-n", "6", "-ops", "80", "-noaudit"}); err != nil {
		t.Error(err)
	}
}

func TestRunChaosReconfigure(t *testing.T) {
	args := []string{"-chaos", "-topology", "ring", "-n", "6", "-ops", "150",
		"-loss", "0.02", "-dup", "0.02", "-reconfigure"}
	if err := run(args); err != nil {
		t.Errorf("run(%v): %v", args, err)
	}
}

func TestRunSharded(t *testing.T) {
	cases := [][]string{
		{"-topology", "ring", "-n", "4", "-spaces", "8", "-ops", "200"},
		{"-topology", "fig3", "-spaces", "5", "-shards", "2", "-zipf", "1.3", "-ops", "150"},
		{"-topology", "ring", "-n", "4", "-spaces", "3", "-ops", "100", "-noaudit"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown protocol", []string{"-protocol", "nope"}},
		{"unknown topology", []string{"-topology", "nope"}},
		{"bad read fraction", []string{"-reads", "3.0"}},
		{"negative ops", []string{"-ops", "-1"}},
		{"nonpositive n", []string{"-n", "0"}},
		{"positional junk", []string{"-ops", "10", "junk"}},
		{"partition without chaos", []string{"-partition", "0:2"}},
		{"loss without chaos", []string{"-loss", "0.5"}},
		{"dup without chaos", []string{"-dup", "0.5"}},
		{"crash without chaos", []string{"-crash", "1"}},
		{"heal without chaos", []string{"-heal", "1ms"}},
		{"reconfigure without chaos", []string{"-reconfigure"}},
		{"heal without partition", []string{"-chaos", "-heal", "1ms"}},
		{"malformed partition", []string{"-chaos", "-partition", "0-2", "-ops", "20"}},
		{"partition replica out of range", []string{"-chaos", "-partition", "0:99", "-ops", "20"}},
		{"crash replica out of range", []string{"-chaos", "-crash", "99", "-ops", "20"}},
		{"shards without spaces", []string{"-shards", "4"}},
		{"zipf without spaces", []string{"-zipf", "1.2"}},
		{"spaces with chaos", []string{"-spaces", "2", "-chaos", "-ops", "20"}},
		{"spaces with adversarial", []string{"-spaces", "2", "-adversarial", "-ops", "20"}},
		{"reads with spaces", []string{"-spaces", "2", "-reads", "0.5", "-ops", "20"}},
		{"negative spaces", []string{"-spaces", "-3"}},
		{"bad zipf", []string{"-spaces", "2", "-zipf", "0.5", "-ops", "20"}},
	}
	for _, tc := range cases {
		if err := run(tc.args); err == nil {
			t.Errorf("%s: run(%v) accepted", tc.name, tc.args)
		}
	}
}
