package main

import (
	"io"
	"strings"
	"testing"
)

// TestClaims asserts every row of the claims table, one subtest per row:
// the measurement must show the expected value or order.
func TestClaims(t *testing.T) {
	for _, c := range claims() {
		t.Run(c.id, func(t *testing.T) {
			got, ok, err := c.check()
			if err != nil || !ok {
				t.Errorf("%s (%s): measured %s, want %s", c.text, c.ref, got, c.want)
			}
		})
	}
}

// TestRunNamesFailedRows checks that run reports every failed row, an
// exact mismatch and a broken order alike, and passes a clean table.
func TestRunNamesFailedRows(t *testing.T) {
	val := func(v any) func() (any, error) { return func() (any, error) { return v, nil } }
	table := []claim{
		{id: "X.a", measure: val("1/2"), want: "1/2"},
		{id: "X.b", measure: val("1/2"), want: "1/3"},
		{id: "X.c", measure: val(seq{2, 1}), want: "a > b"},
		{id: "X.d", measure: val(seq{2, 1}), want: "a < b"},
		{id: "X.e", measure: val(seq{2, 2, 3}), want: "a = b < c"},
	}
	err := run(io.Discard, table)
	if err == nil || !strings.HasSuffix(err.Error(), ": X.b, X.d") {
		t.Fatalf("run = %v, want X.b and X.d named", err)
	}
	if err := run(io.Discard, table[:1]); err != nil {
		t.Fatal(err)
	}
}
