package main

import "testing"

// TestFlagsSelectExperiment parses a smoke-test command line and checks
// the values land on the fields they name.
func TestFlagsSelectExperiment(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "sync", "-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (options{exp: "sync", quick: true}); *o != want {
		t.Errorf("parsed = %+v, want %+v", *o, want)
	}
	if o, err = parseFlags([]string{"-list"}); err != nil || !o.list {
		t.Errorf("-list: %+v, %v", o, err)
	}
}

// TestFlagDefaults pins the defaults: no experiment chosen (main prints
// the usage), full-size workloads.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if *o != (options{}) {
		t.Errorf("defaults = %+v, want all zero", *o)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
