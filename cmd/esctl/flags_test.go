package main

import (
	"reflect"
	"testing"
)

// TestFlagsLeaveVerbAndOperands parses a targeted command line and
// checks the flags land on the fields they name and the verb with its
// operands is what is left over.
func TestFlagsLeaveVerbAndOperands(t *testing.T) {
	o, err := parseFlags([]string{
		"-target", "10.0.0.7:5005",
		"-local", "10.0.0.2:0",
		"set", "es.tuner.channel", "239.72.1.2:5004",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.target != "10.0.0.7:5005" || o.local != "10.0.0.2:0" {
		t.Errorf("parsed = target %q local %q", o.target, o.local)
	}
	if want := []string{"set", "es.tuner.channel", "239.72.1.2:5004"}; !reflect.DeepEqual(o.args, want) {
		t.Errorf("args = %q, want %q", o.args, want)
	}
}

// TestFlagDefaults pins the defaults operators rely on: no target (a
// broadcast needs none), an ephemeral local port on every interface.
func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags([]string{"broadcast", "es.override.end", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.target != "" || o.local != "0.0.0.0:0" {
		t.Errorf("defaults = target %q local %q", o.target, o.local)
	}
	if len(o.args) != 3 || o.args[0] != "broadcast" {
		t.Errorf("args = %q", o.args)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
