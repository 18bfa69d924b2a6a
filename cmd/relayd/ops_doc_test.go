package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// opsDocPath locates docs/RELAY-OPS.md relative to this package directory.
const opsDocPath = "../../docs/RELAY-OPS.md"

// parseFlagTable extracts `-flag` -> default pairs from the table under
// RELAY-OPS.md's "## Flags" heading, with the default cell's backticks
// stripped.
func parseFlagTable(t *testing.T, doc string) map[string]string {
	t.Helper()
	_, after, found := strings.Cut(doc, "\n## Flags\n")
	if !found {
		t.Fatal("RELAY-OPS.md: heading \"## Flags\" missing")
	}
	row := regexp.MustCompile("^\\|\\s*`-([a-z-]+)`\\s*\\|\\s*([^|]*?)\\s*\\|")
	rows := map[string]string{}
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		line = strings.TrimSpace(line)
		m := row.FindStringSubmatch(line)
		if m == nil {
			if inTable && !strings.HasPrefix(line, "|") {
				break // table ended
			}
			continue
		}
		inTable = true
		if _, dup := rows[m[1]]; dup {
			t.Errorf("RELAY-OPS.md documents -%s twice", m[1])
		}
		rows[m[1]] = strings.Trim(m[2], "`")
	}
	if len(rows) == 0 {
		t.Fatal("RELAY-OPS.md: no flag rows under \"## Flags\"")
	}
	return rows
}

// sameDefault reports whether a documented default reads as the flag's
// own: literally, "*(empty)*" for an empty string, or the same duration
// ("5m" for 5m0s, "0" for 0s).
func sameDefault(doc, def string) bool {
	if doc == def || (doc == "*(empty)*" && def == "") {
		return true
	}
	dd, err1 := time.ParseDuration(doc)
	fd, err2 := time.ParseDuration(def)
	return err1 == nil && err2 == nil && dd == fd
}

// TestOpsDocFlagTable keeps RELAY-OPS.md's flag table honest in both
// directions: every row names a flag relayd defines, with the default
// relayd actually uses, and every flag relayd defines has a row.
func TestOpsDocFlagTable(t *testing.T) {
	raw, err := os.ReadFile(opsDocPath)
	if err != nil {
		t.Fatalf("operator guide missing: %v", err)
	}
	rows := parseFlagTable(t, string(raw))
	fs := flagSet(&options{})
	fs.VisitAll(func(f *flag.Flag) {
		doc, ok := rows[f.Name]
		if !ok {
			t.Errorf("-%s (default %q) has no row in RELAY-OPS.md", f.Name, f.DefValue)
			return
		}
		if !sameDefault(doc, f.DefValue) {
			t.Errorf("-%s: RELAY-OPS.md says default %q, relayd uses %q", f.Name, doc, f.DefValue)
		}
	})
	for name := range rows {
		if fs.Lookup(name) == nil {
			t.Errorf("RELAY-OPS.md documents -%s, which relayd does not define", name)
		}
	}
}
