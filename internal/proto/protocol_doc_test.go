package proto

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
)

// docPath locates docs/PROTOCOL.md relative to this package directory.
const docPath = "../../docs/PROTOCOL.md"

// parseCodeTable extracts `name` -> code pairs from the markdown table
// that follows the given heading.
func parseCodeTable(t *testing.T, doc, heading string) map[string]uint8 {
	t.Helper()
	_, after, found := strings.Cut(doc, heading)
	if !found {
		t.Fatalf("PROTOCOL.md: heading %q missing", heading)
	}
	row := regexp.MustCompile("^\\|\\s*`([A-Za-z]+)`\\s*\\|\\s*(\\d+)\\s*\\|")
	codes := map[string]uint8{}
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		m := row.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			if inTable && !strings.HasPrefix(strings.TrimSpace(line), "|") {
				break // table ended
			}
			continue
		}
		inTable = true
		n, err := strconv.Atoi(m[2])
		if err != nil || n > 255 {
			t.Fatalf("PROTOCOL.md %q: bad code in row %q", heading, line)
		}
		codes[m[1]] = uint8(n)
	}
	if len(codes) == 0 {
		t.Fatalf("PROTOCOL.md: no code rows under %q", heading)
	}
	return codes
}

// TestProtocolDocMatchesConstants keeps docs/PROTOCOL.md honest: the
// documented type, auth-scheme, and subscription-status codes must
// match the constants this package actually puts on the wire, in both
// directions (nothing undocumented, nothing stale), and so must the
// protocol version and the Subscribe/SubAck body sizes.
func TestProtocolDocMatchesConstants(t *testing.T) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("wire-format doc missing: %v", err)
	}
	doc := string(raw)

	check := func(heading string, want map[string]uint8) {
		t.Helper()
		got := parseCodeTable(t, doc, heading)
		if len(got) != len(want) {
			t.Errorf("%s: documented %d codes, code defines %d", heading, len(got), len(want))
		}
		for name, code := range want {
			if got[name] != code {
				t.Errorf("%s: %s documented as %d, code says %d", heading, name, got[name], code)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: documents unknown entry %q", heading, name)
			}
		}
	}

	check("### Type codes", map[string]uint8{
		"Control":   uint8(TypeControl),
		"Data":      uint8(TypeData),
		"Announce":  uint8(TypeAnnounce),
		"Subscribe": uint8(TypeSubscribe),
		"SubAck":    uint8(TypeSubAck),
		"Pause":     uint8(TypePause),
	})
	check("### Auth scheme codes", map[string]uint8{
		"None":     uint8(AuthNone),
		"HMAC":     uint8(AuthHMAC),
		"Chain":    uint8(AuthChain),
		"HORS":     uint8(AuthHORS),
		"Identity": uint8(AuthIdentity),
	})
	check("### Subscription status codes", map[string]uint8{
		"OK":        uint8(SubOK),
		"NoChannel": uint8(SubNoChannel),
		"TableFull": uint8(SubTableFull),
		"Loop":      uint8(SubLoop),
		"Redirect":  uint8(SubRedirect),
	})
	check("### Delivery profile codes", map[string]uint8{
		"Source":  uint8(codec.ProfileSource),
		"ULaw":    uint8(codec.ProfileULaw),
		"OVLHigh": uint8(codec.ProfileOVLHigh),
		"OVLLow":  uint8(codec.ProfileOVLLow),
	})
	check("### Pause state codes", map[string]uint8{
		"Resume": uint8(PauseStateResume),
		"Pause":  uint8(PauseStatePause),
	})

	// The framing constants are documented literally.
	if !strings.Contains(doc, fmt.Sprintf("0x%04X", Magic)) &&
		!strings.Contains(doc, fmt.Sprintf("0x%04x", Magic)) {
		t.Errorf("PROTOCOL.md does not state the magic 0x%04X", Magic)
	}
	if !strings.Contains(doc, fmt.Sprintf("currently `%d`", Version)) {
		t.Errorf("PROTOCOL.md does not state protocol version %d", Version)
	}

	// Each fixed body is documented twice — the size in the prose, the
	// layout in the offset table — and both must be the parser's.
	for _, body := range []struct {
		heading string
		want    int
	}{
		{"## Subscribe (type 4)", SubscribeBodyLen},
		{"## SubAck (type 5)", SubAckBodyLen},
	} {
		stated, table := parseBodyLayout(t, doc, body.heading)
		if stated != body.want || table != body.want {
			t.Errorf("%s: prose says %d bytes, table rows end at %d, the parser takes %d",
				body.heading, stated, table, body.want)
		}
	}
}

// parseBodyLayout reads one packet section's fixed body: the size its
// prose states ("exactly N bytes") and the end of the contiguous
// offset/size rows of its first table (a variable-size row such as
// "1+n" ends the fixed part).
func parseBodyLayout(t *testing.T, doc, heading string) (stated, table int) {
	t.Helper()
	_, after, found := strings.Cut(doc, heading)
	if !found {
		t.Fatalf("PROTOCOL.md: heading %q missing", heading)
	}
	if next := strings.Index(after, "\n## "); next >= 0 {
		after = after[:next]
	}
	m := regexp.MustCompile(`exactly (\d+) bytes`).FindStringSubmatch(after)
	if m == nil {
		t.Fatalf("PROTOCOL.md %q: no \"exactly N bytes\" statement", heading)
	}
	stated, _ = strconv.Atoi(m[1])
	row := regexp.MustCompile(`^\|\s*(\d+)\s*\|\s*(\d+)\s*\|`)
	for _, line := range strings.Split(after, "\n") {
		r := row.FindStringSubmatch(strings.TrimSpace(line))
		if r == nil {
			if table > 0 && !strings.HasPrefix(strings.TrimSpace(line), "|") {
				break // table ended
			}
			continue
		}
		off, _ := strconv.Atoi(r[1])
		size, _ := strconv.Atoi(r[2])
		if off != table {
			t.Fatalf("PROTOCOL.md %q: row at offset %d follows a field ending at %d", heading, off, table)
		}
		table = off + size
	}
	return stated, table
}
