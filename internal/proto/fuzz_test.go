package proto

import (
	"bytes"
	"testing"
)

// fuzzCanonical is the oracle the control-packet fuzz targets share.
// Never panic is implicit; the property is canonical form: each packet
// type has one body, so any bytes the parser accepts are the bytes its
// result marshals back to. A second accepted spelling of the same
// packet — an optional section, a tolerated length, an ignored byte —
// fails here.
//
// The corpus is seeded from the truncation table's packets: each valid
// packet of every kind, cut in half, one byte too long, and under the
// previous version's header.
func fuzzCanonical[T any](f *testing.F, parse func([]byte) (T, error), marshal func(T) ([]byte, error)) {
	for _, full := range validPackets(f) {
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(append(append([]byte(nil), full...), 0))
		old := append([]byte(nil), full...)
		old[2] = Version - 1
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := parse(data)
		if err != nil {
			return
		}
		again, err := marshal(v)
		if err != nil {
			t.Fatalf("accepted packet does not marshal: %v\n in: %x", err, data)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted bytes are not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}

func FuzzSubscribe(f *testing.F) { fuzzCanonical(f, UnmarshalSubscribe, (*Subscribe).Marshal) }
func FuzzSubAck(f *testing.F)    { fuzzCanonical(f, UnmarshalSubAck, (*SubAck).Marshal) }
func FuzzAnnounce(f *testing.F)  { fuzzCanonical(f, UnmarshalAnnounce, (*Announce).Marshal) }
func FuzzPause(f *testing.F)     { fuzzCanonical(f, UnmarshalPause, (*Pause).Marshal) }
