package mgmt

import (
	"fmt"
	"reflect"

	"repro/internal/obs"
)

// StatsVars registers one read-only IntVar per exported int64 field of
// the struct returned by snap, named and documented by the field's
// `mib` and `help` tags — the same tags obs.StructCounters exports to
// Prometheus, walked by the same obs.StructFields, so the MIB and the
// metrics endpoint can never drift from the stats structs or from each
// other. A field without a mib tag panics: an unreachable counter is a
// wiring bug, and the tag is where its operator-visible name lives.
func (m *MIB) StatsVars(snap func() any) {
	obs.StructFields(snap, func(f reflect.StructField, get func() int64) {
		name := f.Tag.Get("mib")
		if name == "" {
			panic(fmt.Sprintf("mgmt: stats field %s.%s has no mib tag",
				reflect.TypeOf(snap()).Name(), f.Name))
		}
		m.Register(IntVar(name, f.Tag.Get("help"), get, nil))
	})
}
