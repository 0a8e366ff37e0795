package wire

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the network decoder every node runs
// on every frame it receives, before any authentication. It must never
// panic, and whatever it accepts must be a fixed point: re-marshalling the
// decoded message yields bytes that decode to an equal message, so a
// decoder cannot invent or drop fields a digest or signature would cover.
// The seeds are one valid encoding of every message type (also checked in
// under testdata/fuzz); CI replays them under -race and fuzzes briefly.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TProofRequest)})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("re-marshalled %v does not decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%v changed across a round trip:\n first: %#v\nsecond: %#v", m.Type(), m, again)
		}
	})
}
