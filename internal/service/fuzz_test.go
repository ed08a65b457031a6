package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec fuzzes the strict job-spec wire-format decoder (the same
// decode the submission endpoint applies): any input that decodes must
// normalize to a stable fixed point — decode, Normalized, encode, decode
// again, Normalized again must reproduce the same bytes and the same
// content hash — and nothing may panic, including Plan on valid specs.
func FuzzParseSpec(f *testing.F) {
	// Seed the corpus from the golden wire-format fixture (its first JSON
	// value; the trailing hash line is ignored by the decoder) plus edge
	// shapes.
	if b, err := os.ReadFile(filepath.Join("testdata", "jobspec.golden")); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"scenarios":[4,1,4],"gaps":[230,60,230],"reps":2,"fault":{},"interventions":{"driver":true}}`))
	f.Add([]byte(`{"reps":100001,"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"gaps":[-1],"fault":{},"interventions":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return // not a spec; only panics are failures
		}
		n := spec.Normalized()
		if err := n.Validate(); err != nil {
			return // invalid specs just have to fail cleanly
		}
		h1, err := n.Hash()
		if err != nil {
			t.Fatalf("hashing a valid normalized spec: %v", err)
		}
		b1, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("encoding a valid normalized spec: %v", err)
		}
		spec2, err := DecodeSpec(b1)
		if err != nil {
			t.Fatalf("round-trip decode of %s: %v", b1, err)
		}
		n2 := spec2.Normalized()
		b2, err := json.Marshal(n2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalized is not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
		h2, err := n2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("round-trip changed the content hash: %s vs %s", h1, h2)
		}
	})
}
