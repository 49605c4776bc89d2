package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// decodeStrict decodes one RunSpec the way didtd and pdnexplore do:
// unknown fields and trailing data are errors.
func decodeStrict(b []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, err
	}
	if dec.More() {
		return RunSpec{}, errors.New("trailing data after spec object")
	}
	return s, nil
}

// FuzzSpecResolve feeds arbitrary bytes through the untrusted-spec path:
// strict JSON decode, Resolve, Key. None of it may panic, and a spec that
// resolves must keep its Key through a marshal/strict-decode round trip,
// as a stored or forwarded spec does. The committed corpus
// (testdata/fuzz/FuzzSpecResolve) seeds the default spec and the README's
// three-rail example.
func FuzzSpecResolve(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeStrict(b)
		if err != nil {
			return
		}
		r, err := s.Resolve()
		if err != nil {
			return
		}
		key := r.Key()
		if s.Key() != key {
			t.Fatalf("resolution changed the key: %s vs %s", s.Key(), key)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("resolved spec does not marshal: %v", err)
		}
		back, err := decodeStrict(out)
		if err != nil {
			t.Fatalf("resolved spec does not decode: %v\n%s", err, out)
		}
		if back.Key() != key {
			t.Fatalf("round trip changed the key: %s vs %s\n%s", back.Key(), key, out)
		}
	})
}
