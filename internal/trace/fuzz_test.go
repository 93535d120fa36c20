package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzTraceReader: NewReader accepts or refuses any byte string without
// panicking, and every trace it accepts re-encodes through Writer to a
// trace that reads back as the same records. The seed corpus lives
// under testdata/fuzz/FuzzTraceReader; "huge_count" is a bare header
// whose count once sized an allocation and panicked.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, ti := range sample(8) {
		w.Write(&ti)
	}
	w.Flush()
	f.Add(buf.Bytes())
	counted := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(counted[8:], 8)
	f.Add(counted)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.insts {
			if err := w.Write(&r.insts[i]); err != nil {
				t.Fatalf("accepted record %d does not re-encode: %v", i, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if again.Len() != r.Len() {
			t.Fatalf("re-encoded trace has %d records, want %d", again.Len(), r.Len())
		}
		for i, want := range r.insts {
			if got := again.insts[i]; got != want {
				t.Fatalf("record %d: %+v after re-encoding, want %+v", i, got, want)
			}
		}
	})
}

// TestReaderRejectsCountMismatch: a nonzero header count must match the
// records that follow; zero still means streamed.
func TestReaderRejectsCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, ti := range sample(3) {
		w.Write(&ti)
	}
	w.Flush()
	raw := buf.Bytes()
	for _, tc := range []struct {
		count uint64
		ok    bool
	}{{0, true}, {3, true}, {2, false}, {4, false}, {1 << 60, false}} {
		hdr := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(hdr[8:], tc.count)
		if _, err := NewReader(bytes.NewReader(hdr)); (err == nil) != tc.ok {
			t.Errorf("count %d: err = %v, want ok = %v", tc.count, err, tc.ok)
		}
	}
}
